"""Command-line interface.

Exit codes: 0 = verified / success, 1 = verification rejected or an empty
mandatory result, 2 = usage or parse error.  All JSON output has sorted
keys and deterministic ordering; floats are printed with 12 significant
digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

import numpy as np

from . import generators
from .cube_root import (
    build_cube_matrix,
    verify_quasi_signature_pair,
    verify_signature_pair,
)
from .difference_sets import diffset_to_signature, verify_difference_set
from .frames import frame_from_matrix
from .groups import GroupTable, cyclic, parse_group
from .matrices import (
    border_standard,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
)
from .search import KINDS, SearchSpec, search
from .signature_sets import (
    quasi_signature_matrix,
    signature_matrix,
    verify_quasi_signature_set,
    verify_signature_set,
)
from .subsets import Subset
from .verdicts import Rejection, SignatureVerdict


def _fmt_float(x: float) -> float:
    return float(format(x, ".12g"))


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def split_labels(text: str) -> list[str]:
    """Split a comma-separated label list, honouring parenthesised labels."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in label list")
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ValueError("unbalanced parentheses in label list")
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return [lab for lab in out if lab]


def _subset_arg(group: GroupTable, text: str) -> Subset:
    return group.subset(split_labels(text))


def _cmd_verify(args: argparse.Namespace) -> int:
    """`verify` checks a set S; `cube-verify` a pair S, T (args.t is not None)."""
    group = parse_group(args.group)
    s = _subset_arg(group, args.s)
    payload: dict = {"group": group.name, "set": sorted(s.labels(group))}
    if args.t is None:
        verdict = (verify_quasi_signature_set if args.quasi else verify_signature_set)(group, s)
    else:
        t = _subset_arg(group, args.t)
        payload["t"] = sorted(t.labels(group))
        verdict = (verify_quasi_signature_pair if args.quasi else verify_signature_pair)(group, s, t)
    if verdict.ok:
        payload.update(valid=True, mu=verdict.mu, n=verdict.params.n, k=verdict.params.k)
    else:
        payload.update(valid=False, mu=None, n=None, k=None, reason=str(verdict))
    print(_dump(payload))
    if verdict.ok and args.emit_matrix:
        if args.t is None:
            matrix = (quasi_signature_matrix if args.quasi else signature_matrix)(group, s)
        else:
            matrix = build_cube_matrix(group, s, t)
            matrix = border_standard(matrix) if args.quasi else matrix
        _write_matrix(matrix, verdict.mu, args.emit_matrix)
    return 0 if verdict.ok else 1


def _cmd_diffset(args: argparse.Namespace) -> int:
    group = parse_group(args.group)
    d = _subset_arg(group, args.set)
    report = verify_difference_set(group, d)
    if isinstance(report, Rejection):
        print(_dump({"group": group.name, "valid": False, "reason": str(report)}))
        return 1
    payload = {
        "group": group.name,
        "valid": True,
        "n": report.n,
        "k": report.k,
        "lambda": report.lam,
        "reversible": report.reversible,
        "hadamard_family": report.hadamard_family,
        "contains_identity": report.contains_identity,
    }
    code = 0
    if args.to_signature:
        verdict = diffset_to_signature(group, d)
        if isinstance(verdict, SignatureVerdict):
            payload["signature"] = {
                "valid": True, "mu": verdict.mu,
                "n": verdict.params.n, "k": verdict.params.k,
            }
        else:
            payload["signature"] = {"valid": False, "reason": str(verdict)}
            code = 1
    print(_dump(payload))
    return code


def _cmd_search(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    group = parse_group(args.group)
    spec = SearchSpec(
        group=group,
        kind=args.kind,
        mu=args.mu,
        dedupe_conjugates=args.dedupe,
        limit=args.limit,
        force=args.force,
    )
    hits = search(spec)
    for hit in hits:
        v = hit.verdict
        payload = {
            "kind": v.kind,
            "s": list(hit.canonical_key[0]),
            "mu": v.mu,
            "n": v.params.n,
            "k": v.params.k,
        }
        if v.t_subset is not None:
            payload["t"] = list(hit.canonical_key[1])
        print(_dump(payload))
    return 0 if hits else 1


def _cmd_tables(args: argparse.Namespace) -> int:
    try:
        hits = generators.generate(args.algorithm, args.max_m, verify=args.emit_matrix is None)
    except RuntimeError as exc:  # a listed row failed its certificate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.emit_matrix is not None:
        match = [h for h in hits if h.m == args.emit_matrix]
        if not match:
            print(f"no hit at m={args.emit_matrix}", file=sys.stderr)
            return 1
        hit = match[0]
        matrix = quasi_signature_matrix(cyclic(hit.p), Subset.of(hit.p, hit.residues))
        print(matrix_to_json(matrix, mu=0))
        return 0
    if args.json:
        for h in hits:
            payload = {"m": h.m, "p": h.p, "n": h.n, "k": h.k}
            if args.emit_sets:
                payload["set"] = list(h.residues)
            print(_dump(payload))
    else:
        for h in hits:
            line = f"{h.m:>4}  ({h.n}, {h.k})"
            if args.emit_sets:
                line += "  {" + ",".join(str(r) for r in h.residues) + "}"
            print(line)
    return 0 if hits else 1


def _cmd_frame(args: argparse.Namespace) -> int:
    with open(args.source, "r", encoding="utf-8") as fh:
        matrix = matrix_from_json(fh.read())
    result = frame_from_matrix(matrix, tol=args.tol)
    if isinstance(result, Rejection):
        print(_dump({"valid": False, "reason": str(result)}))
        return 1
    frame, report, params = result
    if args.out:
        # one re,im pair of cells per component; + 0.0 drops negative zero.
        # "%.12g" % x is the text of format(x, ".12g"), one template per row.
        v = frame.vectors
        if np.iscomplexobj(v):
            cells = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64) + 0.0
            pair = "%.12g,%.12g"
        else:  # a real frame formats only its real parts: every imaginary cell is 0
            cells, pair = v + 0.0, "%.12g,0"
        line = ",".join([pair] * v.shape[1]) + "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("".join(line % tuple(row) for row in cells.tolist()))
    payload = {
        "valid": report.ok,
        "n": params.n,
        "k": params.k,
        "mu": params.mu,
        "c_value": _fmt_float(params.c_value),
        "tightness_dev": _fmt_float(report.tightness_dev),
        "uniformity_dev": _fmt_float(report.uniformity_dev),
        "equiangularity_dev": _fmt_float(report.equiangularity_dev),
    }
    print(_dump(payload))
    return 0 if report.ok else 1


def _write_matrix(matrix, mu: int, path: str) -> None:
    text = matrix_to_csv(matrix) if path.endswith(".csv") else matrix_to_json(matrix, mu=mu)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each subcommand's handler looks
    up the module's names when it runs."""
    parser = argparse.ArgumentParser(
        prog="frameforge",
        description="construct, certify and search group-derived equiangular tight frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a (quasi-)signature set")
    p.add_argument("--group", required=True)
    p.add_argument("--set", dest="s", metavar="SET", required=True)
    p.add_argument("--quasi", action="store_true")
    p.add_argument("--emit-matrix", metavar="PATH")
    p.set_defaults(func=_cmd_verify, t=None)

    p = sub.add_parser("diffset", help="verify a difference set")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--to-signature", action="store_true")
    p.set_defaults(func=_cmd_diffset)

    p = sub.add_parser("cube-verify", help="verify a cube-root (quasi-)signature pair")
    p.add_argument("--group", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--t", default="")
    p.add_argument("--quasi", action="store_true")
    p.add_argument("--emit-matrix", metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustively search a small group")
    p.add_argument("--group", required=True)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--mu", type=int)
    p.add_argument("--dedupe", action="store_true")
    p.add_argument("--limit", type=int)
    p.add_argument("--force", action="store_true")
    # accepted for compatibility: the batched screen runs in one thread
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("tables", help="run the prime-driven (2k,k) generators")
    p.add_argument("--algorithm", required=True, choices=list(generators.ALGORITHM_IDS))
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--emit-sets", action="store_true")
    p.add_argument("--emit-matrix", type=int, metavar="M")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("frame", help="factor a certified matrix into frame vectors")
    p.add_argument("--from", dest="source", required=True, metavar="MATRIX_JSON")
    p.add_argument("--out", metavar="VECTORS_CSV")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_frame)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
