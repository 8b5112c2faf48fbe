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
from collections import Counter
from typing import BinaryIO, Sequence

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


#: Most cells of the frame vector file formatted per block, in whole rows;
#: the formatter's temporaries take about 200 bytes a cell.
_CELLS = 1 << 13
#: Byte columns of one cell in the formatter's grid: an 8-byte prefix
#: ("-0.000" or "-D."), 12 digits, "e-XX", then the third exponent digit
#: and the tail (",0," real, "," complex).
_WIDTH = 28


@functools.cache
def _g12_tables() -> tuple:
    """The lookup tables of `_g12_cells`, built by array arithmetic on first
    use: correctly rounded 10^0..10^301; the ASCII word of each 4-digit group
    and its count of trailing zeros; per exponent 10^-1..10^-290 the form,
    the "e-XX" word and, under its last digit, the word of the third
    exponent digit and the tail; per cell code the prefix and the keep mask.
    The tail words and the keep masks are pairs, complex then real.

    A code is (form, sign, leading digit, digits kept); the forms are 0 for
    zero, 1..4 for "0." and 0..3 more zeros, 5 and 6 for scientific text
    with a two- and a three-digit exponent.  Prefixes end at byte 8, where
    the 12 digits start; scientific text has its leading digit in the prefix
    ("-d."), so it keeps the digits from byte 9, and no "." without them."""
    p10 = np.array([float(f"1e{k}") for k in range(302)])
    quad = np.arange(10000)
    digits = np.empty((10000, 4), np.uint8)
    for col, scale in enumerate((1000, 100, 10, 1)):
        digits[:, col] = quad // scale % 10 + 48
    zeros = (quad == 0).astype(np.intp) + (quad % 10 == 0) + (quad % 100 == 0) + (quad % 1000 == 0)
    xe = np.arange(291)
    three = xe >= 100  # "e-" and two digits, the first two of three from 100 on
    forms = np.where(xe < 5, xe, 5 + three)
    exp = np.empty((291, 4), np.uint8)
    exp[:, :2] = bytearray(b"e-")
    exp[:, 2] = 48 + np.where(three, xe // 100, xe // 10)
    exp[:, 3] = 48 + np.where(three, xe // 10 % 10, xe % 10)
    tail = np.zeros((2, 10, 4), np.uint8)
    tail[..., 0] = 48 + np.arange(10)
    tail[0, :, 1], tail[1, :, 1:] = ord(","), bytearray(b",0,")
    prefix = np.zeros((7, 2, 10, 8), np.uint8)
    for form, text in enumerate(["0", "0.", "0.0", "0.00", "0.000", "0.", "0."]):
        for neg in (0, 1):
            signed = "-" * (neg and form > 0) + text
            prefix[form, neg, :, 8 - len(signed):] = bytearray(signed, "ascii")
    prefix[5:, :, :, 6] = 48 + np.arange(10)  # the leading digit, in "-d."
    keep = np.zeros((2, 7, 2, 10, 13, _WIDTH), bool)
    keep[..., :8] = prefix[:, :, :, None] != 0
    kept = np.arange(13)[:, None]
    keep[:, 1:5, ..., 8:20] = np.arange(12) < kept
    keep[:, 5:, ..., 9:20] = np.arange(1, 12) < kept
    keep[:, 5:, ..., :2, 7] = False
    keep[:, 5:, ..., 20:24] = True
    keep[:, 6, ..., 24] = True
    keep[0, ..., 25] = keep[1, ..., 25:28] = True
    prefix = np.broadcast_to(prefix[:, :, :, None], keep.shape[1:5] + (8,)).reshape(-1, 8)
    tables = (p10, _words(digits), zeros, forms, _words(exp), _words(tail),
              _words(prefix).T.copy(), _words(keep.reshape(2, -1, _WIDTH)))
    for table in tables:  # shared by every call
        table.setflags(write=False)
    return tables


def _words(x: np.ndarray) -> np.ndarray:
    """Bytes, a multiple of 4 along the last axis, as uint32 words in memory
    order; a last axis of one word is dropped."""
    words = np.ascontiguousarray(x).view(np.uint32)
    return words[..., 0] if words.shape[-1] == 1 else words


def _write_vectors(fh: BinaryIO, v: np.ndarray) -> None:
    """Write the frame vectors V, one row per vector, as the vector CSV: one
    re,im pair of "%.12g" cells per component.  A real frame formats only
    its real parts, as every imaginary cell is 0."""
    real = not np.iscomplexobj(v)
    step = max(1, _CELLS // (v.shape[1] * (1 if real else 2)))
    for lo in range(0, len(v), step):
        block = np.ascontiguousarray(v[lo:lo + step])
        fh.write(_g12_cells(block if real else block.view(np.float64), real))


def _g12_cells(cells: np.ndarray, real: bool) -> bytes:
    """The text "%.12g" % x of each float64 x of a (rows, cols) block, row by
    row, each followed by its tail: ",0," (",0\n" ending a row) for the real
    parts of a real frame, "," ("\n") for the re,im cells of a complex one.

    The 12 digits are d = rint(|x| 10^(11-e)) with e = floor(log10|x|) and a
    correctly rounded power, so the product y is within 2.3e-4 of the exact
    |x| 10^(11-e) below 1e12: d is the correctly rounded digit string unless
    y - d is within 1e-3 of +-1/2.  Such a cell, one with d outside
    (1e11, 1e12), which a log10 rounded up across a power of ten can give at
    the bound 1e11, and every x that is neither 0 nor in [1e-290, 1) is
    formatted by "%.12g" itself.  The rest are laid out as fixed ("0.000ddd")
    or scientific ("d.ddde-XX") text in a grid of 28-byte cells, gathered as
    4-digit ASCII words, and cut by one keep mask that strips the trailing
    zeros.  Zero, negative zero too, is "0"."""
    p10, word, zeros, forms, exp, tail, prefix, keep = _g12_tables()
    tail, keep = tail[int(real)], keep[int(real)]
    rows, cols = cells.shape
    x = cells.ravel()
    mag = np.abs(x)
    fast = (mag >= 1e-290) & (mag < 1.0)
    mag = np.where(fast, mag, 0.5)
    e = np.floor(np.log10(mag)).astype(np.intp)
    np.clip(e, -290, -1, out=e)
    y = mag * p10[11 - e]
    d = np.rint(y)
    fast &= (np.abs(y - d) < 0.499) & (d > 1e11) & (d < 1e12)
    g = np.minimum(d, 1e12 - 1).astype(np.intp)  # a slow cell's digits are not kept
    hi = g // 10000
    g0 = hi // 10000
    g1, g2 = hi - g0 * 10000, g - hi * 10000
    tz = zeros[g2]  # a 4-digit group is rarely 0: the rest only where it is
    at = np.flatnonzero(g2 == 0)
    tz[at] += zeros[g1[at]] + (g1[at] == 0) * zeros[g0[at]]
    xe = -e
    code = ((forms[xe] * 2 + (x < 0)) * 10 + g0 // 1000) * 13 + 12 - tz
    code[x == 0] = 0
    out = np.empty((len(x), _WIDTH // 4), np.uint32)
    for col, table, index in ((0, prefix[0], code), (1, prefix[1], code), (2, word, g0),
                              (3, word, g1), (4, word, g2), (5, exp, xe), (6, tail, xe % 10)):
        out[:, col] = table.take(index)
    grid, mask = out.view(np.uint8), keep.take(code, axis=0).view(bool)
    grid.reshape(rows, cols, _WIDTH)[:, -1, 27 if real else 25] = ord("\n")
    slow = np.flatnonzero(~fast & (x != 0))
    if len(slow):
        text = np.array(["%.12g" % v for v in x[slow].tolist()], "S25").view(np.uint8)
        grid[slow, :25] = text.reshape(-1, 25)
        mask[slow, :25] = grid[slow, :25] != 0
    return grid[mask].tobytes()


def _fmt_float(x: float) -> float:
    return float(format(x, ".12g"))


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def split_labels(text: str) -> list[str]:
    """Split a comma-separated label list, honouring parenthesised labels.
    Blank text is the empty list; an empty or a repeated label is a ValueError."""
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
    out.append("".join(cur).strip())
    if out == [""]:
        return []
    if "" in out:
        raise ValueError(f"empty label in label list {text!r}")
    if repeated := [lab for lab, count in Counter(out).items() if count > 1]:
        raise ValueError(f"label {repeated[0]!r} repeated in label list")
    return out


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
    if not (verdict.ok and args.emit_matrix):
        print(_dump(payload))
        return 0 if verdict.ok else 1
    if args.t is None:
        matrix = (quasi_signature_matrix if args.quasi else signature_matrix)(group, s)
    else:
        matrix = build_cube_matrix(group, s, t)
        matrix = border_standard(matrix) if args.quasi else matrix
    # opened before the verdict is printed: an unwritable path exits 2 with nothing on stdout
    with open(args.emit_matrix, "w", encoding="utf-8") as fh:
        print(_dump(payload))
        csv = args.emit_matrix.endswith(".csv")  # matrix_to_csv ends its last line
        fh.write(matrix_to_csv(matrix) if csv else matrix_to_json(matrix, mu=verdict.mu) + "\n")
    return 0


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
    if args.emit_matrix is not None and args.emit_matrix < 0:
        raise ValueError(f"--emit-matrix must be non-negative, got {args.emit_matrix}")
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
        # no name keeps the text or the matrix: each is freed once it is used
        result = frame_from_matrix(matrix_from_json(fh.read()), tol=args.tol)
    if isinstance(result, Rejection):
        print(_dump({"valid": False, "reason": str(result)}))
        return 1
    v = result[0].vectors
    report, params = result[1:]
    del result  # the frame's V V* and V*V go with it: V is the one array left
    if args.out:
        with open(args.out, "wb") as fh:
            _write_vectors(fh, v)
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
