"""Exhaustive enumeration of signature sets, quasi-signature sets and
cube-root (quasi-)pairs in small groups.

Candidates are generated over inverse-closure orbits and streamed in fixed
chunks through an exact batched screen on the group algebra; only the
survivors reach the verifiers, which decide acceptance.  The screen tests
an identity that every accepted candidate satisfies, so it only discards
candidates the verifiers would reject, and the hit set equals that of a
naive scan of all subset assignments.  Results come back in a deterministic
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from typing import Iterator

import numpy as np

from .cube_root import nmu_excluded, verify_quasi_signature_pair, verify_signature_pair
from .groups import GroupTable
from .signature_sets import verify_quasi_signature_set, verify_signature_set
from .subsets import Subset, conjugate_subset, seidel_identity
from .verdicts import SignatureVerdict

__all__ = [
    "SearchSpec",
    "SearchHit",
    "KINDS",
    "enumerate_inverse_closed",
    "cube_candidates",
    "search",
]

KINDS = ("signature", "quasi", "cube-pair", "cube-quasi")

#: Default exhaustive-order ceilings per kind; override with force=True.
DEFAULT_ORDER_LIMITS = {
    "signature": 36,
    "quasi": 36,
    "cube-pair": 16,
    "cube-quasi": 16,
}

#: Candidates screened per batch; bounds the screen's working memory.
_CHUNK = 4096


@dataclass(frozen=True)
class SearchSpec:
    group: GroupTable
    kind: str
    mu: int | None = None
    dedupe_conjugates: bool = False
    limit: int | None = None
    force: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be non-negative")


@dataclass(frozen=True)
class SearchHit:
    verdict: SignatureVerdict
    canonical_key: tuple[tuple[str, ...], tuple[str, ...]]


def _orbits(group: GroupTable) -> tuple[list[int], list[tuple[int, int]]]:
    """Involutions, and the two-element inverse orbits {x, x^-1} with x < x^-1,
    both in ascending x."""
    x = np.arange(1, group.order)
    ix = group.inv[1:]
    low = x < ix
    return x[ix == x].tolist(), list(zip(x[low].tolist(), ix[low].tolist()))


def _half_tables(choices: list[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    """Bit unions over the low and the high half of the orbits.

    Orbit i offers choices[i]; entry c of a half's table is the union of the
    choices picked by the mixed-radix digits of c, least significant orbit
    first.  Walking the high table outside the low one therefore visits
    every full code in ascending order.
    """
    half = len(choices) // 2
    tables = []
    for part in (choices[:half], choices[half:]):
        table = [0]
        for options in part:
            table = [bits | opt for opt in options for bits in table]
        tables.append(table)
    return tables[0], tables[1]


def enumerate_inverse_closed(group: GroupTable) -> Iterator[Subset]:
    """All inverse-closed subsets of the non-identity elements.

    One bit per inverse orbit, ascending, so the order is deterministic.
    """
    involutions, paired = _orbits(group)
    orbit_bits = [1 << x for x in involutions] + [(1 << x) | (1 << y) for x, y in paired]
    low, high = _half_tables([(0, bits) for bits in orbit_bits])
    order = group.order
    for hi in high:
        for lo in low:
            yield Subset(order, hi | lo)


def cube_candidates(group: GroupTable) -> Iterator[tuple[Subset, Subset]]:
    """(S, T) candidates for cube kinds: involutions always in S, and each
    remaining inverse orbit is either in S or oriented into T one of two
    ways (its partner landing in V).  Everything skipped here fails the
    closure conditions S = S^-1, V = T^-1."""
    involutions, paired = _orbits(group)
    order = group.order
    # S bits in the low `order` bits of a table entry, T bits above them;
    # the involutions form one orbit with a single choice
    low, high = _half_tables(
        [(sum(1 << x for x in involutions),)]
        + [((1 << x) | (1 << y), 1 << (order + x), 1 << (order + y)) for x, y in paired]
    )
    s_mask = (1 << order) - 1
    for hi in high:
        for lo in low:
            bits = hi | lo
            yield Subset(order, bits & s_mask), Subset(order, bits >> order)


def _canonical_key(
    group: GroupTable, s: Subset, t: Subset | None
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    t_labels = tuple(sorted(t.labels(group))) if t is not None else ()
    return tuple(sorted(s.labels(group))), t_labels


def search(spec: SearchSpec) -> list[SearchHit]:
    """Run the exhaustive (pruned) search described by the spec.

    Results are sorted by canonical key; an empty list is a valid outcome.
    """
    group = spec.group
    limit_order = DEFAULT_ORDER_LIMITS[spec.kind]
    if group.order > limit_order and not spec.force:
        raise ValueError(
            f"order {group.order} exceeds the default {spec.kind} bound "
            f"{limit_order}; pass force=True to override"
        )

    pairs = spec.kind.startswith("cube")
    if not pairs:
        if spec.kind == "signature" and group.order % 2:
            return []  # no signature set exists in an odd-order group
        if spec.kind == "quasi" and group.order % 2 == 0:
            return []  # frame size |G|+1 must be even
        candidates = enumerate_inverse_closed(group)
        verify = (
            verify_signature_set if spec.kind == "signature" else verify_quasi_signature_set
        )
    else:
        if (
            spec.kind == "cube-pair"
            and spec.mu is not None
            and nmu_excluded(group.order, spec.mu, group.is_abelian)
        ):
            return []
        candidates = cube_candidates(group)
        verify = (
            verify_signature_pair if spec.kind == "cube-pair" else verify_quasi_signature_pair
        )

    verdicts = []
    stream = iter(candidates)
    for chunk in iter(lambda: list(islice(stream, _CHUNK)), []):
        for candidate in compress(chunk, seidel_identity(group, spec.kind, chunk)[0]):
            verdict = verify(group, *candidate) if pairs else verify(group, candidate)
            if isinstance(verdict, SignatureVerdict):
                if spec.mu is None or verdict.mu == spec.mu:
                    verdicts.append(verdict)

    hits = [
        SearchHit(v, _canonical_key(group, v.subset, v.t_subset)) for v in verdicts
    ]
    hits.sort(key=lambda h: h.canonical_key)
    if spec.dedupe_conjugates:
        hits = _dedupe_by_conjugation(group, hits)
    if spec.limit is not None:
        hits = hits[: spec.limit]
    return hits


def _dedupe_by_conjugation(group: GroupTable, hits: list[SearchHit]) -> list[SearchHit]:
    """Keep one representative per conjugation orbit (the minimal key)."""
    kept = []
    seen: set = set()
    for hit in hits:
        v = hit.verdict
        orbit = set()
        for t in range(group.order):
            cs = conjugate_subset(group, v.subset, t)
            ct = conjugate_subset(group, v.t_subset, t) if v.t_subset is not None else None
            orbit.add(_canonical_key(group, cs, ct))
        key = min(orbit)
        if key not in seen:
            seen.add(key)
            kept.append(hit)
    return kept
