"""Exhaustive enumeration of signature sets, quasi-signature sets and
cube-root (quasi-)pairs in small groups.

Candidates are numbered by mixed-radix codes over inverse-closure orbits.
A join on a quotient G/H (`quotients.choose_quotient`) picks out the codes
whose image solves the Seidel identity of G/H; only these become coefficient
columns by array gathers and pass an exact batched screen on the group
algebra, and only the survivors become `Subset`s and reach the verifier
(`signature_sets.verify_batch`), one batch per chunk, which decides
acceptance.  The join and the screen test identities that every accepted
candidate satisfies, exactly in integers, so they only discard candidates
the verifier would reject, and the hit set equals that of a naive scan of
all subset assignments.  Every survivor also solves the identity on G, with
S = S^-1 and V = T^-1 by construction and the quasi band applied, so every
survivor must verify: a Rejection there is a bug, a hard error, as an
oracle disagreement is inside the verifier.  Results come back in a
deterministic order.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cube_root import nmu_excluded
from .groups import GroupTable
from .params import in_quasi_band
from .quotients import Quotient, choose_quotient
from .signature_sets import verify_batch
from .subsets import Subset, seidel_identity
from .verdicts import SignatureVerdict

# perfbench/tracer.py patches the one-candidate verifiers under these names
from .cube_root import verify_quasi_signature_pair, verify_signature_pair  # noqa: F401
from .signature_sets import verify_quasi_signature_set, verify_signature_set  # noqa: F401

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

#: Most codes of the low or the middle digits that the join tabulates.
_HALF_CODES = 1 << 18


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


class Candidates(Sequence):
    """The candidates of one search kind, numbered by mixed-radix codes.

    Real kinds: one base-2 digit per inverse orbit (involutions, then the
    pairs {x, x^-1} with x < x^-1, each in ascending x); digit 1 puts the
    orbit in S.  Cube kinds: the involutions always lie in S, and one base-3
    digit per pair puts it in S (0), or x (1) or x^-1 (2) into T, its partner
    landing in V; all else fails S = S^-1 or V = T^-1.  The first orbit's
    digit is the least significant, and iteration follows the codes upwards.
    `columns(codes)` gives the `seidel_coefficients` of codes, `decode` reads
    candidates off them, and both read one table of what a digit means.
    Codes are int64: a larger space is refused.
    """

    def __init__(self, group: GroupTable, cube: bool) -> None:
        inv, e = group.inv, np.arange(group.order)
        # each orbit's least element, the involutions first for the real kinds
        leads = np.flatnonzero((e < inv) | (e == inv) & (e > 0) & (not cube))
        self._leads = leads[np.argsort(inv[leads] != leads, kind="stable")]
        self._inv, self._cube, self._radix = inv, cube, 3 if cube else 2
        self._size = self._radix ** len(leads)
        if self._size > np.iinfo(np.int64).max:
            raise ValueError(f"{group.name} has {self._radix}^{len(leads)} candidates, "
                             "more than int64 codes can number")
        # q_i = code // radix^i in the narrowest unsigned type that holds the
        # codes, and digit i = q_i - radix * q_(i+1).  The top digit is 0 for
        # every code; the identity and the cube kinds' involutions read it.
        self._weights = (self._radix ** np.arange(len(leads) + 1, dtype=np.uint64)).astype(
            np.min_scalar_type(self._size))[:, None]

    # The orbit map and the digit table are built on first use: a Candidates
    # that only gives its len() builds neither.

    @cached_property
    def _orbit(self) -> np.ndarray:
        """Each element's digit: its orbit's index, or the top digit."""
        orbit = np.full(len(self._inv), len(self._leads))
        orbit[self._leads] = orbit[self._inv[self._leads]] = np.arange(len(self._leads))
        return orbit

    @cached_property
    def _table(self) -> list:
        """The (element, digit) coefficient table: digit d puts an element in S,
        T or V (c = 1, omega, -1 - omega) by (sign * d + shift) % 3, with sign
        -1 for a cube partner, 0 for a cube involution, else 1; shift 2, real kinds."""
        leads, n, cube = self._leads, len(self._inv), self._cube
        sign = np.zeros(n, dtype=np.int64)
        sign[leads], sign[self._inv[leads]] = 1, -1 if cube else 1
        role = (sign[:, None] * np.arange(self._radix) + 2 * (not cube)) % 3
        a, b = np.array([[1, 0, -1], [0, 1, -1]], dtype=np.int16)[:, role]
        a[0] = 0  # the identity; its role 0 already gives b = 0
        return [a, b if cube else 0]

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, code: int) -> Subset | tuple[Subset, Subset]:
        if not 0 <= code < self._size:
            raise IndexError(f"candidate code {code} out of range")
        return self.decode(*self.columns(np.array([code])))[0]

    def __iter__(self) -> Iterator[Subset | tuple[Subset, Subset]]:
        for lo in range(0, self._size, _CHUNK):
            yield from self.decode(*self.columns(np.arange(lo, min(lo + _CHUNK, self._size))))

    def decode(self, a: np.ndarray, b: np.ndarray | int) -> list:
        """The candidates of coefficient columns: S where c = 1 (a == 1) and,
        for the cube kinds, T where c = omega (b == 1)."""
        n, sets = len(self._inv), []
        for x in (a, b)[: 1 + self._cube]:
            # one row of packed bits per column, read as one bytes object by a void view
            packed = np.packbits(x == 1, axis=0, bitorder="little").T.copy()
            sets.append([Subset(n, int.from_bytes(row, "little"))
                         for row in packed.view(f"V{packed.shape[1]}").ravel().tolist()])
        return list(zip(*sets)) if self._cube else sets[0]

    def columns(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray | int]:
        """Each element gathers its orbit's digit, then its coefficient under it."""
        q = np.asarray(codes).astype(self._weights.dtype) // self._weights
        q[:-1] -= self._radix * q[1:]
        start = self._radix * np.arange(len(self._inv), dtype=np.int16)  # each element's table row
        index = start[:, None] + q.astype(np.int16)[self._orbit]
        return tuple(np.take(c, index) if np.ndim(c) else c for c in self._table)

    def join(self, quotient: Quotient, kind: str) -> Iterator[np.ndarray]:
        """The codes whose image in the quotient solves its identity, in
        batches of at most _CHUNK.

        The image is a sum of (orbit, digit) terms, each packed into one int64
        by `Quotient.pack`, which `Quotient.unpack` inverts.  The images every
        code can reach are built two orbits at a time as a set, and the
        solutions r are taken from it.  A code is split into low, middle and
        top digits: (low, middle) pairs with key(low) + key(middle) = r -
        key(top) are found by a sorted lookup of the distinct middle keys, and
        only their codes are expanded.
        """
        radix, cube = self._radix, self._cube
        # keys[i, d]: the packed image of orbit i under digit d; the last row
        # holds the identity and the elements no digit moves, under digit 0
        keys = np.zeros((len(self._weights), radix), dtype=np.int64)
        np.add.at(keys, self._orbit, quotient.pack(*self._table))
        keys, fixed = keys[:-1], keys[-1, 0]

        reachable = np.array([fixed])
        for lo in range(0, len(keys), 2):  # two orbits per sort, a merge of sorted runs
            reachable = np.sort((_digit_keys(keys[lo:lo + 2])[:, None] + reachable).ravel(), kind="stable")
            reachable = reachable[np.append(True, reachable[1:] != reachable[:-1])]
        holds = [seidel_identity(quotient.group, kind, *quotient.unpack(reachable[lo:lo + _CHUNK], cube),
                                 quotient.h)[0] for lo in range(0, len(reachable), _CHUNK)]
        solutions = reachable[np.concatenate(holds)]

        low, middle = _split(len(keys), radix)
        low_codes, low_uniq, low_start, low_count = _buckets(_digit_keys(keys[:low]))
        mid_codes, mid_uniq, mid_start, mid_count = _buckets(_digit_keys(keys[low:low + middle]))
        top = keys[low + middle:]
        for high in range(radix ** len(top)):
            top_key = fixed + sum(int(row[high // radix ** i % radix]) for i, row in enumerate(top))
            pair_low, pair_mid = _matches(solutions - top_key, low_uniq, mid_uniq)
            sizes = low_count[pair_low] * mid_count[pair_mid]
            ends = np.cumsum(sizes)
            total = int(ends[-1]) if len(ends) else 0
            for lo in range(0, total, _CHUNK):
                index = np.arange(lo, min(lo + _CHUNK, total))
                pair = np.searchsorted(ends, index, side="right")
                i, j = np.divmod(index - ends[pair] + sizes[pair], mid_count[pair_mid[pair]])
                yield (low_codes[low_start[pair_low[pair]] + i]
                       + radix ** low * (mid_codes[mid_start[pair_mid[pair]] + j]
                                         + radix ** middle * high))


def _split(digits: int, radix: int) -> tuple[int, int]:
    """Low and middle digit counts: halves, each of at most _HALF_CODES codes;
    the top digits beyond them are walked one value at a time."""
    cap = 0
    while radix ** (cap + 1) <= _HALF_CODES:
        cap += 1
    low = min(digits // 2, cap)
    return low, min(digits - low, cap)


def _matches(targets: np.ndarray, low: np.ndarray, middle: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index pairs (i, j) of the sorted distinct keys with low[i] + middle[j]
    in targets, looked up in blocks of targets."""
    found = []
    block = max(1, _HALF_CODES // max(len(low), 1))
    for lo in range(0, len(targets), block):
        want = targets[lo:lo + block, None] - low
        at = np.minimum(np.searchsorted(middle, want), len(middle) - 1)
        rows, i = np.nonzero(middle[at] == want)
        found.append((i, at[rows, i]))
    return tuple(np.concatenate(part) for part in zip(*found)) if found else (np.zeros(0, int),) * 2


def _digit_keys(keys: np.ndarray) -> np.ndarray:
    """The packed image of every code over these orbits, in code order."""
    out = np.zeros(1, dtype=np.int64)
    for row in keys:
        out = (row[:, None] + out).ravel()
    return out


def _buckets(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Codes sorted by key, the distinct keys, and where each key's codes start and how many."""
    codes = np.argsort(keys, kind="stable")
    ordered = keys[codes]
    start = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
    return codes, ordered[start], start, np.diff(start, append=len(keys))


def enumerate_inverse_closed(group: GroupTable) -> Candidates:
    """All inverse-closed subsets of the non-identity elements, in code order."""
    return Candidates(group, cube=False)


def cube_candidates(group: GroupTable) -> Candidates:
    """(S, T) candidates for the cube kinds, in code order."""
    return Candidates(group, cube=True)


def _canonical_key(group: GroupTable, s: Subset, t: Subset | None) -> tuple[tuple[str, ...], ...]:
    """The sorted labels of S and of T (empty when there is no T)."""
    return tuple(tuple(sorted(x.labels(group))) if x is not None else () for x in (s, t))


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
    n = group.order + (spec.kind in ("quasi", "cube-quasi"))  # the frame size
    if n < 2 or (n % 2 and not pairs):
        return []  # no frame has one vector, and a real frame has an even size
    if spec.kind == "cube-pair" and spec.mu is not None:
        if nmu_excluded(group.order, spec.mu, group.is_abelian):
            return []

    # `space` turns codes into the screen's columns and decodes the survivors
    # from them.  The enumerator is called by its public name, so that a
    # wrapper of it sees the scan, and only for the candidate count.
    space = Candidates(group, pairs)  # refuses a space past int64 codes
    count = len((cube_candidates if pairs else enumerate_inverse_closed)(group))
    verdicts = []
    for codes in space.join(choose_quotient(group, spec.kind, count), spec.kind):
        a, b = space.columns(codes)
        kept, mu = seidel_identity(group, spec.kind, a, b)
        if spec.kind == "quasi":  # the verifier's mu band
            kept &= in_quasi_band(n, mu)
        if spec.mu is not None:
            kept &= mu == spec.mu
        if kept.any():
            batch = verify_batch(group, spec.kind, space.decode(a[:, kept], b[:, kept] if pairs else b))
            if rejected := [v for v in batch if not v.ok]:
                raise RuntimeError(f"internal: a screen survivor failed its verifier: {rejected[0]}")
            verdicts += batch

    hits = sorted((SearchHit(v, _canonical_key(group, v.subset, v.t_subset)) for v in verdicts),
                  key=lambda h: h.canonical_key)
    if spec.dedupe_conjugates:
        hits = _dedupe_by_conjugation(group, hits)
    return hits[: spec.limit]  # a limit of None keeps every hit


def _dedupe_by_conjugation(group: GroupTable, hits: list[SearchHit]) -> list[SearchHit]:
    """Keep one representative per conjugation orbit (the minimal key).

    Row g of the conjugation table is x -> g x g^-1; only its distinct rows
    are applied.  In an abelian group every row is the identity, and
    distinct hits have distinct keys, so the hits come back as they are."""
    if group.is_abelian:
        return hits
    labels = np.array(group.labels, dtype=object)
    conjugations = np.array(sorted(set(map(tuple, group.mul[group.mul, group.inv[:, None]].tolist()))))
    kept, seen = [], set()
    for hit in hits:
        parts = [x.indices_array() for x in (hit.verdict.subset, hit.verdict.t_subset) if x is not None]
        key = min(tuple(tuple(sorted(labels[row[x]])) for x in parts) for row in conjugations)
        if key not in seen:
            seen.add(key)
            kept.append(hit)
    return kept
