"""Shared oracles and small-group inventories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from frameforge import (
    GroupTable,
    Subset,
    cyclic,
    direct_product,
    quaternion8,
    units_mod,
)
from frameforge.numbertheory import is_prime

# CI runs with --hypothesis-profile=ci: the same examples on every run, so a
# float property test cannot pass on one push and fail on the next
settings.register_profile("ci", derandomize=True)


def brute_count_pair(group: GroupTable, a: Subset, b: Subset, target: int) -> int:
    """Independent oracle: literal double loop over ordered pairs."""
    return sum(1 for x in a for y in b if int(group.mul[x, y]) == target)


def all_nonidentity_subsets(group: GroupTable):
    """Every subset of the non-identity elements (brute-force candidate set)."""
    n = group.order
    for mask in range(1 << (n - 1)):
        yield Subset(n, mask << 1)


def all_cube_assignments(group: GroupTable):
    """Every assignment of the non-identity elements to S / T / V."""
    n = group.order
    for code in range(3 ** (n - 1)):
        s_bits = t_bits = 0
        c = code
        for x in range(1, n):
            c, digit = divmod(c, 3)
            if digit == 0:
                s_bits |= 1 << x
            elif digit == 1:
                t_bits |= 1 << x
        yield Subset(n, s_bits), Subset(n, t_bits)


def full_nonidentity(order: int) -> Subset:
    """Every element but the identity."""
    return Subset(order, (1 << order) - 2)


def project(quotient, x: np.ndarray) -> np.ndarray:
    """rho(x) for a `quotients.Quotient`: the sums of x over each coset
    along the first axis, as int64."""
    out = np.zeros((quotient.order, *x.shape[1:]), dtype=np.int64)
    np.add.at(out, quotient.coset, x)
    return out


def supported_descriptors(max_order: int) -> list[str]:
    """Every descriptor `parse_group` accepts up to this order: C<n>,
    C<a>xC<b> with 2 <= a <= b, Zmult<p> and Q8."""
    out = [f"C{n}" for n in range(1, max_order + 1)]
    out += [f"C{a}xC{b}" for a in range(2, max_order) for b in range(a, max_order // a + 1)]
    out += [f"Zmult{p}" for p in range(2, max_order + 2) if is_prime(p)]
    return out + ["Q8"] * (max_order >= 8)


def small_groups_to_order_8() -> list[GroupTable]:
    groups = [cyclic(n) for n in range(2, 9)]
    groups.append(direct_product(cyclic(2), cyclic(2)))
    groups.append(direct_product(cyclic(2), cyclic(4)))
    groups.append(direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))))
    groups.append(quaternion8())
    return groups


@pytest.fixture(scope="session")
def c4xc4() -> GroupTable:
    return direct_product(cyclic(4), cyclic(4))


@pytest.fixture(scope="session")
def c6xc6() -> GroupTable:
    return direct_product(cyclic(6), cyclic(6))


@pytest.fixture(scope="session")
def q8() -> GroupTable:
    return quaternion8()


@pytest.fixture(scope="session")
def z13_units() -> GroupTable:
    return units_mod(13)
