"""`feasible_mu_values`, the one rule for the mu that `search` admits.

Its closed form runs over the factor pairs of n - 1; here it is compared
with a scan of every mu through `params_from_mu`.
"""

import pytest

from frameforge import feasible_mu_values, params_from_mu
from frameforge.search import KINDS
from frameforge.verdicts import Rejection


def scanned_mu_values(n, kind):
    """Every mu in -(n-1)..n-1 with feasible parameters, then the real kinds'
    rules: n even and (n-2-mu)/4 an integer, and for "quasi" the band
    2 - n/3 <= mu <= n/3 - 2."""
    if n < 2:
        return []
    feasible = [mu for mu in range(1 - n, n) if not isinstance(params_from_mu(n, mu), Rejection)]
    if kind.startswith("cube"):
        return feasible
    return [mu for mu in feasible
            if n % 2 == 0 and (n - 2 - mu) % 4 == 0 and (kind == "signature" or 3 * abs(mu) <= n - 6)]


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_equals_the_scan(kind):
    for n in range(1, 601):
        assert feasible_mu_values(n, kind) == scanned_mu_values(n, kind), n


def test_no_refinement_at_4p():
    # n = 28 = 4 * 7: every mu of the identity and the counting rules stays
    assert feasible_mu_values(28, "signature") == [-26, -6, 6, 26]
    assert feasible_mu_values(28, "quasi") == [-6, 6]


def test_cube_kinds_need_feasible_parameters_only():
    # n = 9 is odd, which the real kinds refuse; mu = +-2 gives k = 3 or 6
    assert feasible_mu_values(9, "cube-pair") == [-7, -2, 2, 7]
    assert feasible_mu_values(9, "signature") == []


def test_below_two_vectors_nothing_is_feasible():
    assert [feasible_mu_values(n, kind) for n in (0, 1) for kind in KINDS] == [[]] * 8
