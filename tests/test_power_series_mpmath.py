"""The power series' values against 50-digit mpmath.

power and exponential are evaluated on q's complex slice (tables._slice_powers).
Both that and the Hamilton products they replaced (kept in test_tables as
oracles) are held to q^n, n = 1..8, and to the 30-term exponential sum
1 + q + ... + q^30/30!, both at 50 digits, as |d - o| <= SERIES_TOL (1 + |o|),
normwise, at 200 seeded draws from [-2, 2]^4 and at real points.
"""

import math

import mpmath
import numpy as np
import pytest

from quatcalc.quaternion import QArray, Quaternion
from quatcalc.sampling import make_rng, random_quaternion
from quatcalc.tables import DEFAULT_EXP_TERMS, TableEntry, as_function

from test_tables import PRODUCT_VALUES, SERIES_TOL
from test_tables_mpmath import DIGITS, _mul

DRAWS = 200
POWERS = range(1, 9)
# Real points: v = 0, with zero vector components of either sign.
REAL_POINTS = [(-2.0, 0.0, 0.0, 0.0), (1.5, -0.0, 0.0, -0.0), (-0.0, -0.0, -0.0, -0.0),
               (0.75, -0.0, -0.0, 0.0)]
ENTRIES = [TableEntry("power", n=n) for n in POWERS] + [TableEntry("exponential")]


def _points():
    rng = make_rng(36)
    return [tuple(random_quaternion(rng, -2.0, 2.0)) for _ in range(DRAWS)] + REAL_POINTS


def _oracle(entry, point):
    """q^n, or the exponential's first DEFAULT_EXP_TERMS + 1 terms, at DIGITS."""
    q = tuple(map(mpmath.mpf, point))
    powers = [tuple(map(mpmath.mpf, (1, 0, 0, 0)))]
    for _ in range(entry.n or DEFAULT_EXP_TERMS):
        powers.append(_mul(powers[-1], q))
    if entry.n:
        return powers[-1]
    return [mpmath.fsum(power[c] / mpmath.factorial(n) for n, power in enumerate(powers))
            for c in range(4)]


def _residual(value, oracle) -> float:
    """|d - o| / (1 + |o|), normwise."""
    norm = lambda x: mpmath.sqrt(mpmath.fsum(c * c for c in x))
    return float(norm([d - o for d, o in zip(value, oracle)]) / (1 + norm(oracle)))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: f"{e.family}{e.n or ''}")
@pytest.mark.parametrize("evaluator", ["slice", "product"])
def test_series_values_meet_the_50_digit_sum(entry, evaluator):
    points = _points()
    if evaluator == "slice":
        fn = as_function(entry)
        batched = fn(QArray(np.array(points).T))
    else:
        fn = lambda q: PRODUCT_VALUES[entry.family](entry, q)
    worst = 0.0
    with mpmath.workdps(DIGITS):
        for k, point in enumerate(points):
            value = fn(Quaternion(*point))
            if evaluator == "slice":
                assert [x.hex() for x in batched.c[:, k].tolist()] == [x.hex() for x in value]
            worst = max(worst, _residual(value, _oracle(entry, point)))
    assert worst <= SERIES_TOL, worst


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: f"{e.family}{e.n or ''}")
def test_series_values_at_a_real_point_are_real(entry):
    fn = as_function(entry)
    for point in REAL_POINTS:
        value = fn(Quaternion(*point))
        assert all(map(math.isfinite, value)) and value[1:] == (0.0, 0.0, 0.0), point


# Points with a large positive real part, where the last term of the
# exponential's sum, |q|^30/30!, is above SERIES_TOL: the 29-term sum misses
# it there by 6.8e-12 at 6+i+j+k and 1.6e-9 at 8.  A negative real part is
# no use: at -6+2i+k the terms cancel and the evaluator's own error is near
# SERIES_TOL.
LARGE_POINTS = [(6.0, 1.0, 1.0, 1.0), (8.0, 0.0, 0.0, 0.0)]


@pytest.mark.parametrize("point", LARGE_POINTS, ids=["6+i+j+k", "8"])
def test_the_exponential_sums_every_term(point):
    entry = TableEntry("exponential")
    with mpmath.workdps(DIGITS):
        oracle = _oracle(entry, point)
        shorter = [c - q / mpmath.factorial(DEFAULT_EXP_TERMS)
                   for c, q in zip(oracle, _oracle(TableEntry("power", n=DEFAULT_EXP_TERMS),
                                                   point))]
        assert _residual(shorter, oracle) > 100 * SERIES_TOL
        assert _residual(as_function(entry)(Quaternion(*point)), oracle) <= SERIES_TOL
