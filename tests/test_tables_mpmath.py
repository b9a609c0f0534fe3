"""Closed-form columns against oracles in mpmath, not the float engine.

The power rule's columns against their defining sums in 50-digit mpmath.
Power's columns at q, times mu, are

    sum over m = 1..n of q^(n-m) Re(q^(m-1) mu)
    and -1/2 the sum of q^(n-m) (q^(m-1) mu)*,

and exponential's are the sum over n of these divided by n!.  Each double
sum is evaluated at 50 digits, its terms gathered by power of q, and
held against the float columns, batched and one point at a time, as the
largest per-component |d - o| / (1 + |o|), d and o one component of the
float and of the oracle column.

Every other family is held against the GHR definition: the columns, times
mu, are 1/4 (f_a mu -+ the sum over x of f_x mu e_x), e_x = i, j, k, with
the real partials f_a ... f_d of the family's value, written as an mpmath
formula, by central differences at 60 digits and h = 1e-30.  A conj_ family's
value is its base's at q*, and a linear_ family's its base's at omega q nu +
lam, with each draw's own coefficients.  Every product and sum runs on
tuples of mpf components, since Quaternion * mpf rounds the factor to a
float.

mpmath is a test dependency: without it this module fails to import rather
than skip.
"""

import mpmath
import pytest

from quatcalc.quaternion import Quaternion
from quatcalc.sampling import make_rng
from quatcalc.tables import DEFAULT_EXP_TERMS, FAMILIES, _unstacked, derivative, sample_batch

from test_tables import ORACLE_TOL

DIGITS = 50
DRAWS = 60
# Fixed before measuring, in the measure above.
EXPONENTIAL_TOL = 4e-15
POWER_TOL = 5e-14
POWERS = range(1, 6)


def _mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _series_columns(q, mu, coefficients):
    """The two columns, times mu, of the sum over n >= 1 of a_n q^n, a_n =
    coefficients[n - 1], at the working precision: the defining double sum
    over n and m of a_n q^(n-m) Re(q^(m-1) mu) and of -1/2 a_n q^(n-m)
    (q^(m-1) mu)*, added up power by power: for each j = n - m, q^j times
    the sum over m of a_(j+m) q^(m-1) mu, whose conjugate is the sum of
    the conjugates."""
    q, mu = tuple(map(mpmath.mpf, q)), tuple(map(mpmath.mpf, mu))
    powers = [tuple(map(mpmath.mpf, (1, 0, 0, 0)))]
    for _ in coefficients[1:]:
        powers.append(_mul(powers[-1], q))
    heads = list(zip(*(_mul(power, mu) for power in powers)))
    plain, conj = [0] * 4, [0] * 4
    for j, power in enumerate(powers):
        a, b, c, d = (mpmath.fdot(coefficients[j:], part) for part in heads)
        plain = [s + x * a for s, x in zip(plain, power)]
        conj = [s + x for s, x in zip(conj, _mul(power, (a, -b, -c, -d)))]
    return plain, [-x / 2 for x in conj]


def _residual(derived, oracle) -> float:
    """Largest per-component |d - o| / (1 + |o|)."""
    return max(float(abs(d - o) / (1 + abs(o))) for d, o in zip(derived, oracle))


def _draws(family, seed):
    entry, q, mu = sample_batch(FAMILIES[family], make_rng(seed), DRAWS)
    return entry, q, mu, q.c.T.tolist(), mu.c.T.tolist()


def _worst(columns, batched, k, oracles):
    """The worst residual of point k's one-point columns, after checking
    that the batched columns hold the same floats there."""
    assert [tuple(column.c[:, k].tolist()) for column in batched] == \
        [tuple(column) for column in columns]
    return max(_residual(derived, oracle) for derived, oracle in zip(columns, oracles))


def test_exponential_columns_meet_the_defining_sum():
    entry, q, mu, points, axes = _draws("exponential", 31)
    batched = derivative(entry, q, mu)
    worst = 0.0
    with mpmath.workdps(DIGITS):
        coefficients = [1 / mpmath.factorial(n) for n in range(1, DEFAULT_EXP_TERMS + 1)]
        for k, (point, axis) in enumerate(zip(points, axes)):
            columns = derivative(entry, Quaternion(*point), Quaternion(*axis))
            oracles = _series_columns(point, axis, coefficients)
            worst = max(worst, _worst(columns, batched, k, oracles))
    assert worst <= EXPONENTIAL_TOL


def test_power_columns_meet_the_defining_sum():
    entries, q, mu, points, axes = _draws("power", 32)
    batched = {n: derivative(entries[0]._replace(n=n), q, mu) for n in POWERS}
    worst = dict.fromkeys(POWERS, 0.0)
    with mpmath.workdps(DIGITS):
        for k, (point, axis) in enumerate(zip(points, axes)):
            for n in POWERS:
                columns = derivative(entries[k]._replace(n=n), Quaternion(*point),
                                     Quaternion(*axis))
                oracles = _series_columns(point, axis, [0] * (n - 1) + [1])
                worst[n] = max(worst[n], _worst(columns, batched[n], k, oracles))
    assert max(worst.values()) <= POWER_TOL, worst


# --- the derived families against the GHR definition ---------------------------

FD_DIGITS = 60
FD_STEP = "1e-30"
# Fixed before measuring, in the measure above.
DEFINITION_TOL = 1e-15
_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _modulus(q):
    return mpmath.sqrt(mpmath.fsum(x * x for x in q))


VALUES = {
    "real_part": lambda q: (q[0], 0, 0, 0),
    "square": lambda q: _mul(q, q),
    "inverse": lambda q: tuple(x / _modulus(q) ** 2 for x in (q[0], -q[1], -q[2], -q[3])),
    "vector_modulus": lambda q: (_modulus(q[1:]), 0, 0, 0),
    "unit_pure_axis": lambda q: (0, *(x / _modulus(q[1:]) for x in q[1:])),
    "arctan_arg": lambda q: (mpmath.atan2(_modulus(q[1:]), q[0]), 0, 0, 0),
    "unit_vector": lambda q: tuple(x / _modulus(q) for x in q),
    "modulus": lambda q: (_modulus(q), 0, 0, 0),
    "modulus_squared": lambda q: (mpmath.fsum(x * x for x in q), 0, 0, 0),
}
# Every family but power and exponential, which meet their defining sums above.
DEFINED = [name for name in FAMILIES if name not in ("power", "exponential")]


def _value(family, entry):
    """The family's value as an mpmath formula, at entry's coefficients."""
    if family.startswith("conj_"):
        base = _value(family[len("conj_"):], entry)
        return lambda q: base((q[0], -q[1], -q[2], -q[3]))
    if family == "linear":
        omega, nu, lam = (tuple(map(mpmath.mpf, c)) for c in (entry.omega, entry.nu, entry.lam))
        return lambda q: tuple(x + y for x, y in zip(_mul(_mul(omega, q), nu), lam))
    if family.startswith("linear_"):
        base, inner = _value(family[len("linear_"):], entry), _value("linear", entry)
        return lambda q: base(inner(q))
    return VALUES[family]


def _definition_columns(value, q, mu):
    """The two columns of value at q, times mu, by the GHR definition, with
    its real partials by central differences at FD_STEP."""
    q, mu, h = tuple(map(mpmath.mpf, q)), tuple(map(mpmath.mpf, mu)), mpmath.mpf(FD_STEP)
    partials = []
    for unit in _UNITS:
        up = value(tuple(x + h * e for x, e in zip(q, unit)))
        down = value(tuple(x - h * e for x, e in zip(q, unit)))
        partials.append([(u - d) / (2 * h) for u, d in zip(up, down)])
    plain = _mul(partials[0], mu)
    spin = [mpmath.fsum(parts) for parts in zip(*(
        _mul(_mul(f_x, mu), unit) for f_x, unit in zip(partials[1:], _UNITS[1:])))]
    return [(p - s) / 4 for p, s in zip(plain, spin)], [(p + s) / 4 for p, s in zip(plain, spin)]


def test_the_definition_covers_every_base_family():
    bases = {name.removeprefix("conj_").removeprefix("linear_") for name in DEFINED}
    assert bases == set(VALUES) | {"linear"}


@pytest.mark.parametrize("family", DEFINED)
def test_derived_columns_meet_the_ghr_definition(family):
    entry, q, mu, points, axes = _draws(family, 33)
    batched = derivative(entry, q, mu)
    # The families through omega q nu + lam carry the bound their
    # hand-written columns are held to.
    tol = ORACLE_TOL if "linear" in family else DEFINITION_TOL
    worst = 0.0
    with mpmath.workdps(FD_DIGITS):
        for k, (one, point, axis) in enumerate(zip(_unstacked(entry, DRAWS), points, axes)):
            columns = derivative(one, Quaternion(*point), Quaternion(*axis))
            oracles = _definition_columns(_value(family, one), point, axis)
            worst = max(worst, _worst(columns, batched, k, oracles))
    assert worst <= tol, worst
