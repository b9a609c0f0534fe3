"""Closed-form derivative catalogue against the numerical engine."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatcalc import derivatives, sampling, tables
from quatcalc.derivatives import DEFAULT_H, EvaluationError, left_ghr
from quatcalc.quaternion import (ONE, I, J, K, ZERO, QArray, Quaternion, _add_terms, _by_floats,
                                 _times, format_quaternion)
from quatcalc.sampling import make_rng, random_quaternion
from quatcalc.tables import (DEFAULT_EXP_TERMS, FAMILIES, EntryDerivatives, TableEntry,
                             as_function, catalogue, conj_gradient,
                             cross_validate, derivative, eval_entry,
                             sample_batch)

from test_derivatives import oracle_stencil
from test_golden_bytes import _run as golden_run
from test_quaternion import (NON_FINITE_AXES, NON_FINITE_IDS, OVERFLOWING_AXES,
                             OVERFLOWING_AXIS, _same_bits, isclose)

SEED = 20240310
DRAWS_PER_FAMILY = 30
REL_TOL = 1e-5

ALL_FAMILIES = [spec.name for spec in catalogue()]


# Identity sampling indexes into the catalogue, so its order is part of the
# seeded output: (name, scale_class, real_valued) in catalogue order.
CATALOGUE = [
    ("linear", "linear", False),
    ("conj_linear", "linear", False),
    ("square", "quadratic", False),
    ("conj_square", "quadratic", False),
    ("linear_square", "quadratic", False),
    ("conj_linear_square", "quadratic", False),
    ("inverse", "linear", False),
    ("conj_inverse", "linear", False),
    ("linear_inverse", "linear", False),
    ("conj_linear_inverse", "linear", False),
    ("real_part", "linear", True),
    ("linear_real_part", "linear", True),
    ("conj_linear_real_part", "linear", True),
    ("vector_modulus", "linear", True),
    ("unit_pure_axis", "linear", False),
    ("arctan_arg", "linear", True),
    ("unit_vector", "linear", False),
    ("conj_unit_vector", "linear", False),
    ("linear_unit_vector", "linear", False),
    ("conj_linear_unit_vector", "linear", False),
    ("modulus", "linear", True),
    ("modulus_squared", "quadratic", True),
    ("linear_modulus", "linear", True),
    ("conj_linear_modulus", "linear", True),
    ("linear_modulus_squared", "quadratic", True),
    ("conj_linear_modulus_squared", "quadratic", True),
    ("power", "quadratic", False),
    ("exponential", "quadratic", False),
]


def test_catalogue_is_complete_and_stable():
    assert len(ALL_FAMILIES) == 28
    assert len(set(ALL_FAMILIES)) == 28
    assert ALL_FAMILIES == [spec.name for spec in catalogue()]
    assert [(s.name, s.scale_class, s.real_valued) for s in catalogue()] == CATALOGUE


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cross_validation(family):
    spec = next(s for s in catalogue() if s.name == family)
    rng = make_rng(SEED)
    worst = 0.0
    for _ in range(DRAWS_PER_FAMILY):
        entry = spec.sample_entry(rng)
        q = spec.sample_point(entry, rng)
        mu = random_quaternion(rng, min_modulus=0.1)
        check = cross_validate(entry, q, mu)
        worst = max(worst, check.residual_mu, check.residual_mu_conj)
    assert worst < REL_TOL


def test_linear_entry_oracle():
    # f = omega q nu + lam has constant derivative columns.
    entry = TableEntry(family="linear", omega=Quaternion(0.0, 1.0, 0.0, 0.0),
                       nu=Quaternion(0.0, 0.0, 1.0, 0.0),
                       lam=Quaternion(1.0, 0.0, 0.0, 0.0))
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert isclose(eval_entry(entry, q), I * q * Quaternion(0.0, 0.0, 1.0, 0.0) + ONE)
    cols = derivative(entry, q, ONE)
    num = left_ghr(as_function(entry), q, ONE)
    assert isclose(cols.d_mu_times_mu, num.d_mu, abs_tol=1e-8)
    assert isclose(cols.d_mu_conj_times_mu, num.d_mu_conj, abs_tol=1e-8)


def test_modulus_squared_oracle():
    entry = TableEntry(family="modulus_squared")
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert eval_entry(entry, q).a == pytest.approx(30.0)
    cols = derivative(entry, q, ONE)
    assert isclose(cols.d_mu_times_mu, q.conjugate() * 0.5)
    assert isclose(cols.d_mu_conj_times_mu, q * 0.5)


def test_inverse_consistency():
    # f = q^-1 satisfies q f = 1, so q * col1 + Re(f mu) must vanish:
    # differentiating q f = 1 by q^mu gives q d f/dq^mu mu = -Re(f mu)... the
    # closed form is checked against that algebraic constraint.
    entry = TableEntry(family="inverse")
    rng = make_rng(SEED, stream=1)
    for _ in range(20):
        q = random_quaternion(rng, min_modulus=0.3)
        mu = random_quaternion(rng, min_modulus=0.1)
        f = eval_entry(entry, q)
        cols = derivative(entry, q, mu)
        residual = q * cols.d_mu_times_mu + Quaternion.from_real((f * mu).a)
        assert abs(residual) < 1e-12


def test_power_matches_repeated_product():
    rng = make_rng(SEED, stream=2)
    for n in (2, 3, 4, 5):
        entry = TableEntry(family="power", n=n)
        q = random_quaternion(rng)
        expected = ONE
        for _ in range(n):
            expected = expected * q
        assert isclose(eval_entry(entry, q), expected)


def test_cube_is_the_repeated_product_bit_for_bit():
    # power starts from q itself: ONE * q is not q where a component is -0.0
    # or infinite, and a cube started from ONE has other bits at the first point.
    cube = as_function(TableEntry(family="power", n=3))
    points = [(-2.0, -0.0, 0.0, 0.0), (math.inf, 0.5, -1.0, 2.0),
              (0.3, -0.0, -math.inf, -0.0), (1.0, -2.0, 3.0, -4.0)]
    for point in points:
        q = Quaternion(*point)
        assert _same_bits(np.array(cube(q)), np.array(q * q * q)), point
    qs = QArray(np.array(points).T)
    with np.errstate(invalid="ignore"):  # inf * 0.0, as Python floats give it
        assert _same_bits(cube(qs).c, (qs * qs * qs).c)


def test_series_value_commutes_with_argument():
    # exp(q) is a power series in q, so it commutes with q.
    entry = TableEntry(family="exponential")
    rng = make_rng(SEED, stream=3)
    for _ in range(20):
        q = random_quaternion(rng)
        f = eval_entry(entry, q)
        assert abs(f * q - q * f) < 1e-12


def _exp_tail_bound(terms: int, q: Quaternion, mu: Quaternion) -> float:
    """Bound on the derivative mass dropped by truncating the exponential
    series after ``terms`` terms: |q|^(n+1) / (n+1)! e^|q| |mu|."""
    mod = abs(q)
    return mod ** (terms + 1) / math.factorial(terms + 1) * math.exp(mod) * abs(mu)


def test_exponential_tail_bound(monkeypatch):
    q = Quaternion(1.0, 1.0, 1.0, 1.0)
    mu = Quaternion(0.5, -0.3, 0.8, 0.1)
    assert _exp_tail_bound(DEFAULT_EXP_TERMS, q, mu) < 1e-12
    assert _exp_tail_bound(3, q, mu) > 1e-3
    # The columns of a truncated series lie within the bound of a longer one.
    entry = TableEntry(family="exponential")
    monkeypatch.setattr(tables, "DEFAULT_EXP_TERMS", 60)
    long = derivative(entry, q, mu)
    for terms in (3, 8, DEFAULT_EXP_TERMS):
        monkeypatch.setattr(tables, "DEFAULT_EXP_TERMS", terms)
        cols = derivative(entry, q, mu)
        bound = _exp_tail_bound(terms, q, mu)
        assert abs(cols.d_mu_times_mu - long.d_mu_times_mu) <= bound + 1e-15
        assert abs(cols.d_mu_conj_times_mu - long.d_mu_conj_times_mu) <= bound + 1e-15


def test_exponential_more_terms_converge(monkeypatch):
    q = Quaternion(0.4, -0.3, 0.2, 0.6)
    entry = TableEntry(family="exponential")
    monkeypatch.setattr(tables, "DEFAULT_EXP_TERMS", 30)
    f30 = eval_entry(entry, q)
    monkeypatch.setattr(tables, "DEFAULT_EXP_TERMS", 40)
    f40 = eval_entry(entry, q)
    assert abs(f30 - f40) < 1e-15


def test_real_valued_families_are_real():
    rng = make_rng(SEED, stream=4)
    for spec in catalogue():
        if not spec.real_valued:
            continue
        entry = spec.sample_entry(rng)
        q = spec.sample_point(entry, rng)
        value = eval_entry(entry, q)
        assert value.vector_modulus() < 1e-12, spec.name


def test_domain_guards():
    with pytest.raises(ValueError, match="inverse"):
        eval_entry(TableEntry(family="inverse"), Quaternion(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="requires"):
        eval_entry(TableEntry(family="unit_pure_axis"),
                   Quaternion(2.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="unknown table family"):
        eval_entry(TableEntry(family="nonsense"), ONE)
    with pytest.raises(ValueError, match="nonzero"):
        derivative(TableEntry(family="square"), ONE,
                   Quaternion(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="positive"):
        eval_entry(TableEntry(family="power"), ONE)


@pytest.mark.parametrize("mu", NON_FINITE_AXES, ids=NON_FINITE_IDS)
def test_derivative_rejects_a_non_finite_axis_naming_it(mu):
    # Only a zero axis was rejected: NaN and inf gave NaN or inf columns.
    with pytest.raises(ValueError, match=re.escape(format_quaternion(mu))):
        derivative(TableEntry(family="square"), ONE, mu)


def test_derivative_rejects_an_overflowing_axis_array_without_a_warning():
    # axis_modulus_squared's |mu|^2 overflowed with numpy's warning first.
    points = QArray([[0.5, 0.5], [-1.0, -1.0], [0.25, 0.25], [0.75, 0.75]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(format_quaternion(OVERFLOWING_AXIS))):
            derivative(TableEntry(family="square"), points, OVERFLOWING_AXES)


NAN_Q = Quaternion(math.nan, 0.0, 0.0, 0.0)
INF_Q = Quaternion(math.inf, 0.0, 0.0, 0.0)
FINITE_Q = Quaternion(0.5, -1.0, 0.25, 0.75)


@pytest.mark.parametrize("entry,q,field,bad", [
    (TableEntry("linear", NAN_Q, ONE, ZERO), FINITE_Q, "omega", NAN_Q),
    (TableEntry("linear_square", ONE, ONE, INF_Q), FINITE_Q, "lam", INF_Q),
    (TableEntry("square"), NAN_Q, "point", NAN_Q),
    (TableEntry("inverse"), INF_Q, "point", INF_Q),
], ids=["nan-omega", "inf-lam", "nan-point", "inf-point"])
def test_a_non_finite_coefficient_or_point_is_named(entry, q, field, bad):
    # These gave NaN values and columns: (nan, 0, 0, 0) for the inverse at
    # inf, and all-NaN columns for linear with a NaN omega.
    message = f"^{re.escape(f'{entry.family}: {field} must be finite, got {format_quaternion(bad)}')}$"
    with pytest.raises(ValueError, match=message):
        eval_entry(entry, q)
    with pytest.raises(ValueError, match=message):
        derivative(entry, q, I)
    if field != "point":
        with pytest.raises(ValueError, match=message):
            as_function(entry)


def test_stacked_values_name_their_first_non_finite_quaternion():
    good = np.array([FINITE_Q] * 4).T
    points, omegas = good.copy(), good.copy()
    points[:, 1], points[:, 3] = INF_Q, NAN_Q
    omegas[:, 2] = NAN_Q
    axes = QArray(np.array([I] * 4).T)
    with pytest.raises(ValueError, match=re.escape(f"square: point must be finite, got "
                                                   f"{format_quaternion(INF_Q)}")):
        derivative(TableEntry("square"), QArray(points), axes)
    entry = TableEntry("linear", QArray(omegas), QArray(good), QArray(good))
    with pytest.raises(ValueError, match=re.escape(f"linear: omega must be finite, got "
                                                   f"{format_quaternion(NAN_Q)}")):
        derivative(entry, QArray(good), axes)


def test_unit_pure_axis_value():
    entry = TableEntry(family="unit_pure_axis")
    q = Quaternion(3.0, 0.0, 4.0, 0.0)
    axis = eval_entry(entry, q)
    assert isclose(axis, Quaternion(0.0, 0.0, 1.0, 0.0))
    assert axis.modulus() == pytest.approx(1.0)


def test_arctan_arg_value():
    entry = TableEntry(family="arctan_arg")
    q = Quaternion(1.0, 1.0, 0.0, 0.0)
    assert eval_entry(entry, q).a == pytest.approx(math.pi / 4.0)


def test_conj_gradient_matches_column():
    entry = TableEntry(family="linear_modulus_squared", omega=ONE, nu=ONE,
                       lam=Quaternion(-1.0, -2.0, -3.0, -4.0))
    q = Quaternion(2.0, 1.0, 0.0, -1.0)
    grad = conj_gradient(entry, q)
    target = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert isclose(grad, (q - target) * 0.5)


@pytest.mark.parametrize("family", [f for f in ALL_FAMILIES if f.startswith("conj_")])
def test_conj_guard_is_base_guard_at_conjugate(family):
    spec = next(s for s in catalogue() if s.name == family)
    base = next(s for s in catalogue() if s.name == family[len("conj_"):])
    rng = make_rng(SEED, stream=5)
    for _ in range(20):
        entry = spec.sample_entry(rng)
        assert entry.family == family
        base_entry = entry._replace(family=base.name)
        points = [random_quaternion(rng), ZERO]
        if entry.omega is not None:
            # q* = -omega^-1 lam nu^-1 zeroes the inner map omega q* nu + lam.
            root = entry.omega.inverse() * -entry.lam * entry.nu.inverse()
            points.append(root.conjugate())
        for q in points:
            violation = spec.domain(entry, q)
            assert (violation is None) == (base.domain(base_entry, q.conjugate()) is None)
            if violation is not None:
                assert "q*" in violation
                with pytest.raises(ValueError, match=family):
                    eval_entry(entry, q)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_sampled_points_and_their_stencils_pass_the_domain_guard(family, seed):
    spec = next(s for s in catalogue() if s.name == family)
    rng = make_rng(seed)
    entry = spec.sample_entry(rng)
    q = spec.sample_point(entry, rng)
    for p in [q, *(p for pair in oracle_stencil(q) for p in pair)]:
        assert spec.domain(entry, p) is None


@pytest.mark.parametrize("entry,param", [
    (TableEntry(family="linear"), "omega"),
    (TableEntry(family="conj_linear_modulus", omega=ONE, nu=I), "lam"),
    (TableEntry(family="linear_inverse", omega=ONE, nu=1.0, lam=ONE), "nu"),
    (TableEntry(family="power"), "n"),
    (TableEntry(family="power", n=2.5), "n"),
    (TableEntry(family="power", n=True), "n"),
    (TableEntry(family="power", n=0), "n"),
])
def test_missing_or_ill_typed_parameter_is_a_value_error(entry, param):
    q = Quaternion(0.5, -1.0, 0.25, 0.75)
    match = f"{entry.family}: {param} must be"
    with pytest.raises(ValueError, match=match):
        eval_entry(entry, q)
    with pytest.raises(ValueError, match=match):
        derivative(entry, q, ONE)
    with pytest.raises(ValueError, match=match):
        as_function(entry)


# --- the chain rule against hand-written columns ---------------------------------
#
# Each linear_* family is its base family at g = omega q nu + lam, and
# tables.affine_input derives its columns by the GHR chain rule.  Below are
# the same columns worked out by hand, an independent closed form for both
# Quaternion and QArray arguments.  ORACLE_TOL is in the table's relative
# measure, |derived - oracle| / (1 + |oracle|).

ORACLE_TOL = 1e-14


def _inner(e, q):
    return e.omega * q * e.nu + e.lam


def _linear_square_cols(e, q, mu):
    g = _inner(e, q)
    nm = e.nu * mu
    ngm = e.nu * g * mu
    col1 = (g * e.omega) * nm.a + e.omega * ngm.a
    col2 = (g * e.omega * nm.conjugate()) * -0.5 + (e.omega * ngm.conjugate()) * -0.5
    return col1, col2


def _linear_inverse_cols(e, q, mu):
    fv = _inner(e, q).inverse()
    nfm = e.nu * fv * mu
    col1 = (fv * e.omega) * -nfm.a
    col2 = (fv * e.omega * nfm.conjugate()) * 0.5
    return col1, col2


def _linear_real_part_cols(e, q, mu):
    col1 = (mu * e.nu * e.omega) * 0.25
    col2 = (mu * e.omega.conjugate() * e.nu.conjugate()) * 0.25
    return col1, col2


def _linear_unit_vector_cols(e, q, mu):
    g = _inner(e, q)
    mod = g.modulus()
    mod3 = mod * mod * mod
    nm = e.nu * mu
    wgm = e.omega.conjugate() * g * mu
    col1 = e.omega * (nm.a / (2.0 * mod)) \
        + (g * e.nu.conjugate() * wgm.conjugate()) * (0.25 / mod3)
    col2 = (e.omega * nm.conjugate()) * (-0.25 / mod) \
        + (g * e.nu.conjugate()) * (-wgm.a / (2.0 * mod3))
    return col1, col2


def _linear_modulus_cols(e, q, mu):
    g = _inner(e, q)
    mod = g.modulus()
    nm = e.nu * mu
    wgm = e.omega.conjugate() * g * mu
    col1 = (g.conjugate() * e.omega) * (nm.a / (2.0 * mod)) \
        + (e.nu.conjugate() * wgm.conjugate()) * (-0.25 / mod)
    col2 = (g.conjugate() * e.omega * nm.conjugate()) * (-0.25 / mod) \
        + e.nu.conjugate() * (wgm.a / (2.0 * mod))
    return col1, col2


def _linear_modulus_squared_cols(e, q, mu):
    g = _inner(e, q)
    nm = e.nu * mu
    wgm = e.omega.conjugate() * g * mu
    col1 = (g.conjugate() * e.omega) * nm.a + (e.nu.conjugate() * wgm.conjugate()) * -0.5
    col2 = (g.conjugate() * e.omega * nm.conjugate()) * -0.5 + e.nu.conjugate() * wgm.a
    return col1, col2


LINEAR_ORACLES = {
    "linear_square": _linear_square_cols,
    "linear_inverse": _linear_inverse_cols,
    "linear_real_part": _linear_real_part_cols,
    "linear_unit_vector": _linear_unit_vector_cols,
    "linear_modulus": _linear_modulus_cols,
    "linear_modulus_squared": _linear_modulus_squared_cols,
}


def _oracle(family, entry, q, mu):
    """The hand-written columns of a linear_* family, or of its conj_ twin:
    the base's at q*, swapped."""
    if family.startswith("conj_"):
        col_mu, col_mu_conj = LINEAR_ORACLES[family[len("conj_"):]](entry, q.conjugate(), mu)
        return col_mu_conj, col_mu
    return LINEAR_ORACLES[family](entry, q, mu)


def _oracle_residual(derived, oracle):
    return abs(derived - oracle) / (1.0 + abs(oracle))


def test_the_oracle_covers_every_linear_family():
    derived = {name for name in ALL_FAMILIES if "linear_" in name}
    assert derived == set(LINEAR_ORACLES) | {f"conj_{name}" for name in LINEAR_ORACLES}


@pytest.mark.parametrize("family", sorted(
    [*LINEAR_ORACLES, *(f"conj_{name}" for name in LINEAR_ORACLES)]))
def test_derived_linear_columns_meet_the_hand_written_oracle(family):
    # 200 table draws, checked as one batch and then one point at a time.
    count = 200
    entry, q, mu = sample_batch(FAMILIES[family], make_rng(SEED, stream=10), count)
    for derived, oracle in zip(derivative(entry, q, mu), _oracle(family, entry, q, mu)):
        assert _oracle_residual(derived, oracle).max() <= ORACLE_TOL
    points = [Quaternion(*p) for p in q.c.T.tolist()]
    axes = [Quaternion(*m) for m in mu.c.T.tolist()]
    for one, point, axis in zip(tables._unstacked(entry, count), points, axes):
        for derived, oracle in zip(derivative(one, point, axis),
                                   _oracle(family, one, point, axis)):
            assert type(derived.a) is float
            assert _oracle_residual(derived, oracle) <= ORACLE_TOL


# --- the product rule and the real chain rule against hand-written columns -----
#
# tables derives the columns of linear, square, power, exponential, inverse,
# unit_vector, modulus and arctan_arg from the identity's and those of
# real_part, modulus_squared and vector_modulus, by the GHR product rule
# (tables._product) and the real chain rule (tables._real_chain).  Below
# are the columns the table wrote out by hand before, for Quaternion and
# QArray points, and the power rule as the recurrence on its inner sums
# that it ran.  linear, square, modulus, power and exponential keep their
# bits; the others meet them within ORACLE_TOL.


def _hand_linear_cols(e, q, mu):
    nm = e.nu * mu
    return EntryDerivatives(e.omega * nm.a, (e.omega * nm.conjugate()) * -0.5)


def _hand_square_cols(e, q, mu):
    qm = q * mu
    col1 = q * mu.a + type(q).from_real(qm.a)
    col2 = (q * mu.conjugate()) * -0.5 + qm.conjugate() * -0.5
    return EntryDerivatives(col1, col2)


def _hand_inverse_cols(e, q, mu):
    qi = q.inverse()
    col1 = qi * -(qi * mu).a
    col2 = (qi * mu.conjugate() * qi.conjugate()) * 0.5
    return EntryDerivatives(col1, col2)


def _hand_unit_vector_cols(e, q, mu):
    mod = q.modulus()
    mod3 = _by_floats(lambda x: x ** 3, mod)
    col1 = type(q).from_real(mu.a / mod) - (q * mu * q.conjugate()) * (0.25 / mod3)
    col2 = mu.conjugate() * (-0.5 / mod) - (q * mu * q) * (0.25 / mod3)
    return EntryDerivatives(col1, col2)


def _hand_modulus_cols(e, q, mu):
    mod = q.modulus()
    return EntryDerivatives((mu * q.conjugate()) * (0.25 / mod), (mu * q) * (0.25 / mod))


def _hand_arctan_arg_cols(e, q, mu):
    n2 = q.modulus_squared()
    q_hat = q.vector() / q.vector_modulus()
    col1 = (mu * q_hat * q.conjugate()) * (-0.25 / n2)
    col2 = (mu * q_hat * q) * (0.25 / n2)
    return EntryDerivatives(col1, col2)


def _recurrence_power_rule(q, mu, top):
    """For each n = 1..top: S_n and -1/2 C_n, by S_n = q S_(n-1) +
    Re(q^(n-1) mu) and C_n = q C_(n-1) + (q^(n-1) mu)*, from S_1 = Re mu
    and C_1 = mu*."""
    times_q = _times(q)
    times_mu = _times(mu)
    power = type(q).from_real(1.0)
    plain = type(q).from_real(mu.a)
    conj = mu.conjugate()
    yield plain, conj * -0.5
    for _ in range(top - 1):
        power = times_q(power)
        head = times_mu(power)
        plain = q * plain + head.a
        conj = q * conj + head.conjugate()
        yield plain, conj * -0.5


def _by_recurrence(family):
    """The family's columns with the power rule run as the recurrence."""
    def columns(e, q, mu):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tables, "_power_rule", _recurrence_power_rule)
            return FAMILIES[family].columns(e, q, mu)
    return columns


HAND_WRITTEN = {
    "linear": _hand_linear_cols,
    "square": _hand_square_cols,
    "inverse": _hand_inverse_cols,
    "unit_vector": _hand_unit_vector_cols,
    "modulus": _hand_modulus_cols,
    "arctan_arg": _hand_arctan_arg_cols,
    "power": _by_recurrence("power"),
    "exponential": _by_recurrence("exponential"),
}
SAME_BITS = {"linear", "square", "modulus", "power", "exponential"}


def _runs(entry, q, mu):
    """A sample_batch draw as (entry, points, axes) runs of one entry each."""
    runs = tables._batches(entry) if isinstance(entry, list) else [(slice(None), entry)]
    return [(run, QArray(q.c[:, part]), QArray(mu.c[:, part])) for part, run in runs]


def _points(entry, q, mu):
    """A sample_batch draw as (entry, point, axis) one point at a time."""
    entries = entry if isinstance(entry, list) else tables._unstacked(entry, q.c.shape[1])
    return [(one, Quaternion(*point), Quaternion(*axis))
            for one, point, axis in zip(entries, q.c.T.tolist(), mu.c.T.tolist())]


@pytest.mark.parametrize("family", HAND_WRITTEN)
def test_derived_base_columns_meet_the_hand_written_columns(family):
    # 200 table draws, checked as batches and then one point at a time.
    entry, q, mu = sample_batch(FAMILIES[family], make_rng(SEED, stream=14), 200)
    for one, point, axis in _runs(entry, q, mu) + _points(entry, q, mu):
        for derived, oracle in zip(derivative(one, point, axis),
                                   HAND_WRITTEN[family](one, point, axis)):
            if family in SAME_BITS:
                assert _same_bits(np.array(getattr(derived, "c", derived)),
                                  np.array(getattr(oracle, "c", oracle)))
            else:
                assert np.max(_oracle_residual(derived, oracle)) <= ORACLE_TOL


# --- the power rule against its double loop ------------------------------------
#
# tables._power_rule runs the power rule as the product rule on q q^(n-1).
# Below is the rule as the table first computed it, every order re-added
# from zero: the double loop wrote the table's bytes before the recurrence,
# so patched in, next to the hand-written columns above and the chain term
# below, it must still write them, and it holds the derived columns within
# ORACLE_TOL.
#
# tables.affine_input's chain term is the column of the map with omega' =
# col omega, col the base's column at (g, eta).  The table first summed it
# unfolded: col eta^-1 times the columns of (eta omega) q (nu eta^-1).

# sha256 of the table runs' CSV while the double loop computed power and
# exponential, the hand-written columns inverse, unit_vector and arctan_arg,
# and the unfolded chain term every linear_ family's columns
# (tests/test_golden_bytes.py pins the current bytes).
DOUBLE_LOOP_DIGESTS = {
    ("table",): "55e4ebb594bcf0a903c983fe7ed4e2afe513f9e8a8f89292d108e48d2c118829",
    ("table", "--points", "200"):
        "8e78e270b0df60fb8c99f63f3b995ef5b41ad4ef72f7053121fed5405d679c71",
}


def _unfolded_affine_input(name, base):
    """tables.affine_input with each chain term's eta^-1 eta round trip."""
    def terms(entry, g, mu, eta, eta_inv):
        outer = base.columns(entry, g, eta).d_mu_times_mu * eta_inv
        return [outer * column
                for column in tables._linear_map_cols(eta * entry.omega, entry.nu * eta_inv, mu)]

    def columns(entry, q, mu):
        g = tables._linear_inner(entry, q)
        if not isinstance(g, QArray):
            by_column = zip(*(terms(entry, g, mu, eta, eta_inv) for eta, eta_inv in tables._ETAS))
            return EntryDerivatives(*(sum(rest, first) for first, *rest in by_column))
        eta = QArray(tables._STACKED_ETAS.reshape((4, 4) + (1,) * (g.c.ndim - 1)))
        return EntryDerivatives(*(QArray(_add_terms(*np.moveaxis(column.c, 1, 0)))
                                  for column in terms(entry, g, mu, eta, eta.conjugate())))

    return tables.affine_input(name, base)._replace(columns=columns)


def _double_loop_power_rule(q, mu, top):
    """For each n = 1..top: the sum over m of q^(n-m) Re(q^(m-1) mu), and
    -1/2 the sum of q^(n-m) (q^(m-1) mu)*, added from zero in order of m."""
    times_q = _times(q)
    powers = [type(q).from_real(1.0)]
    for _ in range(top - 1):
        powers.append(times_q(powers[-1]))
    times_mu = _times(mu)
    heads = [times_mu(power) for power in powers]
    conj_heads = [head.conjugate() for head in heads]
    for n in range(1, top + 1):
        plain = ZERO
        conj = ZERO
        for m in range(1, n + 1):
            plain = plain + powers[n - m] * heads[m - 1].a
            conj = conj + powers[n - m] * conj_heads[m - 1]
        yield plain, conj * -0.5


@pytest.mark.parametrize("argv", list(DOUBLE_LOOP_DIGESTS), ids=" ".join)
def test_the_double_loop_still_writes_the_old_table_bytes(argv, tmp_path, capsys,
                                                          monkeypatch):
    # Only the power rule, the derived inverse, unit_vector and arctan_arg
    # columns and the folded chain term moved the table's bytes; the conj_
    # and linear_ twins are rebuilt from the hand-written bases with the
    # unfolded chain term.
    monkeypatch.setattr(tables, "_power_rule", _double_loop_power_rule)
    for name in ("square", "inverse", "real_part", "unit_vector", "arctan_arg", "modulus",
                 "modulus_squared"):
        base = FAMILIES[name]
        if name in ("inverse", "unit_vector", "arctan_arg"):
            base = base._replace(columns=HAND_WRITTEN[name])
        linear = _unfolded_affine_input(f"linear_{name}", base)
        for spec in (base, tables.conj_input(f"conj_{name}", base), linear,
                     tables.conj_input(f"conj_linear_{name}", linear)):
            if spec.name in FAMILIES:
                monkeypatch.setitem(FAMILIES, spec.name, spec)
    path = golden_run(argv, tmp_path, capsys, monkeypatch)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DOUBLE_LOOP_DIGESTS[argv]


# The counts each family's columns are held to the double loop at: power's
# n and the exponential's number of terms, DEFAULT_EXP_TERMS.
COUNTS = {"n": range(1, 9), "terms": range(1, 61)}


def _power_rule_columns(entry, count, q, mu, monkeypatch):
    """The entry's columns at each count, by the recurrence and by the
    double loop; the double loop's orders do not depend on top, so its
    sums run once, up to the largest count."""
    def at(k):
        if count == "n":
            return derivative(entry._replace(n=k), q, mu)
        with monkeypatch.context() as patch:
            patch.setattr(tables, "DEFAULT_EXP_TERMS", k)
            return derivative(entry, q, mu)

    recurrence = [at(k) for k in COUNTS[count]]
    orders = list(_double_loop_power_rule(q, mu, max(COUNTS[count])))
    with monkeypatch.context() as patch:
        patch.setattr(tables, "_power_rule", lambda q, mu, top: iter(orders[:top]))
        return zip(COUNTS[count], recurrence, [at(k) for k in COUNTS[count]])


@pytest.mark.parametrize("family,count", [("power", "n"), ("exponential", "terms")])
def test_power_rule_recurrence_meets_the_double_loop(family, count, monkeypatch):
    # 100 table draws as one batch, and 10 of them one point at a time.
    entry, q, mu = sample_batch(FAMILIES[family], make_rng(SEED, stream=11), 100)
    entry = entry[0] if isinstance(entry, list) else entry
    for k, new, old in _power_rule_columns(entry, count, q, mu, monkeypatch):
        for derived, oracle in zip(new, old):
            assert _oracle_residual(derived, oracle).max() <= ORACLE_TOL, k
    for point, axis in zip(q.c.T.tolist()[:10], mu.c.T.tolist()[:10]):
        for k, new, old in _power_rule_columns(entry, count, Quaternion(*point),
                                               Quaternion(*axis), monkeypatch):
            for derived, oracle in zip(new, old):
                assert type(derived.a) is float
                assert _oracle_residual(derived, oracle) <= ORACLE_TOL, k


# --- every axis from the axes 1, i and j, by the GHR definition ----------------
#
# By the definition, d f / d q^mu = 1/4 (f_a - sum over x of f_x mu e_x mu^-1),
# f_a ... f_d the real partials and e_x = i, j, k, and d f / d q^(mu*) is
# the same with +.  So the columns, times mu, are 1/4 (f_a mu -+ S(mu)),
# S(mu) the sum of f_x mu e_x, and the columns at 1, i and j give all four
# partials: f_a = 2 (c1 + c2) at 1, and the differences 2 (c2 - c1) there
# are S(1) = f_b i + f_c j + f_d k, S(i) = -f_b + f_c k - f_d j and
# S(j) = -f_b k - f_c + f_d i.  A family's columns at any other axis then
# follow from its own columns, with no stencil and no tolerance above
# rounding.  Its blind spot: a wrong pair of columns that is the GHR pair
# of some other real Jacobian passes.

AXIS_TOL = 1e-13


def _predicted_at(columns, mu):
    """The columns at mu that the definition predicts from columns(unit)
    at the units 1, i and j."""
    (one1, one2), (i1, i2), (j1, j2) = (columns(unit) for unit in (ONE, I, J))
    f_a = (one1 + one2) * 2.0
    s_1, s_i, s_j = ((c2 - c1) * 2.0 for c1, c2 in ((one1, one2), (i1, i2), (j1, j2)))
    f_b = (s_i + s_1 * I) * -0.5
    f_c = (s_j + s_1 * J) * -0.5
    f_d = (s_1 - f_b * I - f_c * J) * -K
    plain = f_a * mu
    spin = f_b * mu * I + f_c * mu * J + f_d * mu * K
    return (plain - spin) * 0.25, (plain + spin) * 0.25


def _unit_at_each(unit, axes):
    """The unit as one axis, or as one per point of a QArray of axes."""
    if isinstance(axes, Quaternion):
        return unit
    return QArray(np.outer(unit, np.ones(axes.c.shape[1])))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_axis_is_predicted_exactly_from_the_axes_1_i_j(family):
    # 200 table draws on the batched path, and 5 of them one point at a time.
    entry, q, mu = sample_batch(FAMILIES[family], make_rng(SEED, stream=13), 200)
    for one, point, axis in _runs(entry, q, mu) + _points(entry, q, mu)[:5]:
        predicted = _predicted_at(
            lambda unit: derivative(one, point, _unit_at_each(unit, axis)), axis)
        for derived, oracle in zip(derivative(one, point, axis), predicted):
            assert np.max(_oracle_residual(derived, oracle)) <= AXIS_TOL


def test_power_rule_keeps_the_double_loops_bits_up_to_the_square(monkeypatch):
    # Up to n = 2 the two orders of summation add the same terms.
    entry, q, mu = sample_batch(FAMILIES["power"], make_rng(SEED, stream=12), 50)
    for k, new, old in _power_rule_columns(entry[0], "n", q, mu, monkeypatch):
        if k <= 2:
            for derived, oracle in zip(new, old):
                assert _same_bits(derived.c, oracle.c), k


# --- batched cross-validation ------------------------------------------------

def _draws(spec, rng, count):
    """count (entry, q, mu) triples in the table command's draw order, one
    point at a time."""
    draws = []
    for _ in range(count):
        entry = spec.sample_entry(rng)
        q = spec.sample_point(entry, rng)
        draws.append((entry, q, random_quaternion(rng, -2.0, 2.0,
                                                  min_modulus=tables.AXIS_MODULUS)))
    return draws


def _stacked(draws):
    entries, qs, mus = zip(*draws)
    return entries, QArray(list(zip(*qs))), QArray(list(zip(*mus)))


def _stacked_entry(entries):
    """One entry for a run of one family, its coefficients stacked."""
    return entries[0]._replace(**{
        name: QArray(list(zip(*(getattr(e, name) for e in entries))))
        for name in ("omega", "nu", "lam") if getattr(entries[0], name) is not None})


def _hex(value):
    """A one-point field, a Quaternion or a float, as float.hex strings."""
    return [x.hex() for x in (value if isinstance(value, Quaternion) else (value,))]


def _column_hex(field):
    """A batched field, a QArray or an array of floats, point by point as
    float.hex strings."""
    rows = field.c.T.tolist() if isinstance(field, QArray) else [[x] for x in field.tolist()]
    return [[x.hex() for x in row] for row in rows]


def _forms(entries):
    """The batch's entries as a sequence and, when they are one family with
    one count n, as one entry with stacked coefficients."""
    if len({(e.family, e.n) for e in entries}) > 1 or any(
            not isinstance(getattr(e, name), Quaternion) for e in entries
            for name in ("omega", "nu", "lam") if getattr(entries[0], name) is not None):
        return [entries]
    return [entries, _stacked_entry(entries)]


def _assert_batch_matches_points(draws):
    entries, q, mu = _stacked(draws)
    checks = [cross_validate(*draw) for draw in draws]
    for form in _forms(entries):
        batch = cross_validate(form, q, mu)
        assert batch.closed_mu.c.shape == (4, len(draws))
        for k, field in enumerate(batch):
            assert _column_hex(field) == [_hex(check[k]) for check in checks], \
                batch._fields[k]


@pytest.mark.parametrize("seed", [1, 11, 36])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_batched_cross_validate_matches_one_point_calls_bitwise(family, seed):
    spec = next(s for s in catalogue() if s.name == family)
    _assert_batch_matches_points(_draws(spec, make_rng(seed), 12))


def test_batch_with_mixed_counts_and_families_stays_exact():
    rng = make_rng(SEED, stream=6)
    points = [random_quaternion(rng, -1.5, 1.5) for _ in range(10)]
    mus = [random_quaternion(rng, min_modulus=0.1) for _ in range(10)]
    ns = [2, 5, 3, 2, 4, 5, 1, 3, 2, 4]
    powers = [TableEntry("power", n=n) for n in ns]
    for entries in (powers, powers[:5] + [TableEntry("exponential")] * 5):
        _assert_batch_matches_points(list(zip(entries, points, mus)))
    with pytest.raises(ValueError, match="one entry and one axis per point"):
        cross_validate(powers[:9], *_stacked(list(zip(powers, points, mus)))[1:])


def test_function_of_entries_evaluates_each_points_own_entry_bitwise():
    # Every family in one sequence, in catalogue order and then reversed,
    # each with two draws, evaluated on the points and on their stencils.
    rng = make_rng(SEED, stream=9)
    draws = [draw for spec in catalogue() for draw in _draws(spec, rng, 2)]
    for ordered in (draws, draws[::-1]):
        entries, q, _ = _stacked(ordered)
        fn = as_function(entries)
        stencil = QArray(derivatives._stencil_array(q.c, DEFAULT_H))
        for points in (q, stencil):
            values = fn(points).c
            for k, entry in enumerate(entries):
                one = as_function(entry)
                at_points = [Quaternion(*p) for p in points.c[..., k].reshape(4, -1).T.tolist()]
                assert [[x.hex() for x in v] for v in values[..., k].reshape(4, -1).T.tolist()] \
                    == [_hex(one(p)) for p in at_points]


@pytest.mark.parametrize("family", ["square", "linear_square"])
def test_a_batch_reads_a_table_entry_as_one_entry_not_as_its_fields(family):
    # A TableEntry is a tuple of its fields.  At as many points as it has
    # fields, reading it as a sequence of entries would pass the size check.
    rng = make_rng(SEED, stream=11)
    draws = _draws(FAMILIES[family], rng, len(TableEntry._fields))
    entries, q, _ = _stacked(draws)
    entry = _stacked_entry(entries)
    assert _column_hex(as_function(entry)(q)) == [_hex(as_function(e)(p)) for e, p, _ in draws]
    _assert_batch_matches_points(draws)


def test_one_point_calls_stay_on_python_floats():
    rng = make_rng(SEED, stream=8)
    for spec in catalogue():
        entry, q, mu = _draws(spec, rng, 1)[0]
        check = cross_validate(entry, q, mu)
        values = [x for field in check[:4] for x in field] + list(check[4:])
        values += list(eval_entry(entry, q))
        assert all(type(x) is float for x in values), spec.name


def _first_error(draws):
    """The exception type and message of the first failing one-point call."""
    for draw in draws:
        try:
            cross_validate(*draw)
        except ValueError as exc:
            return type(exc), str(exc)
    raise AssertionError("no point fails")


def _sample(name, count, seed=3):
    spec = next(s for s in catalogue() if s.name == name)
    return _draws(spec, make_rng(seed), count)


def _with(draws, k, **fields):
    entry, q, mu = draws[k]
    draws[k] = (entry._replace(**fields.get("entry", {})), fields.get("q", q),
                fields.get("mu", mu))
    return draws


@pytest.mark.parametrize("case", [
    # An out-of-domain point, then a later one.
    lambda: _with(_with(_sample("inverse", 6), 2, q=ZERO), 4, q=ZERO),
    lambda: _with(_sample("conj_linear_unit_vector", 6), 3, q=ZERO,
                  entry={"lam": ZERO}),
    # A zero axis before an out-of-domain point, and after one: the batch
    # checks the axes first.
    lambda: _with(_with(_sample("unit_vector", 6), 1, mu=ZERO), 4, q=ZERO),
    lambda: _with(_with(_sample("inverse", 6), 2, q=ZERO), 4, mu=ZERO),
    # An axis too short to rotate by.
    lambda: _with(_sample("square", 6), 2, mu=Quaternion(1e-12, 0.0, 0.0, 0.0)),
    # Bad parameters: a count, a missing and an ill-typed coefficient.  The
    # cases above are one family each, so they also run on a stacked entry.
    lambda: _with(_with(_sample("power", 6), 3, entry={"n": 0}), 5, entry={"n": 2.5}),
    lambda: _with(_sample("linear_square", 6), 4, entry={"omega": None}),
    lambda: _with(_sample("power", 4), 1, entry={"n": "3"}),
], ids=["domain", "conj-domain", "zero-mu", "domain-then-zero-mu", "degenerate-mu",
        "count", "missing-coefficient", "ill-typed-count"])
def test_batch_raises_the_first_bad_points_error(case):
    draws = case()
    kind, message = _first_error(draws)
    entries, q, mu = _stacked(draws)
    for form in _forms(entries):
        with pytest.raises(kind) as caught:
            cross_validate(form, q, mu)
        assert type(caught.value) is kind and str(caught.value) == message


def test_batch_names_the_first_non_finite_stencil_point():
    draws = _sample("square", 5)
    huge = Quaternion(1e200, -1e200, 0.5, 0.5)
    _with(_with(draws, 2, q=huge), 4, q=huge * 2.0)
    kind, message = _first_error(draws)
    assert kind is EvaluationError
    entries, q, mu = _stacked(draws)
    for form in _forms(entries):
        with pytest.raises(EvaluationError) as caught:
            cross_validate(form, q, mu)
        assert str(caught.value) == message
        assert caught.value.point[0] == huge[0] + DEFAULT_H


def test_stacked_batch_checks_its_coefficients_and_sizes():
    entries, q, mu = _stacked(_sample("linear", 4))
    entry = _stacked_entry(entries)
    with pytest.raises(ValueError, match=r"^linear: omega must be a Quaternion, got None$"):
        cross_validate(entry._replace(omega=None), q, mu)
    short = entry._replace(nu=QArray(entry.nu.c[:, :3]))
    with pytest.raises(ValueError, match="one entry and one axis per point"):
        cross_validate(short, q, mu)


# --- bulk draws ---------------------------------------------------------------

def _assert_bulk_draws_match_one_point_draws(spec, seed, count):
    bulk_rng, point_rng = make_rng(seed), make_rng(seed)
    entry, q, mu = sample_batch(spec, bulk_rng, count)
    draws = _draws(spec, point_rng, count)
    assert q.c.shape == mu.c.shape == (4, count)
    entries = entry if isinstance(entry, list) else tables._unstacked(entry, count)
    assert entries == [draw[0] for draw in draws]
    for k, (one_entry, one_q, one_mu) in enumerate(draws):
        for name in ("omega", "nu", "lam"):
            if getattr(one_entry, name) is not None:
                assert _hex(getattr(entries[k], name)) == _hex(getattr(one_entry, name))
    assert _column_hex(q) == [_hex(draw[1]) for draw in draws]
    assert _column_hex(mu) == [_hex(draw[2]) for draw in draws]
    # Both generators stand at the same place, for doubles and for integers.
    assert bulk_rng.random(3).tolist() == point_rng.random(3).tolist()
    assert bulk_rng.integers(2, 6) == point_rng.integers(2, 6)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_bulk_draws_are_the_one_point_draws_bitwise(family):
    for seed in (1, 20240501, 77):
        for count in (1, 7, 200):
            _assert_bulk_draws_match_one_point_draws(FAMILIES[family], seed, count)


def _at_least_two(entry, q):
    return q.modulus() >= 2.0


@pytest.mark.parametrize("family", ["linear", "conj_linear_inverse", "square",
                                    "unit_pure_axis", "exponential", "power"])
@pytest.mark.parametrize("rejects", ["point", "axis"])
def test_bulk_draws_replay_rejections_bitwise(family, rejects, monkeypatch):
    # About a third of [-2, 2]^4 lies inside |x| < 2, so most batches of 200
    # take the replay several times.
    spec = FAMILIES[family]
    if rejects == "point":
        spec = spec._replace(admissible=_at_least_two)
    else:
        monkeypatch.setattr(tables, "AXIS_MODULUS", 2.0)
    replays = []
    sample_one = tables.sample_one
    monkeypatch.setattr(tables, "sample_one",
                        lambda *args: replays.append(1) or sample_one(*args))
    for seed in (1, 20240501, 77):
        for count in (1, 7, 200):
            _assert_bulk_draws_match_one_point_draws(spec, seed, count)
    total = 3 * (1 + 7 + 200)
    # power draws every point with sample_one, the others only the rejected ones.
    assert len(replays) == total if family == "power" else 0 < len(replays) < total


def test_an_unreachable_point_exhausts_the_sampling_draw_budget():
    # omega = 0 puts every point on the singular set of (omega q nu + lam)^-1.
    # This raised a RuntimeError after a budget of its own, which the CLI
    # would not turn into a usage error.
    entry = TableEntry("linear_inverse", omega=ZERO, nu=ONE, lam=ZERO)
    tries = []
    spec = FAMILIES["linear_inverse"]
    counting = spec._replace(admissible=lambda e, q: tries.append(q) or spec.admissible(e, q))
    with pytest.raises(ValueError, match="linear_inverse in 1000 tries"):
        counting.sample_point(entry, make_rng(1))
    assert len(tries) == sampling.MAX_DRAWS == 1000
