"""Numerical HR/GHR engine: golden values, calculus rules, second order."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quatcalc import cli, derivatives, tables, theorems
from quatcalc.derivatives import (DEFAULT_H2, HR_AXES, DegenerateAxisError,
                                  EvaluationError, check_chain_rule,
                                  check_product_rule, conjugation_relation,
                                  differential_consistency, ghr_from_partials,
                                  has_array_form, hr_from_partials, left_ghr,
                                  left_hr, left_hr_batch, real_partials,
                                  right_ghr, right_hr, second_order,
                                  second_order_left, second_order_right)
from quatcalc.quaternion import (AXES, I, J, K, ONE, UNITS, ZERO, QArray,
                                 Quaternion, involute, involute_conj, isclose,
                                 rotate)
from quatcalc.sampling import make_rng, random_quaternion
from quatcalc.theorems import taylor2_left

SEED = 20240229


def f_sq(p):
    return p * p


def f_conj(p):
    return p.conjugate()


def f_mod2(p):
    return Quaternion.from_real(p.modulus_squared())


def f_cross(p):
    return Quaternion.from_real(p.b * p.c)


def f_exp(p, terms=30):
    total = ONE
    term = ONE
    for n in range(1, terms + 1):
        term = term * p / n
        total = total + term
    return total


def test_real_partials_oracle():
    parts = real_partials(f_sq, I)
    assert isclose(parts.d_qa, 2.0 * I, abs_tol=1e-9)
    assert isclose(parts.d_qb, Quaternion(-2.0, 0.0, 0.0, 0.0), abs_tol=1e-9)
    assert isclose(parts.d_qc, ZERO, abs_tol=1e-9)
    assert isclose(parts.d_qd, ZERO, abs_tol=1e-9)
    assert parts == (parts.d_qa, parts.d_qb, parts.d_qc, parts.d_qd)


@pytest.mark.parametrize("module", [derivatives, theorems, tables],
                         ids=lambda m: m.__name__)
def test_difference_steps_are_not_parameters(module):
    # The steps are the engine's constants DEFAULT_H and DEFAULT_H2.
    stepped = []
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        stepped += [f"{name}({p})" for p in params if p in ("h", "h2")]
    assert stepped == []


def test_evaluation_error_carries_point():
    def blows_up(p):
        return Quaternion(math.inf, 0.0, 0.0, 0.0)

    with pytest.raises(EvaluationError, match="not finite") as info:
        real_partials(blows_up, ONE)
    assert info.value.point is not None


def test_identity_function_golden():
    rng = make_rng(SEED)
    for _ in range(20):
        q = random_quaternion(rng)
        ds = left_hr(lambda p: p, q)
        assert isclose(ds.wrt_q, ONE, abs_tol=1e-9)
        assert isclose(ds.wrt_qc, Quaternion(-0.5, 0.0, 0.0, 0.0), abs_tol=1e-9)
        # d q/d q^(eta*) = (-eta*/2) eta^-1 = +1/2 on the imaginary axes.
        for axis in ("i", "j", "k"):
            assert abs(ds.wrt(axis)) < 1e-9
            assert isclose(ds.wrt(axis, conj=True),
                           Quaternion(0.5, 0.0, 0.0, 0.0), abs_tol=1e-9)


def test_square_and_conjugate_golden():
    rng = make_rng(SEED, stream=1)
    for _ in range(20):
        q = random_quaternion(rng)
        assert isclose(left_hr(f_sq, q).wrt_q, q + q.a, abs_tol=1e-8)
        assert isclose(left_hr(f_conj, q).wrt_q,
                       Quaternion(-0.5, 0.0, 0.0, 0.0), abs_tol=1e-9)
        assert isclose(left_hr(f_mod2, q).wrt_q, q.conjugate() * 0.5,
                       abs_tol=1e-8)
        assert isclose(left_hr(f_mod2, q).wrt_qc, q * 0.5, abs_tol=1e-8)


def test_right_flavor_identity():
    rng = make_rng(SEED, stream=2)
    q = random_quaternion(rng)
    ds = right_hr(lambda p: p, q)
    assert isclose(ds.wrt_q, ONE, abs_tol=1e-9)
    ds = right_hr(f_conj, q)
    assert isclose(ds.wrt_q, Quaternion(-0.5, 0.0, 0.0, 0.0), abs_tol=1e-9)


def test_flavors_differ_for_nonreal_functions():
    # f(p) = i p j: d f/d q^i is 0 on the left but k on the right.
    sandwich = lambda p: I * p * J
    q = Quaternion(0.3, -0.7, 1.1, 0.4)
    left = left_hr(sandwich, q).wrt_qi
    right = right_hr(sandwich, q).wrt_qi
    assert abs(left) < 1e-9
    assert isclose(right, K, abs_tol=1e-9)


def test_flavors_agree_for_real_functions():
    rng = make_rng(SEED, stream=3)
    for _ in range(20):
        q = random_quaternion(rng)
        left = left_hr(f_mod2, q)
        right = right_hr(f_mod2, q)
        for axis in AXES:
            for conj in (False, True):
                assert abs(left.wrt(axis, conj) - right.wrt(axis, conj)) < 1e-12


# The paper's sign patterns for the eight HR derivatives, applied to
# (f_a, f_b i, f_c j, f_d k); the engine derives them as GHR at unit axes.
HR_SIGNS = {
    ("1", False): (1, -1, -1, -1),
    ("i", False): (1, -1, 1, 1),
    ("j", False): (1, 1, -1, 1),
    ("k", False): (1, 1, 1, -1),
    ("1", True): (1, 1, 1, 1),
    ("i", True): (1, 1, -1, -1),
    ("j", True): (1, -1, 1, -1),
    ("k", True): (1, -1, -1, 1),
}


def hr_from_signs(parts, signs, flavor):
    fa, fb, fc, fd = parts
    if flavor == "left":
        fi, fj, fk = fb * I, fc * J, fd * K
    else:
        fi, fj, fk = I * fb, J * fc, K * fd
    return (fa * signs[0] + fi * signs[1] + fj * signs[2] + fk * signs[3]) * 0.25


def test_hr_matches_sign_table():
    rng = make_rng(SEED, stream=15)
    omega, nu = Quaternion(0.3, -0.8, 0.5, 1.1), Quaternion(-0.6, 0.2, 0.9, -0.4)
    linear = lambda p: omega * p * nu + ONE
    functions = (lambda p: p, f_conj, f_sq, f_mod2, lambda p: I * p * J, linear)
    for _ in range(20):
        q = random_quaternion(rng)
        for f in functions:
            parts = real_partials(f, q)
            for flavor, hr in (("left", left_hr), ("right", right_hr)):
                ds = hr(f, q)
                assert ds.flavor == flavor
                for (axis, conj), signs in HR_SIGNS.items():
                    expected = hr_from_signs(parts, signs, flavor)
                    assert abs(ds.wrt(axis, conj) - expected) <= 1e-15


def test_ghr_reduces_to_hr_at_unit_axis():
    rng = make_rng(SEED, stream=4)
    for _ in range(20):
        q = random_quaternion(rng)
        pair = left_ghr(f_sq, q, ONE)
        ds = left_hr(f_sq, q)
        assert abs(pair.d_mu - ds.wrt_q) == 0.0
        assert abs(pair.d_mu_conj - ds.wrt_qc) == 0.0


def test_ghr_rejects_degenerate_axis():
    with pytest.raises(DegenerateAxisError):
        left_ghr(f_sq, ONE, ZERO)
    with pytest.raises(DegenerateAxisError):
        right_ghr(f_sq, ONE, Quaternion(0.0, 1e-12, 0.0, 0.0))


def test_ghr_identity_columns():
    # d q/d q^mu * mu = Re(mu) and d q/d q^(mu*) * mu = -mu*/2 for any axis.
    rng = make_rng(SEED, stream=5)
    for _ in range(20):
        q = random_quaternion(rng)
        mu = random_quaternion(rng, min_modulus=0.1)
        pair = left_ghr(lambda p: p, q, mu)
        assert isclose(pair.d_mu * mu, Quaternion.from_real(mu.a), abs_tol=1e-8)
        assert isclose(pair.d_mu_conj * mu, mu.conjugate() * -0.5, abs_tol=1e-8)


def test_ghr_rotation_transport():
    # (d f/d q^mu)^nu = d f^nu / d q^(nu mu)
    rng = make_rng(SEED, stream=6)
    for _ in range(10):
        q = random_quaternion(rng)
        mu = random_quaternion(rng, min_modulus=0.1)
        nu = random_quaternion(rng, min_modulus=0.1)
        lhs = rotate(left_ghr(f_sq, q, mu).d_mu, nu)
        rhs = left_ghr(lambda p: rotate(f_sq(p), nu), q, nu * mu).d_mu
        assert abs(lhs - rhs) < 1e-7


def test_product_rule():
    rng = make_rng(SEED, stream=7)
    for _ in range(20):
        q = random_quaternion(rng, min_modulus=0.1)
        mu = random_quaternion(rng, min_modulus=0.1)
        assert check_product_rule(f_sq, lambda p: p, q, mu) < 1e-6
        assert check_product_rule(f_conj, f_exp, q, mu) < 1e-5
        assert check_product_rule(f_sq, f_conj, q, mu, conjugate=True) < 1e-5


def test_product_rule_degenerate_axis():
    q = Quaternion(0.4, 0.1, -0.2, 0.3)
    vanishing = lambda p: p - q
    with pytest.raises(DegenerateAxisError, match="degenerate rotation axis"):
        check_product_rule(f_sq, vanishing, q, I)


def test_chain_rule():
    rng = make_rng(SEED, stream=8)
    linear = lambda p: Quaternion(0.3, 0.5, -0.2, 0.1) * p + ONE
    for _ in range(10):
        q = random_quaternion(rng)
        mu = random_quaternion(rng, min_modulus=0.1)
        nu = random_quaternion(rng, min_modulus=0.1)
        assert check_chain_rule(f_sq, linear, q, mu, nu) < 1e-6
        assert check_chain_rule(f_exp, linear, q, mu, nu, conjugate=True) < 1e-5


def test_chain_rule_any_intermediate_axis():
    # The eta sum telescopes identically for every nonzero nu.
    q = Quaternion(0.2, -0.6, 0.3, 0.9)
    mu = Quaternion(1.0, 0.5, -0.3, 0.2)
    linear = lambda p: p * Quaternion(0.2, -0.4, 0.7, 0.1)
    for nu in (ONE, I, Quaternion(0.3, 1.2, -0.8, 0.5)):
        assert check_chain_rule(f_sq, linear, q, mu, nu) < 1e-6


def test_chain_rule_degenerate_axis():
    with pytest.raises(DegenerateAxisError):
        check_chain_rule(f_sq, f_sq, ONE, ZERO, I)
    with pytest.raises(DegenerateAxisError):
        check_chain_rule(f_sq, f_sq, ONE, I, ZERO)


def test_conjugation_relations():
    rng = make_rng(SEED, stream=9)
    for _ in range(10):
        q = random_quaternion(rng)
        mu = random_quaternion(rng, min_modulus=0.1)
        assert conjugation_relation(f_sq, q, mu) < 1e-12
        assert conjugation_relation(f_exp, q, mu) < 1e-12


def test_differential_consistency_quarters():
    rng = make_rng(SEED, stream=10)
    for _ in range(10):
        q = random_quaternion(rng)
        dq = random_quaternion(rng) * 1e-3
        e1 = differential_consistency(f_sq, q, dq)
        e2 = differential_consistency(f_sq, q, dq * 0.5)
        assert e1 < 1e-5
        if e1 > 1e-12:
            assert e1 / e2 == pytest.approx(4.0, rel=0.05)


def test_second_order_laplacian():
    rng = make_rng(SEED, stream=11)
    for _ in range(10):
        q = random_quaternion(rng)
        mu = random_quaternion(rng, min_modulus=0.1)
        mixed = second_order_left(f_mod2, q, mu, mu).mu_nu_conj
        assert isclose(mixed * 16.0, Quaternion.from_real(8.0), abs_tol=1e-2)


def test_mixed_derivatives_do_not_commute():
    rng = make_rng(SEED, stream=12)
    q = random_quaternion(rng)
    one_i = second_order_left(f_cross, q, ONE, I).mu_nu
    i_one = second_order_left(f_cross, q, I, ONE).mu_nu
    assert isclose(one_i, K * 0.125, abs_tol=1e-3)
    assert isclose(i_one, K * -0.125, abs_tol=1e-3)
    assert abs(one_i - i_one) == pytest.approx(0.25, abs=1e-3)


def test_square_mixed_derivatives_commute():
    # q^2 is the exception: every mixed pair agrees, here (i, j) both -1/4.
    rng = make_rng(SEED, stream=13)
    q = random_quaternion(rng)
    ij = second_order_left(f_sq, q, I, J).mu_nu
    ji = second_order_left(f_sq, q, J, I).mu_nu
    assert isclose(ij, Quaternion(-0.25, 0.0, 0.0, 0.0), abs_tol=1e-3)
    assert abs(ij - ji) < 1e-3


def test_left_hr_of_involved_arguments():
    # d q^i / d q^i = 1: the involution seen through its own variable.
    rng = make_rng(SEED, stream=14)
    q = random_quaternion(rng)
    ds = left_hr(lambda p: involute(p, "i"), q)
    assert isclose(ds.wrt_qi, ONE, abs_tol=1e-9)
    assert abs(ds.wrt_q) < 1e-9


# Reference forms: every derivative of every field is its own left_ghr,
# right_ghr or left_hr call, with its own partials.  The checks and nested
# derivatives that share one stencil per function must match them bit for bit.

def _bits(*values) -> tuple[str, ...]:
    out = []
    for value in values:
        out.extend(x.hex() for x in (value if isinstance(value, tuple) else (value,)))
    return tuple(out)


def _outer_partials(g, q):
    """The four real partials of g at q with the outer step DEFAULT_H2."""
    points, inv = derivatives._stencil(q, DEFAULT_H2)
    return [(g(plus) - g(minus)) * inv for plus, minus in points]


def _nested_oracle(outer, inner_ghr, f, q, mu, nu):
    inner = lambda p: inner_ghr(f, p, nu)
    plain = ghr_from_partials(_outer_partials(lambda p: inner(p).d_mu, q), mu, outer)
    conj = ghr_from_partials(_outer_partials(lambda p: inner(p).d_mu_conj, q), mu, outer)
    return plain.d_mu, conj.d_mu, plain.d_mu_conj, conj.d_mu_conj


def _as_tuple(s):
    return s.mu_nu, s.mu_nu_conj, s.mu_conj_nu, s.mu_conj_nu_conj


def _conjugation_oracle(f, q, mu):
    fc = lambda p: f(p).conjugate()
    left_f, right_f = left_ghr(f, q, mu), right_ghr(f, q, mu)
    left_fc, right_fc = left_ghr(fc, q, mu), right_ghr(fc, q, mu)
    return max(abs(right_f.d_mu - left_fc.d_mu_conj.conjugate()),
               abs(right_f.d_mu_conj - left_fc.d_mu.conjugate()),
               abs(left_f.d_mu - right_fc.d_mu_conj.conjugate()),
               abs(left_f.d_mu_conj - right_fc.d_mu.conjugate()))


def _product_oracle(f, g, q, mu, conjugate):
    gq, fq = g(q), f(q)
    lhs = left_ghr(lambda p: f(p) * g(p), q, mu)
    dg = left_ghr(g, q, mu)
    df_shift = left_ghr(f, q, gq * mu)
    if conjugate:
        return abs(lhs.d_mu_conj - (fq * dg.d_mu_conj + df_shift.d_mu_conj * gq))
    return abs(lhs.d_mu - (fq * dg.d_mu + df_shift.d_mu * gq))


def _chain_oracle(f, g, q, mu, nu, conjugate):
    s = g(q)
    lhs = left_ghr(lambda p: f(g(p)), q, mu)
    total = ZERO
    for eta in AXES:
        axis = nu * UNITS[eta]
        inner = left_ghr(f, s, axis).d_mu
        outer = left_ghr(lambda p, ax=axis: rotate(g(p), ax), q, mu)
        total = total + inner * (outer.d_mu_conj if conjugate else outer.d_mu)
    return abs((lhs.d_mu_conj if conjugate else lhs.d_mu) - total)


def _taylor_oracle(f, q0, lam, center):
    total = f(q0)
    first = left_hr(f, q0)
    for mu in AXES:
        total = total + first.wrt(mu) * involute(lam, mu)
    half = ZERO
    for mu in AXES:
        inner = lambda p, _mu=mu: left_hr(f, p).wrt(_mu, conj=center)
        outer = hr_from_partials(_outer_partials(inner, q0), "left")
        for nu in AXES:
            second = outer.wrt(nu)
            if center:
                half = half + involute_conj(lam, mu) * second * involute(lam, nu)
            else:
                half = half + second * involute(lam, nu) * involute(lam, mu)
    return total + half * 0.5


def test_shared_stencils_match_separate_derivatives_bitwise():
    rng = make_rng(SEED, stream=20)
    linear = lambda p: Quaternion(0.3, 0.5, -0.2, 0.1) * p + ONE
    for idx in range(20):
        q = random_quaternion(rng, min_modulus=0.1)
        mu = random_quaternion(rng, min_modulus=0.1)
        nu = random_quaternion(rng, min_modulus=0.1)
        f = (f_sq, f_exp, f_mod2, f_cross)[idx % 4]
        conjugate = idx % 2 == 1
        assert _bits(conjugation_relation(f, q, mu)) == _bits(_conjugation_oracle(f, q, mu))
        assert _bits(check_product_rule(f, f_conj, q, mu, conjugate=conjugate)) \
            == _bits(_product_oracle(f, f_conj, q, mu, conjugate))
        for conj in (False, True):
            assert _bits(check_chain_rule(f, linear, q, mu, nu, conjugate=conj)) \
                == _bits(_chain_oracle(f, linear, q, mu, nu, conj))
        assert _bits(*_as_tuple(second_order_left(f, q, mu, nu))) \
            == _bits(*_nested_oracle("left", left_ghr, f, q, mu, nu))
        assert _bits(*_as_tuple(second_order_right(f, q, mu, nu))) \
            == _bits(*_nested_oracle("right", right_ghr, f, q, mu, nu))
        mixed = second_order(f, q, (mu,), (nu,), outer="right", inner="left")[0][0]
        assert _bits(*_as_tuple(mixed)) \
            == _bits(*_nested_oracle("right", left_ghr, f, q, mu, nu))
        # Every entry of a grid equals its own single-pair derivative.
        grid = second_order(f, q, (mu, nu, I), (nu, ONE))
        for m, outer in enumerate((mu, nu, I)):
            for n, inner in enumerate((nu, ONE)):
                assert _bits(*_as_tuple(grid[m][n])) \
                    == _bits(*_as_tuple(second_order_left(f, q, outer, inner)))
        lam = random_quaternion(rng) * 0.1
        assert _bits(*taylor2_left(f, q, lam, center=conjugate)) \
            == _bits(*_taylor_oracle(f, q, lam, conjugate))


def _evaluations(monkeypatch, run) -> int:
    calls = []
    evaluate = derivatives._evaluate
    with monkeypatch.context() as patch:
        patch.setattr(derivatives, "_evaluate",
                      lambda f, p: calls.append(p) or evaluate(f, p))
        run()
    return len(calls)


def test_each_check_evaluates_each_function_once_per_point(monkeypatch):
    q = Quaternion(0.3, -0.7, 1.1, 0.2)
    mu = Quaternion(0.5, 0.2, -0.4, 0.9)
    nu = Quaternion(-0.3, 0.8, 0.1, 0.4)
    linear = lambda p: mu * p + nu
    count = lambda run: _evaluations(monkeypatch, run)
    # f's eight stencil values; f* is its conjugate.
    assert count(lambda: conjugation_relation(f_sq, q, mu)) == 8
    # f(q), g(q) and one f and one g value per stencil point.
    assert count(lambda: check_product_rule(f_sq, linear, q, mu)) == 18
    # g(q), f's partials at g(q), and one g and one f(g) value per point.
    assert count(lambda: check_chain_rule(f_sq, linear, q, mu, nu)) == 25
    assert count(lambda: check_chain_rule(f_sq, linear, q, mu, nu,
                                          conjugate=True)) == 25
    # Eight partials of f at each of the eight outer stencil points, for any
    # number of axes and both flavors.
    assert count(lambda: second_order_left(f_mod2, q, mu, nu)) == 64
    assert count(lambda: second_order(f_mod2, q, HR_AXES, HR_AXES, outer="right")) == 64


# The built-in functions that carry an array form: cli's square and |q|^2,
# and the exponential table family.
BUILT_IN_ARRAY_FORMS = (
    ("cli_square", cli._mvt_functions()[0][1]), ("cli_mod2", cli._mod2),
    ("exponential", tables.as_function(tables.TableEntry("exponential", terms=30))))
# Components small enough that the 30-term series stays finite, with signed
# zeros drawn often.
COMPONENT = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(min_value=-3.0, max_value=3.0))


def test_array_forms_are_the_listed_built_ins():
    with_form = {spec.name for spec in tables.catalogue()
                 if has_array_form(tables.as_function(spec.sample_entry(make_rng(SEED))))}
    assert with_form == {"exponential"}
    assert all(has_array_form(fn) for _, fn in BUILT_IN_ARRAY_FORMS)
    assert not has_array_form(f_sq)
    assert not has_array_form(lambda p: cli._mod2(p))


@pytest.mark.parametrize("name,fn", BUILT_IN_ARRAY_FORMS,
                         ids=[name for name, _ in BUILT_IN_ARRAY_FORMS])
@given(points=hnp.arrays(np.float64, st.tuples(st.just(4), st.integers(1, 6)),
                         elements=COMPONENT))
def test_array_form_matches_scalar_function_bitwise(name, fn, points):
    out = fn(QArray(points))
    expected = np.array([tuple(fn(Quaternion(*points[:, k].tolist())))
                         for k in range(points.shape[1])]).T
    assert out.c.shape == expected.shape
    assert np.array_equal(out.c.view(np.uint64), expected.view(np.uint64))


def test_left_hr_batch_matches_left_hr_bitwise():
    rng = make_rng(SEED, stream=31)
    points = [random_quaternion(rng, -2.0, 2.0) for _ in range(9)]
    names = [f.name for f in dataclasses.fields(derivatives.DerivativeSet)
             if f.name != "flavor"]
    for _, fn in BUILT_IN_ARRAY_FORMS:
        batch = left_hr_batch(fn, QArray(np.array(points).T))
        for k, q in enumerate(points):
            scalar = left_hr(fn, q)
            for field in names:
                assert _bits(*getattr(batch, field).c[:, k].tolist()) \
                    == _bits(*getattr(scalar, field))
