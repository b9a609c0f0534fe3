"""Numerical HR/GHR engine: golden values, calculus rules, second order."""

import importlib
import inspect
import math
import pkgutil
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import quatcalc
from quatcalc import cli, derivatives, filters, identities, tables, theorems
from quatcalc.derivatives import (DEFAULT_H, DEFAULT_H2, HR_AXES,
                                  DegenerateAxisError, SecondOrderSet,
                                  EvaluationError, check_chain_rule,
                                  check_product_rule, conjugation_relation,
                                  differential_consistency, ghr_from_partials,
                                  has_array_form, hr_from_partials, left_ghr,
                                  left_hr, real_partials, right_ghr, right_hr,
                                  second_order, second_order_left,
                                  second_order_right, takes_arrays)
from quatcalc.quaternion import (AXES, I, J, K, ONE, UNITS, ZERO, QArray,
                                 Quaternion, format_quaternion, involute,
                                 involute_conj, rotate)
from quatcalc.sampling import make_rng, random_quaternion
from quatcalc.theorems import _taylor2, _taylor2_parts

from test_quaternion import (NON_FINITE_AXES, NON_FINITE_IDS, OVERFLOWING_AXES,
                             OVERFLOWING_AXIS, isclose)

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


# --- scalar oracle ------------------------------------------------------------
# The central difference point by point: each stencil point a Quaternion on
# Python floats, each partial (f(q + h e) - f(q - h e)) * (1 / 2h), and the
# first non-finite value in that order raises.  The engine, which builds
# its stencils as arrays, must give its bits, one point or many.


def oracle_stencil(q, h=DEFAULT_H):
    """The pairs (q + h e, q - h e) for e in {1, i, j, k}."""
    a, b, c, d = q
    steps = ((h, 0.0, 0.0, 0.0), (0.0, h, 0.0, 0.0), (0.0, 0.0, h, 0.0), (0.0, 0.0, 0.0, h))
    return [(Quaternion(a + oa, b + ob, c + oc, d + od),
             Quaternion(a - oa, b - ob, c - oc, d - od)) for oa, ob, oc, od in steps]


def _oracle_value(f, p):
    value = f(p)
    if not value.is_finite():
        raise EvaluationError("function evaluation is not finite", p)
    return value


def oracle_partials(f, q, h=DEFAULT_H):
    """The four real partials of f at q, one stencil point after another."""
    inv = 1.0 / (2.0 * h)
    return [(_oracle_value(f, plus) - _oracle_value(f, minus)) * inv
            for plus, minus in oracle_stencil(q, h)]


def oracle_ghr(f, q, mu, side="left"):
    return ghr_from_partials(oracle_partials(f, q), mu, side)


def oracle_hr(f, q, side="left"):
    return hr_from_partials(oracle_partials(f, q), side)


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


@pytest.mark.parametrize("mu", NON_FINITE_AXES, ids=NON_FINITE_IDS)
def test_ghr_rejects_a_non_finite_axis_naming_it(mu):
    # NaN and inf passed the degenerate-axis test, and these axes gave
    # all-NaN pairs.  The error is not a DegenerateAxisError, which the
    # identity suite would skip.
    q = Quaternion(0.3, -0.2, 0.5, 1.1)
    calls = (lambda: left_ghr(f_sq, q, mu), lambda: right_ghr(f_sq, q, mu),
             lambda: second_order(f_sq, q, (I,), (mu,)),
             lambda: left_ghr(f_sq, _stack([q, q]), _stack([ONE, mu])))
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(format_quaternion(mu))) as info, \
                np.errstate(over="ignore"):
            call()
        assert not isinstance(info.value, DegenerateAxisError)


def test_ghr_rejects_an_overflowing_axis_array_without_a_warning():
    # The degenerate-axis test's |mu| overflowed with numpy's warning first.
    q = Quaternion(0.3, -0.2, 0.5, 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(format_quaternion(OVERFLOWING_AXIS))):
            left_ghr(f_sq, _stack([q, q]), OVERFLOWING_AXES)


@pytest.mark.parametrize("call", [
    lambda parts: hr_from_partials(parts, "lft"),
    lambda parts: ghr_from_partials(parts, I, "Right"),
    lambda parts: second_order(f_sq, ONE, (I,), (J,), outer="Left"),
    lambda parts: second_order(f_sq, ONE, (I,), (J,), inner="up"),
], ids=["hr", "ghr", "outer", "inner"])
def test_a_mistyped_flavor_is_a_value_error(call):
    # Every flavor but "left" ran as "right": outer="Left" gave the
    # outer="right" grid.
    with pytest.raises(ValueError, match="'left' or 'right'"):
        call(real_partials(f_sq, ONE))


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
    return oracle_partials(g, q, DEFAULT_H2)


def _nested_oracle(outer, inner_side, f, q, mu, nu):
    inner = lambda p: oracle_ghr(f, p, nu, inner_side)
    plain = ghr_from_partials(_outer_partials(lambda p: inner(p).d_mu, q), mu, outer)
    conj = ghr_from_partials(_outer_partials(lambda p: inner(p).d_mu_conj, q), mu, outer)
    return plain.d_mu, conj.d_mu, plain.d_mu_conj, conj.d_mu_conj


def _as_tuple(s):
    return s.mu_nu, s.mu_nu_conj, s.mu_conj_nu, s.mu_conj_nu_conj


def _conjugation_oracle(f, q, mu):
    fc = lambda p: f(p).conjugate()
    left_f, right_f = oracle_ghr(f, q, mu), oracle_ghr(f, q, mu, "right")
    left_fc, right_fc = oracle_ghr(fc, q, mu), oracle_ghr(fc, q, mu, "right")
    return max(abs(right_f.d_mu - left_fc.d_mu_conj.conjugate()),
               abs(right_f.d_mu_conj - left_fc.d_mu.conjugate()),
               abs(left_f.d_mu - right_fc.d_mu_conj.conjugate()),
               abs(left_f.d_mu_conj - right_fc.d_mu.conjugate()))


def _product_oracle(f, g, q, mu, conjugate):
    gq, fq = g(q), f(q)
    lhs = oracle_ghr(lambda p: f(p) * g(p), q, mu)
    dg = oracle_ghr(g, q, mu)
    df_shift = oracle_ghr(f, q, gq * mu)
    if conjugate:
        return abs(lhs.d_mu_conj - (fq * dg.d_mu_conj + df_shift.d_mu_conj * gq))
    return abs(lhs.d_mu - (fq * dg.d_mu + df_shift.d_mu * gq))


def _chain_oracle(f, g, q, mu, nu, conjugate):
    s = g(q)
    lhs = oracle_ghr(lambda p: f(g(p)), q, mu)
    total = ZERO
    for eta in AXES:
        axis = nu * UNITS[eta]
        inner = oracle_ghr(f, s, axis).d_mu
        outer = oracle_ghr(lambda p, ax=axis: rotate(g(p), ax), q, mu)
        total = total + inner * (outer.d_mu_conj if conjugate else outer.d_mu)
    return abs((lhs.d_mu_conj if conjugate else lhs.d_mu) - total)


def _taylor_oracle(f, q0, lam, center):
    total = f(q0)
    first = oracle_hr(f, q0)
    for mu in AXES:
        total = total + first.wrt(mu) * involute(lam, mu)
    half = ZERO
    for mu in AXES:
        inner = lambda p, _mu=mu: oracle_hr(f, p).wrt(_mu, conj=center)
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
    # Plain functions, evaluated point by point, and array forms, evaluated
    # once per stencil.
    functions = (f_sq, f_exp, f_mod2, f_cross, *(fn for _, fn in BUILT_IN_ARRAY_FORMS))
    # Each function with both conjugate flags.
    for idx in range(2 * len(functions)):
        q = random_quaternion(rng, min_modulus=0.1)
        mu = random_quaternion(rng, min_modulus=0.1)
        nu = random_quaternion(rng, min_modulus=0.1)
        f = functions[idx % len(functions)]
        conjugate = idx // len(functions) % 2 == 1
        assert _bits(conjugation_relation(f, q, mu)) == _bits(_conjugation_oracle(f, q, mu))
        assert _bits(check_product_rule(f, f_conj, q, mu, conjugate=conjugate)) \
            == _bits(_product_oracle(f, f_conj, q, mu, conjugate))
        for conj in (False, True):
            assert _bits(check_chain_rule(f, linear, q, mu, nu, conjugate=conj)) \
                == _bits(_chain_oracle(f, linear, q, mu, nu, conj))
        assert _bits(*_as_tuple(second_order_left(f, q, mu, nu))) \
            == _bits(*_nested_oracle("left", "left", f, q, mu, nu))
        assert _bits(*_as_tuple(second_order_right(f, q, mu, nu))) \
            == _bits(*_nested_oracle("right", "right", f, q, mu, nu))
        mixed = second_order(f, q, (mu,), (nu,), outer="right", inner="left")[0][0]
        assert _bits(*_as_tuple(mixed)) \
            == _bits(*_nested_oracle("right", "left", f, q, mu, nu))
        # Every entry of a grid equals its own single-pair derivative.
        grid = second_order(f, q, (mu, nu, I), (nu, ONE))
        for m, outer in enumerate((mu, nu, I)):
            for n, inner in enumerate((nu, ONE)):
                assert _bits(*_as_tuple(grid[m][n])) \
                    == _bits(*_as_tuple(second_order_left(f, q, outer, inner)))
        lam = random_quaternion(rng) * 0.1
        assert _bits(*_taylor2(_taylor2_parts(f, q), lam, conjugate)) \
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


# Built-in functions that carry an array form: every one a quatcalc module
# holds (cli's square, |q|^2, cube and 30-term exponential, which the mvt and
# taylor commands differentiate, the identity suite's functions and QNGD's
# tanh), and the exponential table family, which is defined at every point
# drawn below.  Every other table family has one too; tests/test_tables.py
# checks them at admissible points through the batched cross_validate.
BUILT_IN_ARRAY_FORMS = (
    ("cli_square", cli._SQUARE), ("cli_mod2", cli._MOD2),
    ("cli_power3", cli.TAYLOR_FUNCTIONS[0][1]), ("cli_exponential", cli._EXPONENTIAL),
    ("exponential", tables.as_function(tables.TableEntry("exponential"))),
    ("identities_identity", identities._f_identity), ("identities_conj", identities._f_conj),
    ("identities_sq", identities._f_sq), ("identities_mod2", identities._f_mod2),
    ("identities_cross", identities._f_cross), ("filters_tanh", filters.phi_tanh))
# Components small enough that the 30-term series stays finite, with signed
# zeros drawn often.
COMPONENT = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(min_value=-3.0, max_value=3.0))


def test_array_forms_are_the_listed_built_ins():
    with_form = {spec.name for spec in tables.catalogue()
                 if has_array_form(tables.as_function(spec.sample_entry(make_rng(SEED))))}
    assert with_form == {spec.name for spec in tables.catalogue()}
    assert all(has_array_form(fn) for _, fn in BUILT_IN_ARRAY_FORMS)
    # Every function the mvt and taylor commands differentiate is listed, as
    # is every array form a quatcalc module holds.  Catalogue functions
    # share as_function's code, so the objects themselves are compared.
    listed = [fn for _, fn in BUILT_IN_ARRAY_FORMS]
    assert all(any(fn is each for each in listed)
               for _, fn, _ in cli.MVT_FUNCTIONS + cli.TAYLOR_FUNCTIONS)
    for info in pkgutil.iter_modules(quatcalc.__path__):
        module = importlib.import_module(f"quatcalc.{info.name}")
        for name, value in vars(module).items():
            if callable(value) and has_array_form(value):
                assert any(value is each for each in listed), f"{info.name}.{name}"
    assert not has_array_form(f_sq)
    assert not has_array_form(lambda p: cli._MOD2(p))


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


def _floats(values) -> bool:
    """Whether every component of every Quaternion is a Python float."""
    return all(isinstance(v, Quaternion) and all(type(x) is float for x in v)
               for v in values)


def test_one_point_calls_return_quaternions_on_python_floats():
    q, mu = Quaternion(0.3, -0.7, 1.1, 0.2), Quaternion(0.5, 0.2, -0.4, 0.9)
    for fn in (f_sq, BUILT_IN_ARRAY_FORMS[0][1]):
        parts = real_partials(fn, q)
        assert _floats(parts) and _bits(*parts) == _bits(*oracle_partials(fn, q))
        pair = left_ghr(fn, q, mu)
        assert _floats((pair.d_mu, pair.d_mu_conj))
        assert _floats(_as_tuple(second_order_left(fn, q, mu, I)))


def test_left_hr_of_points_matches_left_hr_at_each_point_bitwise():
    rng = make_rng(SEED, stream=31)
    points = [random_quaternion(rng, -2.0, 2.0) for _ in range(9)]
    names = derivatives.DerivativeSet._fields
    for _, fn in BUILT_IN_ARRAY_FORMS:
        batch = left_hr(fn, _stack(points))
        for k, q in enumerate(points):
            scalar = left_hr(fn, q)
            oracle = oracle_hr(fn, q)
            for field in names:
                assert _bits(*getattr(batch, field).c[:, k].tolist()) \
                    == _bits(*getattr(scalar, field)) == _bits(*getattr(oracle, field))


def test_left_ghr_of_points_matches_left_ghr_bitwise_along_each_points_axis():
    rng = make_rng(SEED, stream=32)
    points = [random_quaternion(rng, -2.0, 2.0) for _ in range(9)]
    mus = [random_quaternion(rng, -2.0, 2.0, min_modulus=0.1) for _ in range(9)]
    for _, fn in BUILT_IN_ARRAY_FORMS:
        batch = left_ghr(fn, _stack(points), _stack(mus))
        for k, (q, mu) in enumerate(zip(points, mus)):
            scalar = left_ghr(fn, q, mu)
            oracle = oracle_ghr(fn, q, mu)
            for field in ("d_mu", "d_mu_conj"):
                assert _bits(*getattr(batch, field).c[:, k].tolist()) \
                    == _bits(*getattr(scalar, field)) == _bits(*getattr(oracle, field))
    mus[4] = Quaternion(0.0, 1e-12, 0.0, 0.0)
    with pytest.raises(DegenerateAxisError):
        left_ghr(BUILT_IN_ARRAY_FORMS[0][1], _stack(points), _stack(mus))


def _stack(quaternions) -> QArray:
    return QArray(np.array(quaternions).T)


def _at(axis, k: int) -> Quaternion:
    """Point k's axis: a shared Quaternion, or column k of a QArray."""
    return axis if isinstance(axis, Quaternion) else Quaternion(*axis.c[:, k].tolist())


SECOND_ORDER_FIELDS = SecondOrderSet._fields


@pytest.mark.parametrize("outer,inner", [("left", "left"), ("right", "left"),
                                         ("right", "right")])
@pytest.mark.parametrize("name,fn", BUILT_IN_ARRAY_FORMS,
                         ids=[name for name, _ in BUILT_IN_ARRAY_FORMS])
def test_second_order_of_points_matches_second_order_at_each_point_bitwise(outer, inner,
                                                                           name, fn):
    rng = make_rng(SEED, stream=33)
    points, mus, nus = ([random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
                         for _ in range(7)] for _ in range(3))
    # Per-point axes and shared HR axes on both levels, in a 3 x 3 grid.
    outer_axes = (_stack(mus), I, _stack(nus))
    inner_axes = (_stack(nus), ONE, K)
    grid = second_order(fn, _stack(points), outer_axes, inner_axes, outer, inner)
    for k, q in enumerate(points):
        scalar = second_order(fn, q, [_at(mu, k) for mu in outer_axes],
                              [_at(nu, k) for nu in inner_axes], outer, inner)
        for m in range(3):
            for n in range(3):
                for field in SECOND_ORDER_FIELDS:
                    assert _bits(*getattr(grid[m][n], field).c[:, k].tolist()) \
                        == _bits(*getattr(scalar[m][n], field))


@takes_arrays
def _overflows_in_b(p):
    # (i p).a = -b, so this is inf where |b| exceeds about 1.797.
    return type(p).from_real((I * p).a * 1e308)


def _first_second_order_error(points, mu, nu):
    with pytest.raises(EvaluationError, match="not finite") as expected:
        for q in points:
            _nested_oracle("right", "left", _overflows_in_b, q, mu, nu)
    # The array pass of the array form, then point by point: each point's
    # one array pass, and the plain function's _evaluate calls.
    for fn, at in ((_overflows_in_b, _stack(points)), (_overflows_in_b, None),
                   (lambda p: _overflows_in_b(p), _stack(points))):
        with pytest.raises(EvaluationError, match="not finite") as caught:
            for q in (points if at is None else [at]):
                second_order(fn, q, (mu, I), (nu,), "right", "left")
        assert str(caught.value) == str(expected.value)
        assert _bits(*caught.value.point) == _bits(*expected.value.point)
    return expected.value.point


def test_second_order_of_points_raises_the_scalar_loops_first_error():
    limit = sys.float_info.max / 1e308
    good = Quaternion(0.5, 0.1, 0.2, 0.3)
    # Only where both steps add along i.
    once = Quaternion(0.5, limit - DEFAULT_H2 - DEFAULT_H / 2, 0.2, 0.3)
    # Wherever the inner step adds along i, and at every inner step where the
    # outer one does.
    often = Quaternion(-0.5, limit - DEFAULT_H / 2, 0.2, 0.3)
    mu, nu = Quaternion(0.3, -0.2, 0.9, 0.1), Quaternion(-0.4, 0.5, 0.1, 0.8)
    # In the array's memory order the later point fails first.
    point = _first_second_order_error([good, once, good, often], mu, nu)
    assert point[1] == once[1] + DEFAULT_H2 + DEFAULT_H
    # Within a point the outer step comes first: +h2 along 1, then +h along i.
    point = _first_second_order_error([good, often], mu, nu)
    assert point[:2] == (often[0] + DEFAULT_H2, often[1] + DEFAULT_H)


def test_second_order_of_points_rejects_a_degenerate_axis():
    rng = make_rng(SEED, stream=34)
    points = [random_quaternion(rng, -2.0, 2.0) for _ in range(5)]
    mus = [random_quaternion(rng, -2.0, 2.0, min_modulus=0.1) for _ in range(5)]
    mus[3] = Quaternion(0.0, 1e-12, 0.0, 0.0)
    fn = BUILT_IN_ARRAY_FORMS[1][1]
    with pytest.raises(DegenerateAxisError):
        second_order(fn, _stack(points), (I,), (_stack(mus),))
    with pytest.raises(DegenerateAxisError):
        second_order(fn, _stack(points), (_stack(mus),), (ONE,))
    with pytest.raises(DegenerateAxisError):
        second_order(fn, _stack(points), (I,), (ZERO,))


# Components that stress the one-add stencil: signed zeros, subnormals,
# infinities, NaN and the largest finite magnitudes.
EXTREME_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
                     sys.float_info.max, -sys.float_info.max]),
    st.floats())


@given(q=st.tuples(*[EXTREME_COMPONENT] * 4), h=st.sampled_from([DEFAULT_H, DEFAULT_H2]))
def test_stencil_adds_the_scalar_stencils_bits(q, h):
    # q + (-h) and q + (-0.0) are q - h and q - 0.0 in IEEE arithmetic.
    stencil = derivatives._stencil_array(np.array(q), h)  # [component, axis, +/-]
    expected = np.array([pair for pair in oracle_stencil(Quaternion(*q), h)])
    assert np.ascontiguousarray(stencil.transpose(1, 2, 0)).tobytes() == expected.tobytes()


# Where |p's component along unit| passes LIMIT, p times 1e308 overflows:
# these give p, or NaN there, one point or many.
LIMIT = sys.float_info.max / 1e308


def _finite_within(unit):
    @takes_arrays
    def fn(p):
        return p + type(p).from_real((unit * p).a * 1e308) * 0.0
    return fn


def _rule_check_error(check) -> Quaternion:
    with pytest.raises(EvaluationError, match="not finite") as caught:
        check()
    return caught.value.point


@pytest.mark.parametrize("array_form", [True, False], ids=["array_form", "plain"])
def test_rule_checks_raise_their_first_functions_error_first(array_form):
    # f fails only at the last stencil point, q - h k; g only at the first,
    # q + h 1.  Each check evaluates one function on the whole stencil
    # before the other: the product rule f, the chain rule g, which it needs
    # to place f's points.  (A point-by-point loop over the stencil would
    # reach g's bad point first in the product rule, and in the chain rule
    # f's stencil at g(q), which it took before g's stencil.)
    f, g = _finite_within(K), _finite_within(ONE)
    if not array_form:
        f, g = (lambda p, f=f: f(p)), (lambda p, g=g: g(p))
    edge = LIMIT - DEFAULT_H / 2
    q = Quaternion(edge, 0.3, -0.2, -edge)
    mu, nu = Quaternion(0.5, 0.2, -0.4, 0.9), Quaternion(-0.3, 0.8, 0.1, 0.4)
    point = _rule_check_error(lambda: check_product_rule(f, g, q, mu))
    assert _bits(*point) == _bits(*Quaternion(q.a, q.b, q.c, q.d - DEFAULT_H))
    point = _rule_check_error(lambda: check_chain_rule(f, g, q, mu, nu))
    assert _bits(*point) == _bits(*Quaternion(q.a + DEFAULT_H, q.b, q.c, q.d))


@pytest.mark.parametrize("name,fn", BUILT_IN_ARRAY_FORMS + (("plain_sq", f_sq),),
                         ids=[name for name, _ in BUILT_IN_ARRAY_FORMS] + ["plain_sq"])
def test_rule_checks_of_points_match_the_one_point_checks_bitwise(name, fn):
    rng = make_rng(SEED, stream=35)
    points, mus, nus = ([random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
                         for _ in range(6)] for _ in range(3))
    conjugate = np.array([False, True, True, False, True, False])
    linear = takes_arrays(lambda p: Quaternion(0.3, 0.5, -0.2, 0.1) * p + ONE)
    # Per-point axes and flags, and one axis and flag for every point.
    for mu, nu, flags in ((_stack(mus), _stack(nus), conjugate), (I, K, True)):
        product = check_product_rule(fn, f_conj, _stack(points), mu, conjugate=flags)
        chain = check_chain_rule(fn, linear, _stack(points), mu, nu, conjugate=flags)
        for k, q in enumerate(points):
            flag = bool(np.broadcast_to(flags, 6)[k])
            assert _bits(product[k].item()) \
                == _bits(check_product_rule(fn, f_conj, q, _at(mu, k), conjugate=flag))
            assert _bits(chain[k].item()) \
                == _bits(check_chain_rule(fn, linear, q, _at(mu, k), _at(nu, k),
                                          conjugate=flag))
