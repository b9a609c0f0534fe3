"""Mean value, Taylor remainder and steepest descent checks."""

import math
import sys

import numpy as np
import pytest

from quatcalc import cli, derivatives, theorems
from quatcalc.derivatives import (DEFAULT_H, EvaluationError, has_array_form,
                                  takes_arrays)
from quatcalc.quaternion import I, ONE, Quaternion, isclose
from quatcalc.sampling import make_rng, random_quaternion
from quatcalc.tables import TableEntry, as_function, conj_gradient
from quatcalc.theorems import (DivergenceError, descent_direction_gap,
                               first_order_error, mvt_error_bound_check,
                               mvt_left, steepest_descent, taylor2_left,
                               taylor_remainder_slope)

SEED = 20240404
SCALES = (1e-1, 3.1622776601683795e-2, 1e-2, 3.1622776601683795e-3, 1e-3)

Q0 = Quaternion(0.8, 0.37, -1.79, 1.71)
Q1 = Quaternion(0.72, 0.39, 0.05, 0.89)


def f_sq(p):
    return p * p


def f_mod2(p):
    return Quaternion.from_real(p.modulus_squared())


F_EXP = as_function(TableEntry(family="exponential", terms=30))


@pytest.mark.parametrize("fn", [f_sq, f_mod2, F_EXP])
def test_mvt_at_fine_panels(fn):
    check = mvt_left(fn, Q0, Q1, panels=1000)
    assert check.residual < 1e-7
    assert isclose(check.lhs, fn(Q1) - fn(Q0))


def test_mvt_real_form():
    check = mvt_left(f_mod2, Q0, Q1, panels=1000, real_form=True)
    assert check.residual < 1e-7


def test_mvt_panel_refinement():
    # For a non-polynomial integrand each panel quadrupling shrinks the
    # residual by orders of magnitude until finite differences dominate.
    residuals = [mvt_left(F_EXP, Q0, Q1, panels=p).residual
                 for p in (4, 16, 64, 256)]
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine <= max(coarse / 10.0, 1e-9)


def _hidden(fn):
    """fn with its array form hidden, so that mvt_left takes the scalar loop."""
    return lambda p: fn(p)


def _mvt_bits(check) -> tuple:
    return (tuple(x.hex() for x in check.lhs), tuple(x.hex() for x in check.rhs),
            check.residual.hex())


def test_mvt_rejects_bad_panels():
    # Both the scalar loop and the array pass.
    for fn in (f_sq, F_EXP):
        for panels in (5, 0, 4.0, np.float64(4.0), True, False):
            with pytest.raises(ValueError, match="even"):
                mvt_left(fn, Q0, Q1, panels=panels)
        assert _mvt_bits(mvt_left(fn, Q0, Q1, panels=np.int64(4))) \
            == _mvt_bits(mvt_left(fn, Q0, Q1, panels=4))


MVT_FUNCTIONS = cli._mvt_functions()


@pytest.mark.parametrize("seed", (20240501, 11, 36))
@pytest.mark.parametrize("name,fn,real_form", MVT_FUNCTIONS,
                         ids=[f"{name}-{'real' if real else 'general'}"
                              for name, _, real in MVT_FUNCTIONS])
def test_batched_mvt_matches_scalar_loop_bitwise(seed, name, fn, real_form):
    # The segment cmd_mvt draws at this seed.
    rng = make_rng(seed)
    q0 = random_quaternion(rng, -2.0, 2.0)
    q1 = random_quaternion(rng, -2.0, 2.0)
    assert has_array_form(fn) and not has_array_form(_hidden(fn))
    for panels in (4, 16, 64, 256, 1000):
        batched = mvt_left(fn, q0, q1, panels=panels, real_form=real_form)
        scalar = mvt_left(_hidden(fn), q0, q1, panels=panels, real_form=real_form)
        assert _mvt_bits(batched) == _mvt_bits(scalar)


def _raised(fn, q0, q1, **kw) -> tuple:
    with pytest.raises(EvaluationError, match="not finite") as info:
        mvt_left(fn, q0, q1, **kw)
    return str(info.value), tuple(x.hex() for x in info.value.point)


@pytest.mark.parametrize("real", [3e11, -3e11])
def test_batched_mvt_raises_the_scalar_loops_error(real):
    # The 30-term series overflows part way along the segment.
    q0 = Quaternion(0.1, 0.2, 0.3, 0.4)
    q1 = Quaternion(real, 0.3, -0.2, 0.1)
    assert _raised(F_EXP, q0, q1, panels=200) \
        == _raised(_hidden(F_EXP), q0, q1, panels=200)


@takes_arrays
def _overflows_in_b(p):
    # (i p).a = -b, so this is inf where |b| > 1.797...: along the segment
    # below, the first such stencil point is the fourth of its node, q - h i.
    return type(p).from_real((I * p).a * 1e308)


def test_batched_mvt_keeps_the_scalar_evaluation_order():
    # Node 100 of 200 sits DEFAULT_H / 2 inside the overflow limit, so only
    # its step q - h i crosses it.
    limit = sys.float_info.max / 1e308
    q0 = Quaternion(0.5, -1.0, 0.25, 0.0)
    q1 = Quaternion(0.5, -1.0 + 2.0 * (1.0 - limit + DEFAULT_H / 2), 0.25, 0.0)
    message, point = _raised(_overflows_in_b, q0, q1, panels=200)
    assert (message, point) == _raised(_hidden(_overflows_in_b), q0, q1, panels=200)
    assert float.fromhex(point[1]) < -limit < float.fromhex(point[1]) + DEFAULT_H


def test_mvt_evaluation_counts(monkeypatch):
    calls = []
    evaluate = derivatives._evaluate
    counted = lambda f, p: calls.append(p) or evaluate(f, p)
    monkeypatch.setattr(derivatives, "_evaluate", counted)
    monkeypatch.setattr(theorems, "_evaluate", counted)
    # A plain callable: eight stencil values per node, then f(q1) and f(q0).
    mvt_left(lambda p: p * p, Q0, Q1, panels=16)
    assert len(calls) == (16 + 1) * 8 + 2
    # An array form: the nodes go through f on arrays; only the ends are scalar.
    calls.clear()
    mvt_left(F_EXP, Q0, Q1, panels=16)
    assert calls == [Q1, Q0]


def test_first_order_error_bound():
    # The derivative set of q^2 is 1/2-Lipschitz per component pack; L = 2
    # covers the four-term sum along the segment.
    observed, bound, within = mvt_error_bound_check(f_sq, Q0, Q1, lipschitz=2.0)
    assert within
    assert observed <= bound * 1.1
    assert bound == pytest.approx(2.0 * 2.0 * (Q1 - Q0).modulus_squared())


def test_first_order_error_quarters_with_half_step():
    rng = make_rng(SEED)
    q0 = random_quaternion(rng)
    lam = random_quaternion(rng) * 0.2
    e_full = first_order_error(f_sq, q0, q0 + lam)
    e_half = first_order_error(f_sq, q0, q0 + lam * 0.5)
    assert e_full / e_half == pytest.approx(4.0, rel=0.05)


def test_taylor_second_order_slope():
    rng = make_rng(SEED, stream=1)
    q0 = random_quaternion(rng, -1.0, 1.0)
    direction = random_quaternion(rng, -1.0, 1.0, min_modulus=0.3)
    fit = taylor_remainder_slope(lambda p: p * p * p, q0, direction, SCALES)
    assert not fit.at_floor
    assert 2.7 <= fit.slope <= 3.3
    fit = taylor_remainder_slope(F_EXP, q0, direction, SCALES)
    assert 2.7 <= fit.slope <= 3.3


def test_taylor_exact_for_quadratic():
    rng = make_rng(SEED, stream=2)
    q0 = random_quaternion(rng, -1.0, 1.0)
    direction = random_quaternion(rng, -1.0, 1.0, min_modulus=0.3)
    for center in (False, True):
        fit = taylor_remainder_slope(f_mod2, q0, direction, SCALES,
                                     center=center)
        assert fit.at_floor
        assert math.isnan(fit.slope)


def test_taylor2_value_close():
    lam = Quaternion(0.01, -0.02, 0.015, 0.005)
    approx = taylor2_left(f_sq, Q0, lam)
    assert abs(f_sq(Q0 + lam) - approx) < 1e-5


def test_taylor_scale_validation():
    with pytest.raises(ValueError, match="four scales"):
        taylor_remainder_slope(f_sq, Q0, ONE, (1e-1, 1e-2, 1e-3))
    with pytest.raises(ValueError, match="strictly decreasing"):
        taylor_remainder_slope(f_sq, Q0, ONE, (1e-1, 1e-1, 1e-2, 1e-3))
    with pytest.raises(ValueError, match="two decades"):
        taylor_remainder_slope(f_sq, Q0, ONE, (1e-1, 8e-2, 6e-2, 4e-2))


DESCENT_TARGET = Quaternion(1.0, 2.0, 3.0, 4.0)
DESCENT_ENTRY = TableEntry(family="linear_modulus_squared", omega=ONE, nu=ONE,
                           lam=-DESCENT_TARGET)


def _descend(alpha, start=Quaternion(0.0, 0.0, 0.0, 0.0), **kw):
    objective = as_function(DESCENT_ENTRY)
    return steepest_descent(objective, start, alpha,
                            gradient=lambda p: conj_gradient(DESCENT_ENTRY, p),
                            **kw)


def test_descent_converges_to_target():
    trace = _descend(0.4, grad_tol=1e-7)
    assert abs(trace.iterates[-1] - DESCENT_TARGET) < 1e-6
    assert len(trace.iterates) <= 101
    # objective decreases monotonically at a stable step size
    for earlier, later in zip(trace.values, trace.values[1:]):
        assert later <= earlier


def test_descent_contraction_factor():
    # q - alpha/2 (q - c) contracts the distance by exactly 1 - alpha/2.
    trace = _descend(0.4, max_iters=3, grad_tol=0.0)
    d0 = abs(trace.iterates[0] - DESCENT_TARGET)
    d1 = abs(trace.iterates[1] - DESCENT_TARGET)
    assert d1 / d0 == pytest.approx(0.8)


def test_descent_stops_at_minimizer():
    trace = _descend(0.4, start=DESCENT_TARGET)
    assert len(trace.iterates) == 1
    assert trace.grad_norms[0] == 0.0


def test_descent_diverges_at_large_step():
    with pytest.raises(DivergenceError, match="step size too large"):
        _descend(4.5, max_iters=200, grad_tol=0.0)


def test_descent_rejects_nonpositive_step():
    with pytest.raises(ValueError, match="positive"):
        _descend(0.0)


def test_descent_numerical_gradient_agrees():
    objective = as_function(DESCENT_ENTRY)
    closed = steepest_descent(objective, Quaternion(0.0, 0.0, 0.0, 0.0), 0.4,
                              max_iters=5, grad_tol=0.0,
                              gradient=lambda p: conj_gradient(DESCENT_ENTRY, p))
    numerical = steepest_descent(objective, Quaternion(0.0, 0.0, 0.0, 0.0), 0.4,
                                 max_iters=5, grad_tol=0.0)
    for a, b in zip(closed.iterates, numerical.iterates):
        assert abs(a - b) < 1e-6


def test_descent_direction_optimality():
    rng = make_rng(SEED, stream=3)
    grad = conj_gradient(DESCENT_ENTRY, Quaternion(0.0, 0.0, 0.0, 0.0))
    grad_row = grad.conjugate()  # d f/d q = (d f/d q*)* for real objectives
    best = -grad_row.conjugate() / abs(grad_row)
    assert descent_direction_gap(grad_row, best) == pytest.approx(0.0, abs=1e-12)
    for _ in range(50):
        direction = random_quaternion(rng, min_modulus=0.1)
        direction = direction / abs(direction)
        assert descent_direction_gap(grad_row, direction) >= -1e-12


def test_mvt_rejects_nonfinite_value_at_endpoint():
    # f is finite everywhere the derivative looks, but not at q1 itself.
    def spiked(p):
        return Quaternion(math.nan, 0.0, 0.0, 0.0) if p == Q1 else f_sq(p)

    with pytest.raises(EvaluationError, match="not finite"):
        mvt_left(spiked, Q0, Q1, panels=2)


def test_descent_accepts_component_array_objective():
    target = Quaternion(0.5, -1.0, 0.25, 2.0)

    def objective(p):
        return np.array([(p - target).modulus_squared(), 0.0, 0.0, 0.0])

    trace = steepest_descent(objective, Quaternion(0.0, 0.0, 0.0, 0.0), 0.4,
                             grad_tol=1e-7)
    assert abs(trace.iterates[-1] - target) < 1e-6
    assert all(isinstance(value, float) for value in trace.values)
