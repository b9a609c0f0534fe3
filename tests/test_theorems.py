"""Mean value, Taylor remainder and steepest descent checks."""

import math
import re
import sys

import numpy as np
import pytest

from quatcalc import cli, derivatives, theorems
from quatcalc.derivatives import (DEFAULT_H, EvaluationError, has_array_form,
                                  takes_arrays)
from quatcalc.quaternion import I, ONE, QArray, Quaternion, format_quaternion
from quatcalc.sampling import make_rng, random_quaternion
from quatcalc.tables import TableEntry, as_function, conj_gradient
from quatcalc.theorems import (DivergenceError, _taylor2, _taylor2_parts, mvt_left,
                               steepest_descent, taylor_remainder_slope)
from test_derivatives import _oracle_value, oracle_hr
from test_quaternion import isclose

SEED = 20240404
SCALES = (1e-1, 3.1622776601683795e-2, 1e-2, 3.1622776601683795e-3, 1e-3)

Q0 = Quaternion(0.8, 0.37, -1.79, 1.71)
Q1 = Quaternion(0.72, 0.39, 0.05, 0.89)


def f_sq(p):
    return p * p


def f_mod2(p):
    return Quaternion.from_real(p.modulus_squared())


F_EXP = as_function(TableEntry(family="exponential"))


@pytest.mark.parametrize("fn", [f_sq, f_mod2, F_EXP])
def test_mvt_at_fine_panels(fn):
    check, = mvt_left(fn, Q0, Q1, panels=(1000,))
    assert check.residual < 1e-7
    assert isclose(check.lhs, fn(Q1) - fn(Q0))


def test_mvt_real_form():
    check, = mvt_left(f_mod2, Q0, Q1, panels=(1000,), real_form=True)
    assert check.residual < 1e-7


def test_mvt_panel_refinement():
    # For a non-polynomial integrand each panel quadrupling shrinks the
    # residual by orders of magnitude until finite differences dominate.
    residuals = [check.residual for check in mvt_left(F_EXP, Q0, Q1, panels=(4, 16, 64, 256))]
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine <= max(coarse / 10.0, 1e-9)


def _hidden(fn):
    """fn with its array form hidden, so that the engine calls it point by point."""
    return lambda p: fn(p)


def _bits(lhs, rhs, residual) -> tuple:
    return tuple(x.hex() for x in lhs), tuple(x.hex() for x in rhs), residual.hex()


def _mvt_bits(check) -> tuple:
    return _bits(check.lhs, check.rhs, check.residual)


def mvt_oracle(fn, q0, q1, panels, real_form=False) -> tuple:
    """The scalar mean value loop, as _mvt_bits of its check.

    Node by node, each node q0 + lam * (idx / panels) a Quaternion on Python
    floats, with its HR derivatives from the point-by-point central
    difference; the real form takes d f/dq from that set too, not from the
    engine's GHR derivative at mu = 1.  Then f(q1) - f(q0).  The first
    non-finite value in that order raises its EvaluationError.
    """
    lam = q1 - q0

    def integrand(ds):
        if real_form:
            return theorems._real_integrand(ds.wrt_q, lam)
        return ds.differential(lam)

    values = np.array([integrand(oracle_hr(fn, q0 + lam * (idx / panels)))
                       for idx in range(panels + 1)]).T
    rhs = theorems._simpson(values, 1.0 / panels)
    lhs = _oracle_value(fn, q1) - _oracle_value(fn, q0)
    return _bits(lhs, rhs, abs(lhs - rhs))


def test_mvt_rejects_bad_panels():
    # A plain function and an array form; every bad panel count as a
    # one-rung ladder, and ladders that are not tuples.
    for fn in (f_sq, F_EXP):
        for panels in ((5,), (0,), (4.0,), (np.float64(4.0),), (True,), (False,), 4,
                       [4, 16], (), (4, 5), (4, True)):
            with pytest.raises(ValueError, match="even"):
                mvt_left(fn, Q0, Q1, panels=panels)
        assert _mvt_bits(*mvt_left(fn, Q0, Q1, panels=(np.int64(4),))) \
            == _mvt_bits(*mvt_left(fn, Q0, Q1, panels=(4,)))


MVT_FUNCTIONS = cli.MVT_FUNCTIONS
# The refinement ladder cmd_mvt checks in one call per function.
LADDER = cli.MVT_REFINEMENT_PANELS + (cli.MVT_FINAL_PANELS,)


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
    expected = [mvt_oracle(fn, q0, q1, panels, real_form) for panels in LADDER]
    for each in (fn, _hidden(fn)):
        # One call per rung, then the ladder in one call.
        for panels, want in zip(LADDER, expected):
            check, = mvt_left(each, q0, q1, panels=(panels,), real_form=real_form)
            assert check.panels == panels and _mvt_bits(check) == want
        checks = mvt_left(each, q0, q1, panels=LADDER, real_form=real_form)
        assert tuple(check.panels for check in checks) == LADDER
        assert [_mvt_bits(check) for check in checks] == expected


@pytest.mark.parametrize("name,fn,real_form", MVT_FUNCTIONS,
                         ids=[f"{name}-{'real' if real else 'general'}"
                              for name, _, real in MVT_FUNCTIONS])
def test_mvt_ladder_evaluates_each_node_once(name, fn, real_form):
    # 257 nodes hold the 4-, 16-, 64- and 256-panel rungs, and the
    # 1000-panel rung adds 1,001 - 9: 1,249 nodes of 8 stencil points each.
    sizes = []

    @takes_arrays
    def counted(p):
        sizes.append(p.c[0].size if isinstance(p, QArray) else 1)
        return fn(p)

    mvt_left(counted, Q0, Q1, panels=LADDER, real_form=real_form)
    # NODE_BLOCK nodes to a pass, then f(q1) and f(q0).
    assert sizes[-2:] == [1, 1]
    assert sum(sizes[:-2]) == 1249 * 8
    assert len(sizes) - 2 == -(-1249 // theorems.NODE_BLOCK)


@pytest.mark.parametrize("name,fn,real_form", MVT_FUNCTIONS,
                         ids=[f"{name}-{'real' if real else 'general'}"
                              for name, _, real in MVT_FUNCTIONS])
@pytest.mark.parametrize("node_block", (theorems.NODE_BLOCK, 7, 2048))
def test_mvt_ladder_projects_once_per_call(name, fn, real_form, node_block, monkeypatch):
    # One derivative pass serves every node, however many blocks f takes
    # them in, with the same bits.  The real form needs d f/dq alone, the
    # GHR derivative at mu = 1: one projection, where the eight HR
    # derivatives take four.
    expected = [_mvt_bits(check)
                for check in mvt_left(fn, Q0, Q1, panels=LADDER, real_form=real_form)]
    monkeypatch.setattr(theorems, "NODE_BLOCK", node_block)
    projections, sizes = [], []
    project = derivatives._project
    monkeypatch.setattr(derivatives, "_project",
                        lambda *args: projections.append(1) or project(*args))
    counted = takes_arrays(
        lambda p: sizes.append(p.c[0].size if isinstance(p, QArray) else 1) or fn(p))
    checks = mvt_left(counted, Q0, Q1, panels=LADDER, real_form=real_form)
    assert len(projections) == (1 if real_form else 4)
    assert [_mvt_bits(check) for check in checks] == expected
    assert sizes[:-2] == [8 * min(node_block, 1249 - start)
                          for start in range(0, 1249, node_block)]


def test_mvt_oracle_takes_the_real_form_from_its_own_derivatives(monkeypatch):
    # The engine's real form goes through ghr_from_partials; the oracle's
    # must not, or the bitwise test would check that path against itself.
    def refused(*args):
        raise AssertionError("ghr_from_partials called")

    _, fn, _ = next(entry for entry in MVT_FUNCTIONS if entry[2])
    monkeypatch.setattr(theorems, "ghr_from_partials", refused)
    monkeypatch.setattr(derivatives, "ghr_from_partials", refused)
    expected = mvt_oracle(fn, Q0, Q1, 4, real_form=True)
    with pytest.raises(AssertionError, match="ghr_from_partials called"):
        mvt_left(fn, Q0, Q1, panels=(4,), real_form=True)
    monkeypatch.undo()
    check, = mvt_left(fn, Q0, Q1, panels=(4,), real_form=True)
    assert _mvt_bits(check) == expected


def _raised(run, fn, q0, q1, panels) -> tuple:
    with pytest.raises(EvaluationError, match="not finite") as info:
        run(fn, q0, q1, panels=panels)
    return str(info.value), tuple(x.hex() for x in info.value.point)


def _rung_by_rung(fn, q0, q1, panels) -> tuple:
    """mvt_oracle at each rung of a ladder, one rung after another."""
    return tuple(mvt_oracle(fn, q0, q1, rung) for rung in panels)


def _raised_as_scalar_loop(fn, q0, q1, panels) -> tuple:
    """The error of mvt_left on fn and on fn point by point, which must be
    the scalar loop's first, rung by rung."""
    expected = _raised(_rung_by_rung, fn, q0, q1, panels)
    assert _raised(mvt_left, fn, q0, q1, panels) == expected
    assert _raised(mvt_left, _hidden(fn), q0, q1, panels) == expected
    return expected


@pytest.mark.parametrize("real", [3e11, -3e11])
def test_batched_mvt_raises_the_scalar_loops_error(real):
    # The 30-term series overflows part way along the segment.
    q0 = Quaternion(0.1, 0.2, 0.3, 0.4)
    q1 = Quaternion(real, 0.3, -0.2, 0.1)
    _raised_as_scalar_loop(F_EXP, q0, q1, panels=(200,))


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
    _, point = _raised_as_scalar_loop(_overflows_in_b, q0, q1, panels=(200,))
    assert float.fromhex(point[1]) < -limit < float.fromhex(point[1]) + DEFAULT_H


def _spiked(*spikes):
    """An f, with an array form, that fails only near the spikes: where
    scale * |p - c|^2 < 0.11 for a (c, scale) among them, the value
    1e308 * 2 / (1 + scale * |p - c|^2) exceeds the largest float."""
    @takes_arrays
    def f(p):
        return type(p).from_real(1e308 * sum(
            2.0 / (1.0 + (p - c).modulus_squared() * scale) for c, scale in spikes))
    return f


# A segment whose node at t is exactly Quaternion(t, 0.3, -0.2, 0.1).  A spike
# at a node with scale 1e10 reaches its stencil points, DEFAULT_H away, and
# no other node's; with scale 1e16 it reaches the point alone.
LADDER_Q0 = Quaternion(0.0, 0.3, -0.2, 0.1)
LADDER_Q1 = Quaternion(1.0, 0.3, -0.2, 0.1)


def _node(t):
    return Quaternion(t, 0.3, -0.2, 0.1)


# The last spike of each case is the one a rung-by-rung loop meets first.
@pytest.mark.parametrize("spikes", [
    # Only the 1000-panel rung holds t = 0.501.
    ((_node(0.501), 1e10),),
    # Only the 1000-panel rung holds t = 0.001; the 4-panel rung holds 0.75.
    ((_node(0.001), 1e10), (_node(0.75), 1e10)),
    # The 256-panel rung is the first to hold t = 129/256.
    ((_node(0.001), 1e10), (_node(129 / 256), 1e10)),
    # f(q1) is taken after the first rung, before the last rung's t = 0.001.
    ((_node(0.001), 1e10), (LADDER_Q1, 1e16)),
], ids=["last-rung", "first-rung", "middle-rung", "end-point"])
def test_mvt_ladder_raises_the_rung_by_rung_loops_error(spikes):
    _, point = _raised_as_scalar_loop(_spiked(*spikes), LADDER_Q0, LADDER_Q1, LADDER)
    point = Quaternion(*map(float.fromhex, point))
    assert abs(point - spikes[-1][0]) < 2 * DEFAULT_H


def test_mvt_ladder_stops_at_the_block_holding_the_first_bad_node():
    # The ladder's distinct nodes run 0, 1/4, ..., then the 1000-panel rung's
    # own nodes from place 257 on: place 300 of 1,249, in the third block of
    # NODE_BLOCK, is t = 44/1000.  f is NaN on that node's stencil alone.
    bad = _node(0.044)
    sizes = []

    @takes_arrays
    def f(p):
        sizes.append(p.c[0].size if isinstance(p, QArray) else 1)
        near = (p - bad).modulus_squared() < 2 * DEFAULT_H ** 2
        return type(p).from_real(np.where(near, math.nan, 1.0))

    _, point = _raised_as_scalar_loop(f, LADDER_Q0, LADDER_Q1, LADDER)
    assert Quaternion(*map(float.fromhex, point)) == bad + DEFAULT_H
    assert theorems.NODE_BLOCK == 128
    # Three calls on the ladder's nodes, none after the third block; then
    # the error path's replay of the first rung's 5 nodes, f(q1) and f(q0).
    sizes.clear()
    with pytest.raises(EvaluationError):
        mvt_left(f, LADDER_Q0, LADDER_Q1, panels=LADDER)
    assert sizes == [8 * 128] * 3 + [8 * 5, 1, 1]


def test_mvt_evaluation_counts(monkeypatch):
    calls = []
    evaluate = derivatives._evaluate
    counted = lambda f, p: calls.append(p) or evaluate(f, p)
    monkeypatch.setattr(derivatives, "_evaluate", counted)
    # A plain callable: eight stencil values per node, then f(q1) and f(q0).
    mvt_left(lambda p: p * p, Q0, Q1, panels=(16,))
    assert len(calls) == (16 + 1) * 8 + 2
    # An array form: the nodes go through f on arrays; only the ends are scalar.
    calls.clear()
    mvt_left(F_EXP, Q0, Q1, panels=(16,))
    assert calls == [Q1, Q0]


def test_theorem_commands_evaluate_through_the_derivatives_module(monkeypatch, capsys):
    # theorems held its own reference to _evaluate, so a patched
    # derivatives._evaluate counted none of these one-point evaluations.
    calls = []
    evaluate = derivatives._evaluate
    monkeypatch.setattr(derivatives, "_evaluate",
                        lambda f, p: calls.append(p) or evaluate(f, p))
    counts = {}
    for name in ("taylor", "mvt", "descend"):
        calls.clear()
        assert cli.main([name]) == 0
        counts[name] = len(calls)
    # taylor: f(q0) and f(q0 + lam) at five scales for each of four fits;
    # mvt: f(q1) and f(q0) for each of four functions; descend: each iterate.
    assert counts == {"taylor": 24, "mvt": 8, "descend": 68}


def test_taylor_run_takes_the_expansion_once_per_fit(monkeypatch, capsys):
    # Evaluated points: one per _evaluate call, and each stencil point that
    # an array form takes in one call (any other f goes through _evaluate).
    points = []
    evaluate = derivatives._evaluate
    counted = lambda f, p: points.append(1) or evaluate(f, p)
    monkeypatch.setattr(derivatives, "_evaluate", counted)
    evaluate_stencil = derivatives._evaluate_stencil

    def counted_stencil(f, stencil, levels):
        if has_array_form(f):
            points.append(stencil[0].size)
        return evaluate_stencil(f, stencil, levels)

    monkeypatch.setattr(derivatives, "_evaluate_stencil", counted_stencil)
    assert cli.main(["taylor"]) == 0
    # All four taylor functions have array forms.
    assert all(has_array_form(fn) for _, fn, _ in cli.TAYLOR_FUNCTIONS)
    # Four fits of five scales: f(q0), its eight stencil values and the 64
    # of the second-order grid once per fit, then f(q0 + lam) per scale.
    assert sum(points) == 4 * (1 + 8 + 64 + 5) == 312


def test_taylor_fit_evaluates_the_first_scale_point_first():
    # The fit takes f's expansion at q0 once, but only after f(q0 + lam) at
    # the first scale, so an f that fails everywhere fails there first.
    with pytest.raises(EvaluationError) as info:
        taylor_remainder_slope(lambda p: Quaternion(math.inf, 0.0, 0.0, 0.0), Q0, I, SCALES)
    assert info.value.point == Q0 + I * SCALES[0]


def first_order_error(f, q0, q1):
    """Error of the one-point approximation f(q1) - f(q0) by the derivative at q0."""
    return abs(f(q1) - f(q0) - derivatives.left_hr(f, q0).differential(q1 - q0))


# Relative slack mvt_error_bound_check allows on the bound 2 L |lambda|^2.
BOUND_SLACK = 0.1


def mvt_error_bound_check(f, q0: Quaternion, q1: Quaternion,
                          lipschitz: float) -> tuple[float, float, bool]:
    """The paper's mean value error bound: the observed error of the
    one-point approximation of f(q1) - f(q0) by the derivative at q0,
    against 2 L |lambda|^2.

    L is a Lipschitz constant for the derivative set along the segment,
    supplied by the caller.  Returns (observed, bound, within_bound) where the
    bound is allowed the relative slack BOUND_SLACK.
    """
    lam = q1 - q0
    approx = derivatives.left_hr(f, q0).differential(lam)
    observed = abs(derivatives._evaluate(f, q1) - derivatives._evaluate(f, q0) - approx)
    bound = 2.0 * lipschitz * lam.modulus_squared()
    return observed, bound, observed <= bound * (1.0 + BOUND_SLACK)


def test_first_order_error_bound():
    # The derivative set of q^2 is 1/2-Lipschitz per component pack; L = 2
    # covers the four-term sum along the segment.
    observed, bound, within = mvt_error_bound_check(f_sq, Q0, Q1, lipschitz=2.0)
    assert within
    assert observed <= bound * 1.1
    assert bound == pytest.approx(2.0 * 2.0 * (Q1 - Q0).modulus_squared())
    assert observed == first_order_error(f_sq, Q0, Q1)


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
    approx = _taylor2(_taylor2_parts(f_sq, Q0), lam, False)
    assert abs(f_sq(Q0 + lam) - approx) < 1e-5


def test_taylor_scale_validation():
    with pytest.raises(ValueError, match="four scales"):
        taylor_remainder_slope(f_sq, Q0, ONE, (1e-1, 1e-2, 1e-3))
    with pytest.raises(ValueError, match="strictly decreasing"):
        taylor_remainder_slope(f_sq, Q0, ONE, (1e-1, 1e-1, 1e-2, 1e-3))
    with pytest.raises(ValueError, match="two decades"):
        taylor_remainder_slope(f_sq, Q0, ONE, (1e-1, 8e-2, 6e-2, 4e-2))


@pytest.mark.parametrize("scales", [
    (1.0, 0.1, 0.01, 0.0),
    (1.0, 0.1, 0.01, -1.0),
    (1.0, 0.1, 0.01, math.nan),
    (math.inf, 1.0, 0.1, 0.01),
], ids=["zero", "negative", "nan", "inf"])
def test_taylor_rejects_a_scale_that_is_not_positive_and_finite(scales):
    # A zero scale divided the span check by zero, and a NaN or inf scale
    # reached f as a NaN or inf point.
    with pytest.raises(ValueError, match="positive and finite") as info:
        taylor_remainder_slope(f_sq, Q0, ONE, scales)
    assert str(tuple(scales)) in str(info.value)


@pytest.mark.parametrize("scale", [True, "0.1"], ids=["bool", "string"])
def test_taylor_rejects_a_scale_that_is_not_a_real_number(scale):
    # float() read True as a scale of 1.0 and the string "0.1" as 0.1.
    scales = (10.0, scale, 0.01, 0.001)
    with pytest.raises(ValueError, match=re.escape(f"scales must be a real number, "
                                                   f"got {scale!r}")):
        taylor_remainder_slope(f_sq, Q0, ONE, scales)


@pytest.mark.parametrize("direction", [
    Quaternion(0.0, 0.0, 0.0, 0.0),
    Quaternion(-0.0, 0.0, -0.0, 0.0),
    Quaternion(math.nan, 0.0, 0.0, 1.0),
    Quaternion(0.5, math.inf, 0.0, 0.0),
], ids=["zero", "signed_zero", "nan", "inf"])
def test_taylor_rejects_a_direction_that_is_zero_or_not_finite(direction):
    # A zero direction made every error 0.0 and came back at the floor, a
    # pass; a NaN one reached f as a NaN point.
    with pytest.raises(ValueError, match="direction must be nonzero and finite") as info:
        taylor_remainder_slope(lambda p: p * p * p, Q0, direction, SCALES)
    assert repr(direction) in str(info.value)


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


@pytest.mark.parametrize("max_iters", [2.5, 3.0, True, -1])
def test_descent_rejects_an_iteration_budget_that_is_not_a_count(max_iters):
    # range() raised a TypeError on a float, and True ran one iteration.
    with pytest.raises(ValueError, match="nonnegative integer"):
        _descend(0.4, max_iters=max_iters)


@pytest.mark.parametrize("grad_tol", [math.nan, -1e-8, -math.inf])
def test_descent_rejects_a_gradient_tolerance_that_is_nan_or_negative(grad_tol):
    # A NaN tolerance ran the whole budget: grad_norm < nan is never true.
    with pytest.raises(ValueError, match="grad_tol"):
        _descend(0.4, grad_tol=grad_tol)


@pytest.mark.parametrize("argument,value", [("alpha", True), ("alpha", "0.1"),
                                            ("grad_tol", True), ("grad_tol", "1e-8")])
def test_descent_rejects_a_step_or_tolerance_that_is_not_a_real_number(argument, value):
    # True ran as a step of 1 or a tolerance of 1, and "0.1" raised a bare TypeError.
    args = {"alpha": 0.4, "grad_tol": 1e-8, argument: value}
    objective = as_function(TableEntry(family="modulus_squared"))
    with pytest.raises(ValueError, match=re.escape(f"{argument} must be a real number, "
                                                   f"got {value!r}")):
        steepest_descent(objective, Quaternion(2.0, 1.0, 1.0, 1.0), **args)


@pytest.mark.parametrize("argument", ["alpha", "grad_tol"])
def test_descent_rejects_a_step_or_tolerance_past_a_doubles_range(argument):
    # float(10**400) raised a bare OverflowError.
    args = {"alpha": 0.4, "grad_tol": 1e-8, argument: 10 ** 400}
    objective = as_function(TableEntry(family="modulus_squared"))
    with pytest.raises(ValueError, match=f"{argument} must be a real number "
                                         f"within a double's range"):
        steepest_descent(objective, Quaternion(2.0, 1.0, 1.0, 1.0), **args)


def test_descent_numerical_gradient_agrees():
    objective = as_function(DESCENT_ENTRY)
    closed = steepest_descent(objective, Quaternion(0.0, 0.0, 0.0, 0.0), 0.4,
                              max_iters=5, grad_tol=0.0,
                              gradient=lambda p: conj_gradient(DESCENT_ENTRY, p))
    numerical = steepest_descent(objective, Quaternion(0.0, 0.0, 0.0, 0.0), 0.4,
                                 max_iters=5, grad_tol=0.0)
    for a, b in zip(closed.iterates, numerical.iterates):
        assert abs(a - b) < 1e-6


def descent_direction_gap(grad: Quaternion, direction: Quaternion) -> float:
    """Re(d f/dq * d) minus its minimum over unit directions.

    The minimizing unit direction is -(d f/dq)* / |d f/dq|; the gap is
    nonnegative for every other unit direction.
    """
    best = -abs(grad)
    return (grad * direction).a - best


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
        mvt_left(spiked, Q0, Q1, panels=(2,))


# Each theorem's point arguments, as a call that takes the point and f.
POINT_ARGUMENTS = {
    "q0": lambda p, f: mvt_left(f, p, Q1, panels=(4,)),
    "q1": lambda p, f: mvt_left(f, Q0, p, panels=(4,)),
    "taylor q0": lambda p, f: taylor_remainder_slope(f, p, I, SCALES),
    "q_init": lambda p, f: steepest_descent(f, p, 0.4),
}


@pytest.mark.parametrize("argument", POINT_ARGUMENTS)
@pytest.mark.parametrize("bad", [tuple(Q0), QArray(np.array([tuple(Q0)]).T),
                                 Quaternion(math.inf, 0.2, 0.3, 0.4),
                                 Quaternion(0.1, 0.2, math.nan, 0.4)],
                         ids=["tuple", "qarray", "inf", "nan"])
def test_theorems_reject_a_point_that_is_no_finite_quaternion(argument, bad):
    # These reached f: mvt_left at q1 = (inf, 0.2, 0.3, 0.4) raised an
    # EvaluationError at (nan, 0.2, 0.3, 0.4), inf * t at t = 0; a tuple q0
    # was a TypeError in mvt_left, an 8-tuple point in taylor_remainder_slope
    # and an AttributeError in steepest_descent.  A QArray of points, even a
    # finite one, failed deep inside each.
    key = argument.split()[-1]
    if isinstance(bad, Quaternion):
        message = f"{key} must be finite, got {format_quaternion(bad)}"
    else:
        message = f"{key} must be a Quaternion, got {bad!r}"
    seen = []
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        POINT_ARGUMENTS[argument](bad, lambda p: seen.append(p) or f_mod2(p))
    assert not seen


def test_mvt_rejects_a_segment_past_a_doubles_range():
    # Finite ends whose difference overflows: lam * t was NaN at t = 0.
    q0, q1 = Quaternion(-1e308, 0.0, 0.0, 0.0), Quaternion(1e308, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=re.escape("q1 - q0 must be finite, got inf+0i+0j+0k")):
        mvt_left(f_sq, q0, q1, panels=(4,))


@pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0, 0.0), QArray(np.eye(4)[:, :1])],
                         ids=["tuple", "qarray"])
def test_taylor_rejects_a_direction_that_is_no_quaternion(direction):
    message = f"direction must be a Quaternion, got {direction!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        taylor_remainder_slope(f_sq, Q0, direction, SCALES)


def test_descent_accepts_component_array_objective():
    target = Quaternion(0.5, -1.0, 0.25, 2.0)

    def objective(p):
        return np.array([(p - target).modulus_squared(), 0.0, 0.0, 0.0])

    trace = steepest_descent(objective, Quaternion(0.0, 0.0, 0.0, 0.0), 0.4,
                             grad_tol=1e-7)
    assert abs(trace.iterates[-1] - target) < 1e-6
    assert all(isinstance(value, float) for value in trace.values)
