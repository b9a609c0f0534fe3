"""Segment-level consequences of the GHR calculus.

The mean value theorem here is an integral identity: the increment of f along
a segment equals the integral of the four-involution derivative pairing with
the segment direction.  The second-order Taylor expansion uses the same
derivative engine twice.  Both are checked numerically, which is what this
module exists for; steepest descent closes the loop from calculus to
optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

from .derivatives import (HR_AXES, DerivativeSet, QFunction, _evaluate,
                          has_array_form, left_hr, left_hr_batch, second_order)
from .quaternion import AXES, QArray, Quaternion, involute, involute_conj

# Error floor model for the remainder fit: second derivatives come from a
# nested difference scheme, so the expansion carries noise of roughly
# curvature_noise * |lambda|^2 on top of a small absolute term.
FLOOR_ABS = 1e-12
FLOOR_CURVATURE = 1e-4
# Relative slack mvt_error_bound_check allows on the bound 2 L |lambda|^2.
BOUND_SLACK = 0.1
# Simpson nodes per array pass of mvt_left: enough to spread numpy's
# per-call cost, few enough that the stencil temporaries stay small.
NODE_BLOCK = 64


class DivergenceError(RuntimeError):
    """An iteration is moving away from any minimum."""


@dataclass(frozen=True)
class SegmentCheck:
    """Both sides of the mean value identity along one segment."""

    q0: Quaternion
    q1: Quaternion
    panels: int
    lhs: Quaternion
    rhs: Quaternion
    residual: float


@dataclass(frozen=True)
class TaylorFit:
    """Remainder decay of the second-order expansion across shrinking scales."""

    base_point: Quaternion
    direction: Quaternion
    scales: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float
    at_floor: bool
    used: tuple[bool, ...]


@dataclass(frozen=True)
class DescentTrace:
    """Iterates, objective values and gradient norms of a descent run."""

    iterates: tuple[Quaternion, ...]
    values: tuple[float, ...]
    grad_norms: tuple[float, ...]
    step: float


def _simpson(values: np.ndarray, width: float) -> Quaternion:
    """Composite Simpson over the (4, odd n) node values of an even number of
    panels: (v_0 + v_last) + 4 v_1 + 2 v_2 + ..., added left to right."""
    weights = np.where(np.arange(1, values.shape[1] - 1) % 2, 4.0, 2.0)
    terms = np.concatenate(((values[:, 0] + values[:, -1])[:, np.newaxis],
                            values[:, 1:-1] * weights), axis=1)
    total = np.add.accumulate(terms, axis=1)[:, -1]
    return Quaternion.from_components(total) * (width / 3.0)


def _integrand(ds: DerivativeSet, lam: Quaternion, real_form: bool):
    """sum over eta of d f/dq^eta lambda^eta, or 4 Re(d f/dq lambda)."""
    if not real_form:
        return ds.differential(lam)
    head = ds.wrt_q * lam
    return type(head).from_real(4.0 * head.a)


def mvt_left(f: QFunction, q0: Quaternion, q1: Quaternion, panels: int = 1000,
             real_form: bool = False) -> SegmentCheck:
    """Check f(q1) - f(q0) against the segment integral of the derivative.

    The right-hand side integrates sum over eta of d f/dq^eta * lambda^eta
    for t in [0, 1] with lambda = q1 - q0, by composite Simpson quadrature.
    With ``real_form`` the real-valued corollary 4 Re(d f/dq * lambda) is
    integrated instead.  An f with an array form is evaluated NODE_BLOCK
    nodes at a time on component arrays, bit for bit as the scalar loop.
    """
    if not isinstance(panels, Integral) or isinstance(panels, bool) \
            or panels < 2 or panels % 2 != 0:
        raise ValueError("panels must be an even integer >= 2")
    lam = q1 - q0
    if has_array_form(f):
        values = np.empty((4, panels + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, panels + 1, NODE_BLOCK):
                t = np.arange(start, min(start + NODE_BLOCK, panels + 1)) / panels
                nodes = q0 + QArray(np.multiply.outer(np.array(lam), t))
                ds = left_hr_batch(f, nodes)
                values[:, start:start + len(t)] = _integrand(ds, lam, real_form).c
    else:
        values = np.array([
            _integrand(left_hr(f, q0 + lam * (idx / panels)), lam, real_form)
            for idx in range(panels + 1)]).T
    rhs = _simpson(values, 1.0 / panels)
    lhs = _evaluate(f, q1) - _evaluate(f, q0)
    return SegmentCheck(q0=q0, q1=q1, panels=panels, lhs=lhs, rhs=rhs,
                        residual=abs(lhs - rhs))


def first_order_error(f: QFunction, q0: Quaternion, q1: Quaternion) -> float:
    """Error of the one-point approximation f(q1) - f(q0) by the derivative at q0."""
    approx = left_hr(f, q0).differential(q1 - q0)
    return abs(_evaluate(f, q1) - _evaluate(f, q0) - approx)


def mvt_error_bound_check(f: QFunction, q0: Quaternion, q1: Quaternion,
                          lipschitz: float) -> tuple[float, float, bool]:
    """Observed first-order error against the bound 2 L |lambda|^2.

    L is a Lipschitz constant for the derivative set along the segment,
    supplied by the caller.  Returns (observed, bound, within_bound) where the
    bound is allowed the relative slack BOUND_SLACK.
    """
    lam = q1 - q0
    observed = first_order_error(f, q0, q1)
    bound = 2.0 * lipschitz * lam.modulus_squared()
    return observed, bound, observed <= bound * (1.0 + BOUND_SLACK)


def taylor2_left(f: QFunction, q0: Quaternion, lam: Quaternion,
                 center: bool = False) -> Quaternion:
    """Second-order expansion of f at q0 + lam.

    f(q0) + sum_mu d f/dq^mu lam^mu
          + 1/2 sum_{mu,nu} d^2 f/dq^nu dq^mu lam^nu lam^mu

    over mu, nu in {1, i, j, k}.  With ``center`` the quadratic term is the
    conjugate-sandwich variant 1/2 sum lam^(mu*) d^2 f/dq^nu dq^(mu*) lam^nu,
    which agrees for real-valued f.
    """
    base = _evaluate(f, q0)
    first_set = left_hr(f, q0)
    total = base
    for mu in AXES:
        total = total + first_set.wrt(mu) * involute(lam, mu)
    # grid[n][m]: the outer nu-derivative of the inner mu-derivative field.
    grid = second_order(f, q0, HR_AXES, HR_AXES)
    half = Quaternion(0.0, 0.0, 0.0, 0.0)
    for m, mu in enumerate(AXES):
        for n, nu in enumerate(AXES):
            if center:
                term = involute_conj(lam, mu) * grid[n][m].mu_nu_conj * involute(lam, nu)
            else:
                term = grid[n][m].mu_nu * involute(lam, nu) * involute(lam, mu)
            half = half + term
    return total + half * 0.5


def taylor_remainder_slope(f: QFunction, q0: Quaternion, direction: Quaternion,
                           scales: Sequence[float], center: bool = False) -> TaylorFit:
    """Fit the log-log decay rate of the second-order remainder.

    Needs at least four strictly decreasing scales spanning two decades.
    Scales whose error sits below the numerical floor (absolute term plus
    curvature noise times |lambda|^2) are excluded from the fit; when fewer
    than two scales survive, the expansion is exact to the floor and the
    slope is reported as nan.
    """
    scales = tuple(float(s) for s in scales)
    if len(scales) < 4:
        raise ValueError("need at least four scales")
    if any(s2 >= s1 for s1, s2 in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    if scales[0] / scales[-1] < 100.0:
        raise ValueError("scales must span at least two decades")
    errors = []
    used = []
    for s in scales:
        lam = direction * s
        err = abs(_evaluate(f, q0 + lam) - taylor2_left(f, q0, lam, center))
        floor = FLOOR_ABS + FLOOR_CURVATURE * lam.modulus_squared()
        errors.append(err)
        used.append(err > floor)
    if sum(used) < 2:
        return TaylorFit(q0, direction, scales, tuple(errors), float("nan"),
                         True, tuple(used))
    logs = np.log([s for s, u in zip(scales, used) if u])
    loge = np.log([e for e, u in zip(errors, used) if u])
    slope = float(np.polyfit(logs, loge, 1)[0])
    return TaylorFit(q0, direction, scales, tuple(errors), slope, False, tuple(used))


def steepest_descent(f: QFunction, q_init: Quaternion, alpha: float,
                     max_iters: int = 100, grad_tol: float = 1e-8,
                     gradient: Optional[Callable[[Quaternion], Quaternion]] = None
                     ) -> DescentTrace:
    """Minimize a real-valued f by stepping against the conjugate gradient.

    The update is q <- q - alpha * d f/dq*, with the gradient either supplied
    in closed form or taken from the numerical engine.  Ten consecutive
    objective increases abort the run.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("step size must be positive and finite")
    if max_iters < 0:
        raise ValueError("iteration budget must be nonnegative")
    grad = gradient if gradient is not None else (lambda p: left_hr(f, p).wrt_qc)
    q = q_init
    iterates = [q]
    values = [_evaluate(f, q).a]
    g = grad(q)
    grad_norms = [abs(g)]
    rising = 0
    for _ in range(max_iters):
        if grad_norms[-1] < grad_tol:
            break
        q = q - g * alpha
        iterates.append(q)
        values.append(_evaluate(f, q).a)
        g = grad(q)
        grad_norms.append(abs(g))
        if values[-1] > values[-2]:
            rising += 1
            if rising >= 10:
                raise DivergenceError("step size too large")
        else:
            rising = 0
    return DescentTrace(tuple(iterates), tuple(values), tuple(grad_norms), alpha)


def descent_direction_gap(grad: Quaternion, direction: Quaternion) -> float:
    """Re(d f/dq * d) minus its minimum over unit directions.

    The minimizing unit direction is -(d f/dq)* / |d f/dq|; the gap is
    nonnegative for every other unit direction.
    """
    best = -abs(grad)
    return (grad * direction).a - best
