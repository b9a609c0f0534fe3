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
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import derivatives
from .derivatives import (HR_AXES, EvaluationError, QFunction, ghr_from_partials,
                          has_array_form, hr_from_partials, left_hr, real_partials,
                          second_order, takes_arrays)
from .quaternion import (AXES, ONE, QArray, Quaternion, finite_quaternion, integer, involute,
                         involute_conj, ordered_sum, real_number)

# Error floor model for the remainder fit: second derivatives come from a
# nested difference scheme, so the expansion carries noise of roughly
# curvature_noise * |lambda|^2 on top of a small absolute term.
FLOOR_ABS = 1e-12
FLOOR_CURVATURE = 1e-4
# Simpson nodes per call of f in mvt_left, whose stencil, differences and
# projections take all nodes in one pass: enough to spread numpy's
# per-call cost, few enough that f's temporaries stay small.  The largest,
# square's Hamilton product on a (4, 4, 2, NODE_BLOCK) block, holds
# (4, 4, 4, 2, NODE_BLOCK) doubles.  On a 2-core guest 1024 timed within
# the spread of 128, best of 11 mvt calls, but its RSS peaked 2 MB higher.
NODE_BLOCK = 128


class DivergenceError(RuntimeError):
    """An iteration is moving away from any minimum."""


class SegmentCheck(NamedTuple):
    """Both sides of the mean value identity along one segment."""

    panels: int
    lhs: Quaternion
    rhs: Quaternion
    residual: float


class TaylorFit(NamedTuple):
    """Remainder decay of the second-order expansion across shrinking scales."""

    scales: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float
    at_floor: bool


class DescentTrace(NamedTuple):
    """Iterates, objective values and gradient norms of a descent run."""

    iterates: tuple[Quaternion, ...]
    values: tuple[float, ...]
    grad_norms: tuple[float, ...]


def _simpson(values: np.ndarray, width: float) -> Quaternion:
    """Composite Simpson over the (4, odd n) node values of an even number of
    panels: (v_0 + v_last) + 4 v_1 + 2 v_2 + ..., in order from zero."""
    weights = np.where(np.arange(1, values.shape[1] - 1) % 2, 4.0, 2.0)
    terms = np.concatenate(((values[:, 0] + values[:, -1])[:, np.newaxis],
                            values[:, 1:-1] * weights), axis=1)
    return Quaternion.from_components(ordered_sum(terms)) * (width / 3.0)


def _real_integrand(d_q, lam: Quaternion):
    """4 Re(d f/dq lambda), the real form's integrand, from d f/dq."""
    head = d_q * lam
    return type(head).from_real(4.0 * head.a)


def _finite_point(key: str, value) -> None:
    """Check that value is one finite Quaternion, else a ValueError naming
    key: a QArray of points is no point here."""
    if not isinstance(value, Quaternion):
        raise ValueError(f"{key} must be a Quaternion, got {value!r}")
    finite_quaternion(key, value)


def _in_blocks(f: QFunction) -> QFunction:
    """An array-form f called on NODE_BLOCK nodes, the last axis of its
    argument, at a time.  After a block with a non-finite value the later
    blocks stay NaN and f never sees them: the stencil check then raises at
    that block's first bad point, as one call would.  Any other f is f.
    The blocks are cut here, not in real_partials: an f there may carry one
    constant per point, which a slice of the points would not match."""
    if not has_array_form(f):
        return f

    @takes_arrays
    def blocked(p: QArray) -> QArray:
        values = np.full(p.c.shape, math.nan)
        for start in range(0, p.c.shape[-1], NODE_BLOCK):
            block = np.s_[..., start:start + NODE_BLOCK]
            values[block] = f(QArray(p.c[block])).c
            if not np.isfinite(values[block]).all():
                break
        return QArray(values)

    return blocked


def _node_values(f: QFunction, q0: Quaternion, lam: Quaternion, t: np.ndarray,
                 real_form: bool) -> np.ndarray:
    """The (4, len(t)) integrand values at the nodes q0 + lam * t: sum over
    eta of d f/dq^eta lambda^eta from the HR set, or for the real form d f/dq
    alone, the GHR derivative at mu = 1.  One derivative pass serves every
    node, with f taking them NODE_BLOCK at a time; each step is elementwise,
    so the bits are those of a pass per block."""
    nodes = q0 + QArray(np.multiply.outer(np.array(lam), t))
    with np.errstate(over="ignore", invalid="ignore"):
        parts = real_partials(_in_blocks(f), nodes)
        if real_form:
            return _real_integrand(ghr_from_partials(parts, ONE, "left").d_mu, lam).c
        return hr_from_partials(parts, "left").differential(lam).c


def mvt_left(f: QFunction, q0: Quaternion, q1: Quaternion,
             panels: tuple[int, ...] = (1000,),
             real_form: bool = False) -> tuple[SegmentCheck, ...]:
    """Check f(q1) - f(q0) against the segment integral of the derivative.

    The right-hand side integrates sum over eta of d f/dq^eta * lambda^eta
    for t in [0, 1] with lambda = q1 - q0, by composite Simpson quadrature.
    With ``real_form`` the real-valued corollary 4 Re(d f/dq * lambda) is
    integrated instead, with d f/dq the GHR derivative at mu = 1.  All nodes
    share one stencil and one derivative pass, as QArrays; only f takes the
    stencil NODE_BLOCK nodes at a time: an f with an array form is called
    once per block, any other f point by point, with the same bits.  q0 and
    q1 must be finite Quaternions, and so must their difference.

    ``panels`` is a refinement ladder, a tuple of panel counts: one check
    per rung comes back, in order, each with the bits of a one-rung call.
    Rungs share nodes (t = k / panels is correctly rounded, so equal nodes
    have equal bits), and each node is evaluated once: the nodes of the
    first rung that holds them, rung by rung, each rung's in order of t.  So
    a non-finite value raises the error that one call per rung would raise
    first.
    """
    _finite_point("q0", q0)
    _finite_point("q1", q1)
    if not isinstance(panels, tuple) or not panels or any(
            integer("panels", p, 2, "a tuple of even integers >= 2") % 2 for p in panels):
        raise ValueError(f"panels must be a tuple of even integers >= 2, got {panels!r}")
    lam = q1 - q0
    finite_quaternion("q1 - q0", lam)
    ladder = [np.arange(p + 1) / p for p in panels]
    # Each distinct node once, in the order of its first place in the rungs;
    # columns[r] holds the places of rung r's nodes among them.
    distinct, first, inverse = np.unique(np.concatenate(ladder), return_index=True,
                                         return_inverse=True)
    order = np.argsort(first)
    columns = np.split(np.argsort(order)[inverse], np.cumsum([len(r) for r in ladder[:-1]]))
    t = distinct[order]
    try:
        values = _node_values(f, q0, lam, t, real_form)
    except EvaluationError:
        # One call per rung takes f(q1) - f(q0) after the first rung's
        # nodes: an error of theirs, then one of the ends, comes first.
        _node_values(f, q0, lam, ladder[0], real_form)
        derivatives._evaluate(f, q1) - derivatives._evaluate(f, q0)
        raise
    lhs = derivatives._evaluate(f, q1) - derivatives._evaluate(f, q0)
    checks = []
    for p, cols in zip(panels, columns):
        rhs = _simpson(values[:, cols], 1.0 / p)
        checks.append(SegmentCheck(panels=p, lhs=lhs, rhs=rhs, residual=abs(lhs - rhs)))
    return tuple(checks)


def _taylor2_parts(f: QFunction, q0: Quaternion):
    """What the second-order expansion of f at q0 takes from f: f(q0), its
    left HR derivatives and the nested second-order grid."""
    # grid[n][m]: the outer nu-derivative of the inner mu-derivative field.
    return derivatives._evaluate(f, q0), left_hr(f, q0), second_order(f, q0, HR_AXES, HR_AXES)


def _taylor2(parts, lam: Quaternion, center: bool) -> Quaternion:
    """The second-order expansion of f at q0 + lam from _taylor2_parts:

    f(q0) + sum_mu d f/dq^mu lam^mu
          + 1/2 sum_{mu,nu} d^2 f/dq^nu dq^mu lam^nu lam^mu

    over mu, nu in {1, i, j, k}.  With ``center`` the quadratic term is the
    conjugate-sandwich variant 1/2 sum lam^(mu*) d^2 f/dq^nu dq^(mu*) lam^nu,
    which agrees for real-valued f.
    """
    base, first_set, grid = parts
    # lam^mu and lam^(mu*) for mu in {1, i, j, k}, once for all 16 terms.
    lams = [involute(lam, mu) for mu in AXES]
    lam_conjs = [involute_conj(lam, mu) for mu in AXES]
    total = base
    for mu, lam_mu in zip(AXES, lams):
        total = total + first_set.wrt(mu) * lam_mu
    half = Quaternion(0.0, 0.0, 0.0, 0.0)
    for m in range(4):
        for n in range(4):
            if center:
                term = lam_conjs[m] * grid[n][m].mu_nu_conj * lams[n]
            else:
                term = grid[n][m].mu_nu * lams[n] * lams[m]
            half = half + term
    return total + half * 0.5


def taylor_remainder_slope(f: QFunction, q0: Quaternion, direction: Quaternion,
                           scales: Sequence[float], center: bool = False) -> TaylorFit:
    """Fit the log-log decay rate of the second-order remainder.

    Needs at least four positive, finite, strictly decreasing scales spanning
    two decades.  Scales whose error sits below the numerical floor
    (absolute term plus curvature noise times |lambda|^2) are excluded from
    the fit; when fewer than two scales survive, the expansion is exact to
    the floor and the slope is reported as nan.  f's value and derivatives
    at q0 are taken once and serve every scale.  The direction must be
    nonzero and finite: a zero one makes every error 0.0, a fit at the floor.
    q0 must be a finite Quaternion.
    """
    _finite_point("q0", q0)
    if not isinstance(direction, Quaternion):
        raise ValueError(f"direction must be a Quaternion, got {direction!r}")
    if not (direction.is_finite() and any(direction)):
        raise ValueError(f"direction must be nonzero and finite, got {direction!r}")
    scales = tuple(real_number("scales", s) for s in scales)
    if len(scales) < 4:
        raise ValueError("need at least four scales")
    if not all(math.isfinite(s) and s > 0.0 for s in scales):
        raise ValueError(f"scales must be positive and finite, got {scales}")
    if any(s2 >= s1 for s1, s2 in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    if scales[0] / scales[-1] < 100.0:
        raise ValueError("scales must span at least two decades")
    parts = None
    errors = []
    used = []
    for s in scales:
        lam = direction * s
        value = derivatives._evaluate(f, q0 + lam)
        if parts is None:
            # After f(q0 + lam) at the first scale, as when each scale takes
            # the expansion anew, so a failing f raises the same error.
            parts = _taylor2_parts(f, q0)
        err = abs(value - _taylor2(parts, lam, center))
        floor = FLOOR_ABS + FLOOR_CURVATURE * lam.modulus_squared()
        errors.append(err)
        used.append(err > floor)
    if sum(used) < 2:
        return TaylorFit(scales, tuple(errors), float("nan"), True)
    logs = np.log([s for s, u in zip(scales, used) if u])
    loge = np.log([e for e, u in zip(errors, used) if u])
    slope = float(np.polyfit(logs, loge, 1)[0])
    return TaylorFit(scales, tuple(errors), slope, False)


def steepest_descent(f: QFunction, q_init: Quaternion, alpha: float,
                     max_iters: int = 100, grad_tol: float = 1e-8,
                     gradient: Optional[Callable[[Quaternion], Quaternion]] = None
                     ) -> DescentTrace:
    """Minimize a real-valued f by stepping against the conjugate gradient.

    The update is q <- q - alpha * d f/dq*, with the gradient either supplied
    in closed form or taken from the numerical engine.  Ten consecutive
    objective increases abort the run.  q_init must be a finite Quaternion.
    """
    _finite_point("q_init", q_init)
    alpha, grad_tol = real_number("alpha", alpha), real_number("grad_tol", grad_tol)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("step size must be positive and finite")
    integer("iteration budget", max_iters, 0, "a nonnegative integer")
    # NaN would never stop the run: grad_norm < nan is always false.
    if not grad_tol >= 0.0:
        raise ValueError(f"grad_tol must be nonnegative, got {grad_tol!r}")
    grad = gradient if gradient is not None else (lambda p: left_hr(f, p).wrt_qc)
    q = q_init
    iterates = [q]
    values = [derivatives._evaluate(f, q).a]
    g = grad(q)
    grad_norms = [abs(g)]
    rising = 0
    for _ in range(max_iters):
        if grad_norms[-1] < grad_tol:
            break
        q = q - g * alpha
        iterates.append(q)
        values.append(derivatives._evaluate(f, q).a)
        g = grad(q)
        grad_norms.append(abs(g))
        if values[-1] > values[-2]:
            rising += 1
            if rising >= 10:
                raise DivergenceError("step size too large")
        else:
            rising = 0
    return DescentTrace(tuple(iterates), tuple(values), tuple(grad_norms))

