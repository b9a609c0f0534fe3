"""Numerical HR and generalized HR (GHR) derivatives of quaternion functions.

A quaternion function f: H -> H is seen as a function of the four real
components (a, b, c, d).  The GHR derivatives with respect to q^mu and
q^(mu*) repackage the four real partials with the rotated units i^mu, j^mu,
k^mu attached on the right (left flavor) or on the left (right flavor):

    left   d f / d q^mu      = (f_a - (f_b i^mu + f_c j^mu + f_d k^mu)) / 4
    left   d f / d q^(mu*)   = (f_a + (f_b i^mu + f_c j^mu + f_d k^mu)) / 4
    right  d_r f / d q^mu    = (f_a - (i^mu f_b + j^mu f_c + k^mu f_d)) / 4

The rotated basis is what makes product and chain rules work for
non-analytic targets such as |q|^2.  The eight HR derivatives are the GHR
derivatives at the unit axes mu in {1, i, j, k}: rotating the fixed units by
mu = i, say, flips the signs of j and k, which gives the HR sign pattern of
q^i and q^(i*).

All partials come from central differences on one 8-point stencil; nothing
here requires f to be given in closed form.  One engine serves one point and
many: real_partials, the HR and GHR derivatives and second_order take a
Quaternion point, and then return Quaternions on Python floats, or a (4, N)
QArray of points, and then return QArrays of N quaternions, bit for bit the
one-point calls; the rule checks then return N residuals.  Each call builds
its stencil as one array, evaluates f on it (_evaluate_stencil: once for an
f marked with takes_arrays, point by point otherwise) and differences the
values.  Each check and each nested second derivative evaluates every
function once per stencil point and projects those partials as often as it
needs.  A rule check on many points raises the first error its array pass
meets, which need not be the first point's: identities replays a failed
round of rule draws draw by draw.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .quaternion import (AXES, UNITS, MuBasis, QArray, Quaternion, anywhere,
                         involute, mu_basis, rotate)

QFunction = Callable[[Quaternion], Quaternion]

# Central-difference steps, fixed for the whole engine: first order, and the
# outer step of the nested scheme for second order.
DEFAULT_H = 1e-6
DEFAULT_H2 = 1e-4

# An axis this small cannot be normalized meaningfully by rotation.
DEGENERATE_AXIS = 1e-9


class EvaluationError(ValueError):
    """A function produced a non-finite value at a stencil point."""

    def __init__(self, message: str, point: Quaternion):
        super().__init__(f"{message} at {tuple(point)}")
        self.point = point


class DegenerateAxisError(ValueError):
    """The shifted rotation axis g(q)*mu collapsed below the usable threshold."""


class RealPartials(NamedTuple):
    """Central-difference partials of f along the four real components."""

    d_qa: Quaternion
    d_qb: Quaternion
    d_qc: Quaternion
    d_qd: Quaternion


class DerivativeSet(NamedTuple):
    """The eight HR derivatives of f at a point, in one flavor: d f/dq^eta
    for eta = 1, i, j, k, then d f/dq^(eta*) in the same order."""

    wrt_q: Quaternion
    wrt_qi: Quaternion
    wrt_qj: Quaternion
    wrt_qk: Quaternion
    wrt_qc: Quaternion
    wrt_qic: Quaternion
    wrt_qjc: Quaternion
    wrt_qkc: Quaternion

    def wrt(self, axis: str, conj: bool = False) -> Quaternion:
        return self[AXES.index(axis) + (4 if conj else 0)]

    def differential(self, dq: Quaternion) -> Quaternion:
        """sum over eta in {1,i,j,k} of d f/dq^eta dq^eta, from zero in that order."""
        total = Quaternion(0.0, 0.0, 0.0, 0.0)
        for eta in AXES:
            total = total + self.wrt(eta) * involute(dq, eta)
        return total


class GhrPair(NamedTuple):
    """GHR derivatives with respect to q^mu and q^(mu*)."""

    d_mu: Quaternion
    d_mu_conj: Quaternion


def takes_arrays(f: QFunction) -> QFunction:
    """Declare that f, written with Quaternion operators alone, also maps a
    QArray of points to the QArray of its values, bit for bit."""
    f.takes_arrays = True
    return f


def has_array_form(f: QFunction) -> bool:
    return getattr(f, "takes_arrays", False)


def _evaluate(f: QFunction, p: Quaternion) -> Quaternion:
    value = f(p)
    if not isinstance(value, Quaternion):
        value = Quaternion.from_components(value)
    if not value.is_finite():
        raise EvaluationError("function evaluation is not finite", p)
    return value


# For each step h: the stencil offsets +h e and -h e for e in {1, i, j, k}
# as one (4, 4, 2) [component, axis, +/-] array, and inv = 1/2h.  Adding -h
# or -0.0 gives the bits of subtracting h or 0.0.
_STEPS = {h: (np.stack((h * np.eye(4), -h * np.eye(4)), axis=-1), 1.0 / (2.0 * h))
          for h in (DEFAULT_H, DEFAULT_H2)}


def _components(q: Quaternion | QArray) -> np.ndarray:
    """The components of a Quaternion point, (4,), or of a QArray's points."""
    return q.c if isinstance(q, QArray) else np.array(q)


def _stencil_array(comps: np.ndarray, h: float) -> np.ndarray:
    """The points comps + h e and comps - h e for e in {1, i, j, k}.

    ``comps`` holds quaternions on axis 0 with any element shape S; the
    result is laid out [component, axis, +/-, *S], so a stencil built on a
    stencil nests the new (axis, +/-) pair in front of the old one.
    """
    offsets = _STEPS[h][0]
    return np.add(comps[:, np.newaxis, np.newaxis],
                  offsets.reshape(offsets.shape + (1,) * (comps.ndim - 1)))


@functools.lru_cache(maxsize=None)
def _walk(ndim: int, levels: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axes of a stencil array nested ``levels`` deep in the order a
    point-by-point loop walks them (the components, the points, then each
    level's (axis, +/-) from the outermost level in), and its inverse."""
    pairs = [(2 * level + 1, 2 * level + 2) for level in reversed(range(levels))]
    order = (0, *range(2 * levels + 1, ndim), *(ax for pair in pairs for ax in pair))
    return order, tuple(np.argsort(order).tolist())


def _evaluate_stencil(f: QFunction, stencil: np.ndarray, levels: int) -> np.ndarray:
    """The components of f's values on a stencil nested ``levels`` deep,
    or at the points themselves for ``levels`` 0.

    The one place that looks for an array form: an f marked with
    takes_arrays is called once on the whole stencil, any other f point by
    point through _evaluate, in _walk's order.  Either way a non-finite
    value raises the EvaluationError of the first such point in that order.
    """
    order, inverse = _walk(stencil.ndim, levels)
    walked = stencil.transpose(order)
    if not has_array_form(f):
        values = [_evaluate(f, Quaternion(*p)) for p in walked.reshape(4, -1).T.tolist()]
        flat = np.fromiter(itertools.chain.from_iterable(values), float, 4 * len(values))
        return flat.reshape(-1, 4).T.reshape(walked.shape).transpose(inverse)
    # Python floats overflow silently; so do the arrays that stand for them.
    with np.errstate(over="ignore", invalid="ignore"):
        values = f(QArray(stencil)).c
    if not np.isfinite(values).all():
        first = np.argmin(np.isfinite(values.transpose(order)).all(axis=0).ravel())
        raise EvaluationError("function evaluation is not finite",
                              Quaternion.from_components(walked.reshape(4, -1)[:, first]))
    return values


def _central(plus: np.ndarray, minus: np.ndarray, h: float) -> np.ndarray:
    """(v+ - v-) / 2h from f's values at the + and - stencil points."""
    diffs = plus - minus
    diffs *= _STEPS[h][1]
    return diffs


def _differences(values: np.ndarray, h: float) -> list:
    """The four central differences of stencil values laid out [component,
    axis, +/-, *S]: Quaternions at one point (S empty), QArrays of element
    shape S otherwise."""
    # Python floats overflow silently; so do the arrays that stand for them.
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = _central(values[:, :, 0], values[:, :, 1], h)
    if diffs.ndim == 2:
        return [Quaternion(*d) for d in diffs.T.tolist()]
    return [QArray(diffs[:, e]) for e in range(4)]


def real_partials(f: QFunction, q: Quaternion | QArray) -> RealPartials:
    """Central differences (f(q + h e) - f(q - h e)) / 2h along e in {1,i,j,k},
    with h = DEFAULT_H, at a Quaternion q or at each of a QArray's (4, N)
    points.

    The stencil is laid out [component, axis, +/-, point], so the (4, N)
    per-point constants of an array-form f broadcast against it.  A
    non-finite value raises the EvaluationError that the points, one after
    another, would raise first.
    """
    stencil = _stencil_array(_components(q), DEFAULT_H)
    return RealPartials(*_differences(_evaluate_stencil(f, stencil, 1), DEFAULT_H))


# s + -0.0, which keeps every bit of s, then real_partials' stencil: its
# four + points, then its four - points.
_CENTRED_STEPS = np.concatenate([np.full((4, 1), -0.0),
                                 _STEPS[DEFAULT_H][0].transpose(0, 2, 1).reshape(4, 8)], axis=1)


def value_and_jacobian(f: QFunction, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(s) and the (4, 4) real Jacobian J[c, a] = d f_c / d s_a of an
    array-form f at the components s, (4,), of one point.

    One call of f on s and real_partials' stencil: J's column a is
    real_partials(f, s)[a] bit for bit, and a non-finite stencil value
    raises its EvaluationError.  f(s) itself may be non-finite.  It sets
    no np.errstate of its own, a cost on every QNGD step: the filter kernel
    calls it under one, as should any caller whose f may overflow.  Any
    non-finite stencil value makes its difference non-finite, so only then
    does the stencil get the exact check, which an overflow passes.
    """
    points = s[:, None] + _CENTRED_STEPS
    values = f(QArray(points)).c
    jacobian = _central(values[:, 1:5], values[:, 5:], DEFAULT_H)
    if not np.isfinite(jacobian).all():
        _evaluate_stencil(f, points[:, 1:].reshape(4, 2, 4).transpose(0, 2, 1), 1)
    return values[:, 0], jacobian


def _project(parts, basis: MuBasis, side: str) -> tuple[Quaternion, Quaternion]:
    """(d f/dq^mu, d f/dq^(mu*)) from the four real partials and mu's basis.

    ``side`` says where the rotated units multiply the partials: on the right
    for the left flavor, on the left for the right flavor.
    """
    fa, fb, fc, fd = parts
    if side == "left":
        mixed = fb * basis.i_mu + fc * basis.j_mu + fd * basis.k_mu
    elif side == "right":
        mixed = basis.i_mu * fb + basis.j_mu * fc + basis.k_mu * fd
    else:
        raise ValueError(f"flavor must be 'left' or 'right', got {side!r}")
    return (fa - mixed) * 0.25, (fa + mixed) * 0.25


def _basis(mu: Quaternion) -> MuBasis:
    # The unit axes' bases are built once; any other axis is rotated anew.
    for axis, basis in zip(HR_AXES, _HR_BASES):
        if mu is axis:
            return basis
    with np.errstate(over="ignore"):  # an overflowing axis is mu_basis's ValueError
        if anywhere(mu.modulus() < DEGENERATE_AXIS):
            raise DegenerateAxisError("degenerate rotation axis")
    return mu_basis(mu)


# The HR axes mu in {1, i, j, k} and their bases, built once: left_hr runs
# in the inner loop of the quadrature and descent checks, and _basis hands
# these objects the same bases.
HR_AXES = tuple(UNITS[axis] for axis in AXES)
_HR_BASES = tuple(mu_basis(mu) for mu in HR_AXES)


def hr_from_partials(parts, side: str) -> DerivativeSet:
    """The eight HR derivatives from f's four real partials.

    The partials may be Quaternions or QArrays; the set holds the same type.
    """
    plain, conj = zip(*(_project(parts, basis, side) for basis in _HR_BASES))
    return DerivativeSet(*plain, *conj)


def ghr_from_partials(parts, mu: Quaternion, side: str) -> GhrPair:
    """The GHR pair along mu from f's four real partials."""
    return GhrPair(*_project(parts, _basis(mu), side))


def left_hr(f: QFunction, q: Quaternion | QArray) -> DerivativeSet:
    """All eight left HR derivatives of f at q."""
    return hr_from_partials(real_partials(f, q), "left")


def right_hr(f: QFunction, q: Quaternion | QArray) -> DerivativeSet:
    """All eight right HR derivatives of f at q (units multiply from the left)."""
    return hr_from_partials(real_partials(f, q), "right")


def left_ghr(f: QFunction, q: Quaternion | QArray, mu) -> GhrPair:
    """Left GHR derivatives of f with respect to q^mu and q^(mu*).

    At a QArray of (4, N) points mu is one Quaternion or a (4, N) QArray
    with each point's own axis.
    """
    return ghr_from_partials(real_partials(f, q), mu, "left")


def right_ghr(f: QFunction, q: Quaternion | QArray, mu) -> GhrPair:
    """Right GHR derivatives of f with respect to q^mu and q^(mu*)."""
    return ghr_from_partials(real_partials(f, q), mu, "right")


class SecondOrderSet(NamedTuple):
    """Nested second-order GHR derivatives for axes (mu, nu).

    ``mu_nu`` is d^2 f / dq^mu dq^nu, the outer mu-derivative of the inner
    nu-derivative, and so on.  Mixed orders do not commute in general.
    """

    mu_nu: Quaternion
    mu_nu_conj: Quaternion
    mu_conj_nu: Quaternion
    mu_conj_nu_conj: Quaternion


def second_order(f: QFunction, q: Quaternion | QArray, mus: Sequence, nus: Sequence,
                 outer: str = "left", inner: str = "left") -> tuple[tuple[SecondOrderSet, ...], ...]:
    """Nested second-order derivatives of f at q for every pair of axes.

    Entry [m][n] is the outer ``outer``-flavor derivative along mus[m], with
    step DEFAULT_H2, of the inner ``inner``-flavor derivative field along
    nus[n], with step DEFAULT_H: 64 evaluations of f for the whole grid,
    on one (4, 4, 2, 4, 2, *S) stencil, the inner one built on the outer
    one.  At a QArray of (4, N) points each axis is one Quaternion for
    every point or a (4, N) QArray with one per point, and the grid's sets
    hold QArrays of N quaternions.
    """
    outer_bases = [_basis(mu) for mu in mus]
    inner_bases = [_basis(nu) for nu in nus]
    stencil = _stencil_array(_stencil_array(_components(q), DEFAULT_H2), DEFAULT_H)
    parts = _differences(_evaluate_stencil(f, stencil, 2), DEFAULT_H)
    # Each inner derivative is laid out [component, outer axis, +/-, *S].
    with np.errstate(over="ignore", invalid="ignore"):
        columns = [_differences(d.c, DEFAULT_H2) for basis in inner_bases
                   for d in _project(parts, basis, inner)]
    grid = []
    for basis in outer_bases:
        row = []
        for plain, conj in zip(columns[0::2], columns[1::2]):
            mu_nu, mu_conj_nu = _project(plain, basis, outer)
            mu_nu_conj, mu_conj_nu_conj = _project(conj, basis, outer)
            row.append(SecondOrderSet(mu_nu, mu_nu_conj, mu_conj_nu, mu_conj_nu_conj))
        grid.append(tuple(row))
    return tuple(grid)


def second_order_left(f: QFunction, q: Quaternion, mu: Quaternion,
                      nu: Quaternion) -> SecondOrderSet:
    """Second-order left derivatives by differentiating the inner derivative field."""
    return second_order(f, q, (mu,), (nu,), "left", "left")[0][0]


def second_order_right(f: QFunction, q: Quaternion, mu: Quaternion,
                       nu: Quaternion) -> SecondOrderSet:
    """Right-flavor counterpart of second_order_left."""
    return second_order(f, q, (mu,), (nu,), "right", "right")[0][0]


def _value(f: QFunction, q: Quaternion | QArray) -> Quaternion | QArray:
    """f(q), finite, at a Quaternion or at each of a QArray's points."""
    if isinstance(q, QArray):
        return QArray(_evaluate_stencil(f, q.c, 0))
    return _evaluate(f, q)


def _pick(halves, conjugate):
    """The d/dq^mu half of a projection, or the d/dq^(mu*) half where
    conjugate is true; an array of flags picks point by point."""
    if isinstance(conjugate, np.ndarray):
        return QArray(np.where(conjugate, halves[1].c, halves[0].c))
    return halves[1 if conjugate else 0]


def check_product_rule(f: QFunction, g: QFunction, q: Quaternion | QArray, mu,
                       conjugate=False):
    """Residual of the GHR product rule for f*g at q.

    d(fg)/dq^mu = f * dg/dq^mu + df/dq^(g(q) mu) * g, and the same shape for
    the conjugate variable with the shifted axis g(q) mu.  The shift uses the
    value of g at the point, so g(q) mu must stay away from zero.

    After g(q) and f(q), f and then g are evaluated on q's one stencil, so
    where both fail there the EvaluationError names f's first bad point.
    At a QArray of points, its axes each one Quaternion or a (4, N) QArray
    and conjugate a bool or an (N,) bool array, it returns N residuals.
    """
    gq = _value(g, q)
    shifted = _basis(gq * mu)
    fq = _value(f, q)
    basis = _basis(mu)
    stencil = _stencil_array(_components(q), DEFAULT_H)
    f_values = QArray(_evaluate_stencil(f, stencil, 1))
    g_values = QArray(_evaluate_stencil(g, stencil, 1))
    product_parts, g_parts, f_parts = (_differences(values.c, DEFAULT_H)
                                       for values in (f_values * g_values, g_values, f_values))
    lhs = _pick(_project(product_parts, basis, "left"), conjugate)
    rhs = fq * _pick(_project(g_parts, basis, "left"), conjugate) \
        + _pick(_project(f_parts, shifted, "left"), conjugate) * gq
    return abs(lhs - rhs)


def check_chain_rule(f: QFunction, g: QFunction, q: Quaternion | QArray, mu,
                     nu, conjugate=False):
    """Residual of the GHR chain rule for f(g(q)) at q.

    d f(g)/dq^mu = sum over eta in {1,i,j,k} of
    df/dg^(nu eta) * d g^(nu eta)/dq^mu, for any nonzero nu.

    g is evaluated at q and on q's stencil first, then f on its own stencil
    at g(q) and on g's stencil values, so where both fail the
    EvaluationError names g's first bad point.  At a QArray of points it
    returns N residuals, as check_product_rule does.
    """
    basis = _basis(mu)
    axes = [nu * UNITS[eta] for eta in AXES]
    axis_bases = [_basis(axis) for axis in axes]
    gq = _value(g, q)
    g_values = _evaluate_stencil(g, _stencil_array(_components(q), DEFAULT_H), 1)
    f_parts = real_partials(f, gq)
    composite = _differences(_evaluate_stencil(f, g_values, 1), DEFAULT_H)
    rotated = [rotate(QArray(g_values), axis).c for axis in axes]
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for axis_basis, values in zip(axis_bases, rotated):
        inner = _project(f_parts, axis_basis, "left")[0]
        total = total + inner * _pick(_project(_differences(values, DEFAULT_H), basis, "left"),
                                      conjugate)
    return abs(_pick(_project(composite, basis, "left"), conjugate) - total)


def conjugation_relation(f: QFunction, q: Quaternion, mu: Quaternion) -> float:
    """Largest residual among the four left/right conjugation identities.

    d_r f/dq^mu = (d f*/dq^(mu*))*, d_r f/dq^(mu*) = (d f*/dq^mu)*, and the
    two mirrored forms expressing the left derivatives through right ones.
    """
    return max(conjugation_residuals(real_partials(f, q), mu))


def conjugation_residuals(parts, mu: Quaternion) -> tuple:
    """The four residuals of conjugation_relation from f's real partials.

    The partials and mu may be Quaternions or QArrays.  f*'s partials are
    the conjugates of f's: negation commutes exactly with a central
    difference.
    """
    basis = _basis(mu)
    conj_parts = [p.conjugate() for p in parts]
    left_f = _project(parts, basis, "left")
    right_f = _project(parts, basis, "right")
    left_fc = _project(conj_parts, basis, "left")
    right_fc = _project(conj_parts, basis, "right")
    return (
        abs(right_f[0] - left_fc[1].conjugate()),
        abs(right_f[1] - left_fc[0].conjugate()),
        abs(left_f[0] - right_fc[1].conjugate()),
        abs(left_f[1] - right_fc[0].conjugate()),
    )


def differential_consistency(f: QFunction, q: Quaternion, dq: Quaternion) -> float:
    """Error of the first-order reconstruction df = sum d f/dq^eta dq^eta."""
    predicted = left_hr(f, q).differential(dq)
    actual = _evaluate(f, q + dq) - _evaluate(f, q)
    return abs(actual - predicted)
