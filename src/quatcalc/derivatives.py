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
here requires f to be given in closed form.  Each check and each nested
second derivative evaluates every function once per stencil point and
projects those partials as often as it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .quaternion import (AXES, UNITS, MuBasis, QArray, Quaternion, involute,
                         mu_basis, rotate)

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


@dataclass(frozen=True)
class DerivativeSet:
    """The eight HR derivatives of f at a point, in one flavor."""

    wrt_q: Quaternion
    wrt_qi: Quaternion
    wrt_qj: Quaternion
    wrt_qk: Quaternion
    wrt_qc: Quaternion
    wrt_qic: Quaternion
    wrt_qjc: Quaternion
    wrt_qkc: Quaternion
    flavor: str

    def wrt(self, axis: str, conj: bool = False) -> Quaternion:
        name = {"1": "q", "i": "qi", "j": "qj", "k": "qk"}[axis]
        return getattr(self, f"wrt_{name}c" if conj else f"wrt_{name}")

    def differential(self, dq: Quaternion) -> Quaternion:
        """sum over eta in {1,i,j,k} of d f/dq^eta dq^eta, from zero in that order."""
        total = Quaternion(0.0, 0.0, 0.0, 0.0)
        for eta in AXES:
            total = total + self.wrt(eta) * involute(dq, eta)
        return total


@dataclass(frozen=True)
class GhrPair:
    """GHR derivatives with respect to q^mu and q^(mu*)."""

    d_mu: Quaternion
    d_mu_conj: Quaternion
    mu: Quaternion


def _evaluate(f: QFunction, p: Quaternion) -> Quaternion:
    value = f(p)
    if not isinstance(value, Quaternion):
        value = Quaternion.from_components(value)
    if not value.is_finite():
        raise EvaluationError("function evaluation is not finite", p)
    return value


# For each step h: the offsets h e for e in {1, i, j, k}, and inv = 1/2h.
_STEPS = {h: (((h, 0.0, 0.0, 0.0), (0.0, h, 0.0, 0.0), (0.0, 0.0, h, 0.0),
               (0.0, 0.0, 0.0, h)), 1.0 / (2.0 * h))
          for h in (DEFAULT_H, DEFAULT_H2)}


def _stencil(q: Quaternion, h: float = DEFAULT_H):
    """The pairs (q + h e, q - h e) for e in {1, i, j, k}, and inv = 1/2h."""
    steps, inv = _STEPS[h]
    a, b, c, d = q
    points = [(Quaternion(a + oa, b + ob, c + oc, d + od),
               Quaternion(a - oa, b - ob, c - oc, d - od))
              for oa, ob, oc, od in steps]
    return points, inv


def real_partials(f: QFunction, q: Quaternion) -> RealPartials:
    """Central differences (f(q + h e) - f(q - h e)) / 2h along e in {1,i,j,k},
    with h = DEFAULT_H."""
    points, inv = _stencil(q)
    parts = [(_evaluate(f, plus) - _evaluate(f, minus)) * inv for plus, minus in points]
    return RealPartials(*parts)


def _field_partials(field: Callable[[Quaternion], Sequence[Quaternion]],
                    q: Quaternion,
                    h: float = DEFAULT_H) -> list[tuple[Quaternion, ...]]:
    """real_partials of each quaternion a field returns, one call per point.

    real_partials keeps its own single-output loop: it is the hot path.
    """
    points, inv = _stencil(q, h)
    rows = [[(p - m) * inv for p, m in zip(field(plus), field(minus))]
            for plus, minus in points]
    return list(zip(*rows))


def _project(parts, basis: MuBasis, side: str) -> tuple[Quaternion, Quaternion]:
    """(d f/dq^mu, d f/dq^(mu*)) from the four real partials and mu's basis.

    ``side`` says where the rotated units multiply the partials: on the right
    for the left flavor, on the left for the right flavor.
    """
    fa, fb, fc, fd = parts
    if side == "left":
        mixed = fb * basis.i_mu + fc * basis.j_mu + fd * basis.k_mu
    else:
        mixed = basis.i_mu * fb + basis.j_mu * fc + basis.k_mu * fd
    return (fa - mixed) * 0.25, (fa + mixed) * 0.25


def _basis(mu: Quaternion) -> MuBasis:
    if mu.modulus() < DEGENERATE_AXIS:
        raise DegenerateAxisError("degenerate rotation axis")
    return mu_basis(mu)


# The HR axes mu in {1, i, j, k} and their bases, built once: left_hr runs
# in the inner loop of the quadrature and descent checks.
HR_AXES = tuple(UNITS[axis] for axis in AXES)
_HR_BASES = tuple(mu_basis(mu) for mu in HR_AXES)


def hr_from_partials(parts, side: str) -> DerivativeSet:
    """The eight HR derivatives from f's four real partials.

    The partials may be Quaternions or QArrays; the set holds the same type.
    """
    plain, conj = zip(*(_project(parts, basis, side) for basis in _HR_BASES))
    return DerivativeSet(*plain, *conj, flavor=side)


def ghr_from_partials(parts, mu: Quaternion, side: str) -> GhrPair:
    """The GHR pair along mu from f's four real partials."""
    d_mu, d_mu_conj = _project(parts, _basis(mu), side)
    return GhrPair(d_mu=d_mu, d_mu_conj=d_mu_conj, mu=mu)


def left_conj_from_partials(parts) -> Quaternion:
    """Left d f/dq* from f's four real partials, as left_hr(f, q).wrt_qc has it."""
    return _project(parts, _HR_BASES[0], "left")[1]


def left_hr(f: QFunction, q: Quaternion) -> DerivativeSet:
    """All eight left HR derivatives of f at q."""
    return hr_from_partials(real_partials(f, q), "left")


def right_hr(f: QFunction, q: Quaternion) -> DerivativeSet:
    """All eight right HR derivatives of f at q (units multiply from the left)."""
    return hr_from_partials(real_partials(f, q), "right")


def takes_arrays(f: QFunction) -> QFunction:
    """Declare that f, written with Quaternion operators alone, also maps a
    QArray of points to the QArray of its values, bit for bit."""
    f.takes_arrays = True
    return f


def has_array_form(f: QFunction) -> bool:
    return getattr(f, "takes_arrays", False)


def left_hr_batch(f: QFunction, points: QArray) -> DerivativeSet:
    """left_hr of an array-form f at each of the (4, N) points, bit for bit.

    The derivative set holds QArrays of N quaternions.  One call of f takes
    all eight stencil points of every point.  A non-finite value raises the
    EvaluationError that left_hr, point by point, would raise first.
    """
    steps, inv = _STEPS[DEFAULT_H]
    offsets = np.array(steps).T[:, np.newaxis, :]
    base = points.c[:, :, np.newaxis]
    # [component, point, axis, +/-]: the scalar loop's evaluation order.
    stencil = np.stack((base + offsets, base - offsets), axis=-1)
    values = f(QArray(stencil)).c
    finite = np.isfinite(values).all(axis=0).ravel()
    if not finite.all():
        first = stencil.reshape(4, -1)[:, np.argmin(finite)]
        raise EvaluationError("function evaluation is not finite",
                              Quaternion.from_components(first))
    diffs = (values[..., 0] - values[..., 1]) * inv
    return hr_from_partials([QArray(diffs[..., e]) for e in range(4)], "left")


def left_ghr(f: QFunction, q: Quaternion, mu: Quaternion) -> GhrPair:
    """Left GHR derivatives of f with respect to q^mu and q^(mu*)."""
    return ghr_from_partials(real_partials(f, q), mu, "left")


def right_ghr(f: QFunction, q: Quaternion, mu: Quaternion) -> GhrPair:
    """Right GHR derivatives of f with respect to q^mu and q^(mu*)."""
    return ghr_from_partials(real_partials(f, q), mu, "right")


@dataclass(frozen=True)
class SecondOrderSet:
    """Nested second-order GHR derivatives for axes (mu, nu).

    ``mu_nu`` is d^2 f / dq^mu dq^nu, the outer mu-derivative of the inner
    nu-derivative, and so on.  Mixed orders do not commute in general.
    """

    mu_nu: Quaternion
    mu_nu_conj: Quaternion
    mu_conj_nu: Quaternion
    mu_conj_nu_conj: Quaternion


def second_order(f: QFunction, q: Quaternion, mus: Sequence[Quaternion],
                 nus: Sequence[Quaternion], outer: str = "left",
                 inner: str = "left") -> tuple[tuple[SecondOrderSet, ...], ...]:
    """Nested second-order derivatives of f at q for every pair of axes.

    Entry [m][n] is the outer ``outer``-flavor derivative along mus[m], with
    step DEFAULT_H2, of the inner ``inner``-flavor derivative field along
    nus[n], with step DEFAULT_H: 64 evaluations of f for the whole grid.
    """
    outer_bases = [_basis(mu) for mu in mus]
    inner_bases = [_basis(nu) for nu in nus]

    def field(p: Quaternion) -> list[Quaternion]:
        parts = real_partials(f, p)
        return [d for basis in inner_bases for d in _project(parts, basis, inner)]

    columns = _field_partials(field, q, DEFAULT_H2)
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


def check_product_rule(f: QFunction, g: QFunction, q: Quaternion, mu: Quaternion,
                       conjugate: bool = False) -> float:
    """Residual of the GHR product rule for f*g at q.

    d(fg)/dq^mu = f * dg/dq^mu + df/dq^(g(q) mu) * g, and the same shape for
    the conjugate variable with the shifted axis g(q) mu.  The shift uses the
    value of g at the point, so g(q) mu must stay away from zero.
    """
    gq = _evaluate(g, q)
    shifted = _basis(gq * mu)
    fq = _evaluate(f, q)
    basis = _basis(mu)

    def field(p: Quaternion) -> tuple[Quaternion, Quaternion, Quaternion]:
        fp = _evaluate(f, p)
        gp = _evaluate(g, p)
        return fp * gp, gp, fp

    product, g_parts, f_parts = _field_partials(field, q)
    pick = 1 if conjugate else 0
    lhs = _project(product, basis, "left")[pick]
    rhs = fq * _project(g_parts, basis, "left")[pick] \
        + _project(f_parts, shifted, "left")[pick] * gq
    return abs(lhs - rhs)


def check_chain_rule(f: QFunction, g: QFunction, q: Quaternion, mu: Quaternion,
                     nu: Quaternion, conjugate: bool = False) -> float:
    """Residual of the GHR chain rule for f(g(q)) at q.

    d f(g)/dq^mu = sum over eta in {1,i,j,k} of
    df/dg^(nu eta) * d g^(nu eta)/dq^mu, for any nonzero nu.
    """
    basis = _basis(mu)
    axes = [nu * UNITS[eta] for eta in AXES]
    axis_bases = [_basis(axis) for axis in axes]
    f_parts = real_partials(f, _evaluate(g, q))

    def field(p: Quaternion) -> list[Quaternion]:
        gp = _evaluate(g, p)
        return [_evaluate(f, gp)] + [rotate(gp, axis) for axis in axes]

    composite, *rotated = _field_partials(field, q)
    pick = 1 if conjugate else 0
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for axis_basis, parts in zip(axis_bases, rotated):
        inner = _project(f_parts, axis_basis, "left")[0]
        total = total + inner * _project(parts, basis, "left")[pick]
    return abs(_project(composite, basis, "left")[pick] - total)


def conjugation_relation(f: QFunction, q: Quaternion, mu: Quaternion) -> float:
    """Largest residual among the four left/right conjugation identities.

    d_r f/dq^mu = (d f*/dq^(mu*))*, d_r f/dq^(mu*) = (d f*/dq^mu)*, and the
    two mirrored forms expressing the left derivatives through right ones.
    f*'s partials are the conjugates of f's: negation commutes exactly with a
    central difference.
    """
    basis = _basis(mu)
    parts = real_partials(f, q)
    conj_parts = [p.conjugate() for p in parts]
    left_f = _project(parts, basis, "left")
    right_f = _project(parts, basis, "right")
    left_fc = _project(conj_parts, basis, "left")
    right_fc = _project(conj_parts, basis, "right")
    residuals = (
        abs(right_f[0] - left_fc[1].conjugate()),
        abs(right_f[1] - left_fc[0].conjugate()),
        abs(left_f[0] - right_fc[1].conjugate()),
        abs(left_f[1] - right_fc[0].conjugate()),
    )
    return max(residuals)


def differential_consistency(f: QFunction, q: Quaternion, dq: Quaternion) -> float:
    """Error of the first-order reconstruction df = sum d f/dq^eta dq^eta."""
    predicted = left_hr(f, q).differential(dq)
    actual = _evaluate(f, q + dq) - _evaluate(f, q)
    return abs(actual - predicted)
