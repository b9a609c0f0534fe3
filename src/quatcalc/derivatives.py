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

All partials come from central differences; nothing here requires f to be
given in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .quaternion import (AXES, UNITS, MuBasis, Quaternion, involute, mu_basis,
                         rotate)

QFunction = Callable[[Quaternion], Quaternion]

# Central-difference step defaults: first order, and the outer step of the
# nested scheme for second order.
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


@dataclass(frozen=True)
class RealPartials:
    """Central-difference partials of f along the four real components."""

    d_qa: Quaternion
    d_qb: Quaternion
    d_qc: Quaternion
    d_qd: Quaternion
    point: Quaternion
    step: float

    def as_tuple(self):
        return (self.d_qa, self.d_qb, self.d_qc, self.d_qd)


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


def real_partials(f: QFunction, q: Quaternion, h: float = DEFAULT_H) -> RealPartials:
    """Central differences (f(q + h e) - f(q - h e)) / 2h along e in {1,i,j,k}."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    a, b, c, d = q
    inv = 1.0 / (2.0 * h)
    partials = []
    for offsets in ((h, 0.0, 0.0, 0.0), (0.0, h, 0.0, 0.0),
                    (0.0, 0.0, h, 0.0), (0.0, 0.0, 0.0, h)):
        plus = Quaternion(a + offsets[0], b + offsets[1], c + offsets[2], d + offsets[3])
        minus = Quaternion(a - offsets[0], b - offsets[1], c - offsets[2], d - offsets[3])
        partials.append((_evaluate(f, plus) - _evaluate(f, minus)) * inv)
    return RealPartials(partials[0], partials[1], partials[2], partials[3], q, h)


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


# Bases of the HR axes mu in {1, i, j, k}, built once: left_hr runs in the
# inner loop of the quadrature and descent checks.
_HR_BASES = tuple(mu_basis(UNITS[axis]) for axis in AXES)


def _hr(f: QFunction, q: Quaternion, h: float, side: str) -> DerivativeSet:
    parts = real_partials(f, q, h).as_tuple()
    plain, conj = zip(*(_project(parts, basis, side) for basis in _HR_BASES))
    return DerivativeSet(*plain, *conj, flavor=side)


def left_conj_from_partials(parts) -> Quaternion:
    """Left d f/dq* from f's four real partials, as left_hr(f, q).wrt_qc has it."""
    return _project(parts, _HR_BASES[0], "left")[1]


def left_hr(f: QFunction, q: Quaternion, h: float = DEFAULT_H) -> DerivativeSet:
    """All eight left HR derivatives of f at q."""
    return _hr(f, q, h, "left")


def right_hr(f: QFunction, q: Quaternion, h: float = DEFAULT_H) -> DerivativeSet:
    """All eight right HR derivatives of f at q (units multiply from the left)."""
    return _hr(f, q, h, "right")


def _ghr(f: QFunction, q: Quaternion, mu: Quaternion, h: float,
         side: str) -> GhrPair:
    if mu.modulus() < DEGENERATE_AXIS:
        raise DegenerateAxisError("degenerate rotation axis")
    basis = mu_basis(mu)
    d_mu, d_mu_conj = _project(real_partials(f, q, h).as_tuple(), basis, side)
    return GhrPair(d_mu=d_mu, d_mu_conj=d_mu_conj, mu=mu)


def left_ghr(f: QFunction, q: Quaternion, mu: Quaternion,
             h: float = DEFAULT_H) -> GhrPair:
    """Left GHR derivatives of f with respect to q^mu and q^(mu*)."""
    return _ghr(f, q, mu, h, "left")


def right_ghr(f: QFunction, q: Quaternion, mu: Quaternion,
              h: float = DEFAULT_H) -> GhrPair:
    """Right GHR derivatives of f with respect to q^mu and q^(mu*)."""
    return _ghr(f, q, mu, h, "right")


@dataclass(frozen=True)
class SecondOrderSet:
    """Nested second-order GHR derivatives of one flavor for axes (mu, nu).

    ``mu_nu`` is d^2 f / dq^mu dq^nu, the outer mu-derivative of the inner
    nu-derivative, and so on.  Mixed orders do not commute in general.
    """

    mu_nu: Quaternion
    mu_nu_conj: Quaternion
    mu_conj_nu: Quaternion
    mu_conj_nu_conj: Quaternion


def _second_order(ghr, f: QFunction, q: Quaternion, mu: Quaternion,
                  nu: Quaternion, h2: float, h: float) -> SecondOrderSet:
    def inner(p: Quaternion) -> GhrPair:
        return ghr(f, p, nu, h)

    outer_plain = ghr(lambda p: inner(p).d_mu, q, mu, h2)
    outer_conj = ghr(lambda p: inner(p).d_mu_conj, q, mu, h2)
    return SecondOrderSet(
        mu_nu=outer_plain.d_mu,
        mu_nu_conj=outer_conj.d_mu,
        mu_conj_nu=outer_plain.d_mu_conj,
        mu_conj_nu_conj=outer_conj.d_mu_conj,
    )


def second_order_left(f: QFunction, q: Quaternion, mu: Quaternion, nu: Quaternion,
                      h2: float = DEFAULT_H2, h: float = DEFAULT_H) -> SecondOrderSet:
    """Second-order left derivatives by differentiating the inner derivative field."""
    return _second_order(left_ghr, f, q, mu, nu, h2, h)


def second_order_right(f: QFunction, q: Quaternion, mu: Quaternion, nu: Quaternion,
                       h2: float = DEFAULT_H2, h: float = DEFAULT_H) -> SecondOrderSet:
    """Right-flavor counterpart of second_order_left."""
    return _second_order(right_ghr, f, q, mu, nu, h2, h)


def check_product_rule(f: QFunction, g: QFunction, q: Quaternion, mu: Quaternion,
                       h: float = DEFAULT_H, conjugate: bool = False) -> float:
    """Residual of the GHR product rule for f*g at q.

    d(fg)/dq^mu = f * dg/dq^mu + df/dq^(g(q) mu) * g, and the same shape for
    the conjugate variable with the shifted axis g(q) mu.  The shift uses the
    value of g at the point, so g(q) mu must stay away from zero.
    """
    gq = _evaluate(g, q)
    axis = gq * mu
    if axis.modulus() < DEGENERATE_AXIS:
        raise DegenerateAxisError("degenerate rotation axis")
    fq = _evaluate(f, q)
    lhs = left_ghr(lambda p: f(p) * g(p), q, mu, h)
    dg = left_ghr(g, q, mu, h)
    df_shift = left_ghr(f, q, axis, h)
    if conjugate:
        rhs = fq * dg.d_mu_conj + df_shift.d_mu_conj * gq
        return abs(lhs.d_mu_conj - rhs)
    rhs = fq * dg.d_mu + df_shift.d_mu * gq
    return abs(lhs.d_mu - rhs)


def check_chain_rule(f: QFunction, g: QFunction, q: Quaternion, mu: Quaternion,
                     nu: Quaternion, h: float = DEFAULT_H,
                     conjugate: bool = False) -> float:
    """Residual of the GHR chain rule for f(g(q)) at q.

    d f(g)/dq^mu = sum over eta in {1,i,j,k} of
    df/dg^(nu eta) * d g^(nu eta)/dq^mu, for any nonzero nu.
    """
    if mu.modulus() < DEGENERATE_AXIS or nu.modulus() < DEGENERATE_AXIS:
        raise DegenerateAxisError("degenerate rotation axis")
    s = _evaluate(g, q)
    lhs = left_ghr(lambda p: f(g(p)), q, mu, h)
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for eta in AXES:
        axis = nu * UNITS[eta]
        inner = left_ghr(f, s, axis, h).d_mu
        outer = left_ghr(lambda p, ax=axis: rotate(g(p), ax), q, mu, h)
        total = total + inner * (outer.d_mu_conj if conjugate else outer.d_mu)
    return abs((lhs.d_mu_conj if conjugate else lhs.d_mu) - total)


def conjugation_relation(f: QFunction, q: Quaternion, mu: Quaternion,
                         h: float = DEFAULT_H) -> float:
    """Largest residual among the four left/right conjugation identities.

    d_r f/dq^mu = (d f*/dq^(mu*))*, d_r f/dq^(mu*) = (d f*/dq^mu)*, and the
    two mirrored forms expressing the left derivatives through right ones.
    """
    fc = lambda p: f(p).conjugate()
    left_f = left_ghr(f, q, mu, h)
    right_f = right_ghr(f, q, mu, h)
    left_fc = left_ghr(fc, q, mu, h)
    right_fc = right_ghr(fc, q, mu, h)
    residuals = (
        abs(right_f.d_mu - left_fc.d_mu_conj.conjugate()),
        abs(right_f.d_mu_conj - left_fc.d_mu.conjugate()),
        abs(left_f.d_mu - right_fc.d_mu_conj.conjugate()),
        abs(left_f.d_mu_conj - right_fc.d_mu.conjugate()),
    )
    return max(residuals)


def differential_consistency(f: QFunction, q: Quaternion, dq: Quaternion,
                             h: float = DEFAULT_H) -> float:
    """Error of the first-order reconstruction df = sum d f/dq^eta dq^eta."""
    ds = left_hr(f, q, h)
    predicted = Quaternion(0.0, 0.0, 0.0, 0.0)
    for eta in AXES:
        predicted = predicted + ds.wrt(eta) * involute(dq, eta)
    actual = _evaluate(f, q + dq) - _evaluate(f, q)
    return abs(actual - predicted)
