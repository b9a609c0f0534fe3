"""Quaternion value type and the algebraic operations the calculus is built on.

A quaternion q = a + i*b + j*c + k*d is stored as four doubles.  The imaginary
units multiply by the usual rules ij = k = -ji, jk = i = -kj, ki = j = -ik,
i^2 = j^2 = k^2 = -1, which makes the product non-commutative; everything in
this package that looks surprising downstream traces back to that fact.
"""

from __future__ import annotations

import math
import numbers
import re
from typing import NamedTuple, Optional

import numpy as np


class Quaternion(NamedTuple):
    """Immutable quaternion a + i*b + j*c + k*d.

    Real scalars of any type (numpy's included) act as scalars; numpy's
    ufuncs defer to these operators instead of turning q into an array.
    """

    __array_ufunc__ = None

    a: float
    b: float
    c: float
    d: float

    @classmethod
    def from_real(cls, x: float) -> "Quaternion":
        return cls(float(x), 0.0, 0.0, 0.0)

    @classmethod
    def from_components(cls, comps) -> "Quaternion":
        a, b, c, d = comps
        return cls(float(a), float(b), float(c), float(d))

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.a + other.a, self.b + other.b,
                              self.c + other.c, self.d + other.d)
        if isinstance(other, (int, float)):
            return Quaternion(self.a + other, self.b, self.c, self.d)
        if isinstance(other, numbers.Real):
            return self + float(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.a - other.a, self.b - other.b,
                              self.c - other.c, self.d - other.d)
        if isinstance(other, (int, float)):
            return Quaternion(self.a - other, self.b, self.c, self.d)
        if isinstance(other, numbers.Real):
            return self - float(other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(other - self.a, -self.b, -self.c, -self.d)
        if isinstance(other, numbers.Real):
            return float(other) - self
        return NotImplemented

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a1, b1, c1, d1 = self
            a2, b2, c2, d2 = other
            return Quaternion(
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.a * other, self.b * other,
                              self.c * other, self.d * other)
        if isinstance(other, numbers.Real):
            return self * float(other)
        return NotImplemented

    def __rmul__(self, other):
        # Scalars commute; quaternion * quaternion goes through __mul__.
        if isinstance(other, (int, float)):
            return Quaternion(other * self.a, other * self.b,
                              other * self.c, other * self.d)
        if isinstance(other, numbers.Real):
            return float(other) * self
        return NotImplemented

    def __truediv__(self, other):
        # Division is only defined by a real scalar: q / mu is ambiguous
        # (left vs right inverse), so callers multiply by inverse() explicitly.
        if isinstance(other, (int, float)):
            return Quaternion(self.a / other, self.b / other,
                              self.c / other, self.d / other)
        if isinstance(other, numbers.Real):
            return self / float(other)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def modulus_squared(self) -> float:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def modulus(self) -> float:
        return math.sqrt(self.modulus_squared())

    __abs__ = modulus

    def inverse(self) -> "Quaternion":
        n2 = self.modulus_squared()
        if n2 == 0.0:
            raise ValueError("zero quaternion has no inverse")
        return Quaternion(self.a / n2, -self.b / n2, -self.c / n2, -self.d / n2)

    def vector(self) -> "Quaternion":
        """Imaginary (vector) part i*b + j*c + k*d."""
        return Quaternion(0.0, self.b, self.c, self.d)

    def vector_modulus(self) -> float:
        return math.sqrt(self.b * self.b + self.c * self.c + self.d * self.d)

    def is_finite(self) -> bool:
        return all(map(math.isfinite, self))


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

UNITS = {"1": ONE, "i": I, "j": J, "k": K}
AXES = ("1", "i", "j", "k")


# Hamilton product on arrays: component r of p q is the sum over k of
# _MUL_SIGN[k, r] * p[k] * q[_MUL_INDEX[k, r]], added over k left to right
# in the order Quaternion.__mul__ writes it.  x - y equals x + (-y) exactly
# in IEEE arithmetic, and p * (-x) equals -(p * x) but for the sign of a
# NaN, so the gathered form reproduces the scalar product bit for bit.  The
# signs ride in the gather: q and -q are stacked, and _SIGNED_INDEX[k, r]
# picks q[_MUL_INDEX[k, r]] or, 4 further on, its negation.  The term index
# k leads so that the three adds read contiguous slices.
_MUL_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_MUL_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0],
                      [-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])
_SIGNED_INDEX = _MUL_INDEX + 4 * (_MUL_SIGN < 0.0)


def _add_terms(t0: np.ndarray, t1: np.ndarray, t2: np.ndarray, t3: np.ndarray,
               total: Optional[np.ndarray] = None) -> np.ndarray:
    """((t0 + t1) + t2) + t3, the order of Quaternion.__mul__'s four terms,
    into ``total`` if one is given."""
    total = np.add(t0, t1, total)
    np.add(total, t2, total)
    np.add(total, t3, total)
    return total


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right from zero as the scalar loops add.

    accumulate adds strictly in order.  Starting from x0 rather than 0.0 + x0
    can only change the sign of a zero total, which the final + 0.0 undoes.
    """
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


def _signed(q: np.ndarray, axis: int = 0) -> np.ndarray:
    """q's components, on ``axis``, gathered with their signs: that axis
    becomes the two axes [k, r], so (4, *S) gives [k, r, *S]."""
    return np.concatenate((q, -q), axis=axis).take(_SIGNED_INDEX, axis=axis)


def hamilton(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of float arrays holding quaternion components on axis 0.

    ``p`` and ``q`` have the same number of dimensions and their other axes
    broadcast.  Every element equals Quaternion.__mul__ bit for bit.
    """
    return _add_terms(*(p[:, np.newaxis] * _signed(q)))


def _times(q):
    """p -> p * q for a fixed right factor q, a Quaternion or a QArray, with
    the bits of the operators.  A QArray's signed gather is taken once, not
    once per product."""
    if not isinstance(q, QArray):
        return lambda p: p * q
    signed = _signed(q.c)

    def times(p):
        left = p.c if isinstance(p, QArray) else np.array(p)
        ndim = max(left.ndim, q.c.ndim)
        right = signed.reshape(signed.shape[:2] + (1,) * (ndim - q.c.ndim) + signed.shape[2:])
        return QArray(_add_terms(*(_aligned(left, ndim)[:, np.newaxis] * right)))

    return times


def _by_floats(fn, *args):
    """fn(*args), element by element through Python floats when args are arrays.

    numpy's vectorised **, arctan2 and tanh may differ from Python's float
    ** and math's functions in the last ulp on some inputs and machines;
    np.sqrt and the arithmetic operators do not.
    """
    if not isinstance(args[0], np.ndarray):
        return fn(*args)
    flat = [np.ravel(arg).tolist() for arg in args]
    return np.fromiter(map(fn, *flat), float, args[0].size).reshape(args[0].shape)


def _aligned(comps: np.ndarray, ndim: int) -> np.ndarray:
    """comps with new element axes inserted after axis 0, up to ndim axes."""
    if comps.ndim >= ndim:
        return comps
    return comps.reshape(comps.shape[:1] + (1,) * (ndim - comps.ndim) + comps.shape[1:])


def anywhere(mask) -> bool:
    """A check over one quaternion (a bool) or over a QArray's elements (an array)."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def real_number(key: str, value, expected: str = "a real number") -> float:
    """value as a float: a real number, not a bool, within a double's range,
    which a JSON integer need not be.  Anything else is a ValueError that
    names key."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{key} must be {expected}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} must be {expected} within a double's range") from None


def integer(key: str, value, least: Optional[int] = None, expected: str = "an integer"):
    """value if an integer (numpy's too), not a bool, of at least ``least``; else a ValueError."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
            or (least is not None and value < least):
        raise ValueError(f"{key} must be {expected}, got {value!r}")
    return value


def finite_quaternion(key: str, value) -> None:
    """Check that value is a Quaternion or a QArray with finite components:
    anything else is a ValueError naming key and the first non-finite one."""
    if isinstance(value, QArray):
        comps = value.c.reshape(4, -1)
        finite = np.isfinite(comps).all(axis=0)
        if finite.all():
            return
        value = Quaternion(*comps[:, finite.argmin()].tolist())
    elif not isinstance(value, Quaternion):
        raise ValueError(f"{key} must be a Quaternion, got {value!r}")
    if not value.is_finite():
        raise ValueError(f"{key} must be finite, got {format_quaternion(value)}")


# A real operand of QArray's sums: a number, or an array with one per element.
_REAL = (numbers.Real, np.ndarray)


class QArray:
    """Many quaternions at once: one float array with the components on axis 0.

    The operators are Quaternion's, element by element and bit for bit:
    products go through hamilton, and a Quaternion or real operand applies
    to every element.  A real operand may also be an array with one value
    per element.  Element axes broadcast as numpy's do, aligned from the
    right, so (4, N) coefficients meet (4, ..., N) points.  So a formula
    written with Quaternion operators and methods alone maps a QArray of
    points to the QArray of its values.
    """

    __array_ufunc__ = None

    def __init__(self, comps):
        self.c = np.asarray(comps, dtype=float)

    @classmethod
    def from_real(cls, x) -> "QArray":
        comps = np.zeros((4,) + np.shape(x))
        comps[0] = x
        return cls(comps)

    @property
    def a(self) -> np.ndarray:
        return self.c[0]

    def _pair(self, other):
        """self's and other's components with aligned element axes, or None."""
        if isinstance(other, QArray):
            comps = other.c
        elif isinstance(other, Quaternion):
            comps = np.array(other)
        else:
            return None
        ndim = max(self.c.ndim, comps.ndim)
        return _aligned(self.c, ndim), _aligned(comps, ndim)

    def _real(self, other):
        """self's components and other as a real factor, or None."""
        if isinstance(other, numbers.Real):
            return self.c, other
        if isinstance(other, np.ndarray):
            return _aligned(self.c, other.ndim + 1), other
        return None

    def _with_real(self, real) -> "QArray":
        comps = self.c.copy()
        comps[0] = real
        return QArray(comps)

    def __add__(self, other):
        pair = self._pair(other)
        if pair is not None:
            return QArray(pair[0] + pair[1])
        if isinstance(other, _REAL):
            return self._with_real(self.c[0] + other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is not None:
            return QArray(pair[0] - pair[1])
        if isinstance(other, _REAL):
            return self._with_real(self.c[0] - other)
        return NotImplemented

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is not None:
            return QArray(pair[1] - pair[0])
        if isinstance(other, _REAL):
            return (-self)._with_real(other - self.c[0])
        return NotImplemented

    def __neg__(self) -> "QArray":
        return QArray(-self.c)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is not None:
            return QArray(hamilton(*pair))
        scaled = self._real(other)
        if scaled is not None:
            return QArray(scaled[0] * scaled[1])
        return NotImplemented

    def __rmul__(self, other):
        pair = self._pair(other)
        if pair is not None:
            return QArray(hamilton(pair[1], pair[0]))
        scaled = self._real(other)
        if scaled is not None:
            return QArray(scaled[1] * scaled[0])
        return NotImplemented

    def __truediv__(self, other):
        scaled = self._real(other)
        if scaled is not None:
            return QArray(scaled[0] / scaled[1])
        return NotImplemented

    def conjugate(self) -> "QArray":
        comps = -self.c
        comps[0] = self.c[0]
        return QArray(comps)

    def modulus_squared(self) -> np.ndarray:
        a, b, c, d = self.c
        return a * a + b * b + c * c + d * d

    def modulus(self) -> np.ndarray:
        # np.sqrt is correctly rounded, as math.sqrt is.
        return np.sqrt(self.modulus_squared())

    __abs__ = modulus

    def inverse(self) -> "QArray":
        n2 = self.modulus_squared()
        if anywhere(n2 == 0.0):
            raise ValueError("zero quaternion has no inverse")
        return self.conjugate() / n2

    def vector(self) -> "QArray":
        return self._with_real(0.0)

    def vector_modulus(self) -> np.ndarray:
        _, b, c, d = self.c
        return np.sqrt(b * b + c * c + d * d)


def axis_modulus_squared(mu):
    """|mu|^2 of a rotation axis, or of each of a QArray's axes.  A zero axis
    is a ValueError, and so is one that would rotate to NaN, with a NaN or
    infinite component or |mu|^2: its message names the first such axis."""
    with np.errstate(over="ignore"):  # a QArray's overflows to inf silently, as floats do
        n2 = mu.modulus_squared()
    if anywhere(n2 == 0.0):
        raise ValueError("rotation axis must be nonzero")
    bad = ~np.isfinite(n2) if isinstance(mu, QArray) else not math.isfinite(n2)
    if anywhere(bad):
        axis = mu.c.reshape(4, -1)[:, np.argmax(bad)] if isinstance(mu, QArray) else mu
        raise ValueError(f"rotation axis {format_quaternion(tuple(axis))} must be finite, "
                         f"with |mu|^2 within a double's range")
    return n2


def rotate(q: Quaternion, mu: Quaternion) -> Quaternion:
    """Rotation q^mu = mu q mu^-1, computed as mu q mu* / |mu|^2."""
    n2 = axis_modulus_squared(mu)
    return (mu * q * mu.conjugate()) / n2


def involute(q: Quaternion, axis: str) -> Quaternion:
    """Involution q^eta for eta in {1, i, j, k}, applied as exact sign flips.

    q^i = a + i*b - j*c - k*d and cyclically for j, k; axis "1" is the
    identity.  Each involution is self-inverse.  q may be a QArray.
    """
    if isinstance(q, QArray):
        a, b, c, d = q.c
        make = lambda *comps: QArray(np.stack(comps))
    else:
        a, b, c, d = q
        make = Quaternion
    if axis == "1":
        return q
    if axis == "i":
        return make(a, b, -c, -d)
    if axis == "j":
        return make(a, -b, c, -d)
    if axis == "k":
        return make(a, -b, -c, d)
    raise ValueError(f"unknown involution axis {axis!r}")


def involute_conj(q: Quaternion, axis: str) -> Quaternion:
    """Conjugate involution q^(eta*) = (q^eta)* for eta in {1, i, j, k}."""
    return involute(q, axis).conjugate()


class MuBasis(NamedTuple):
    """The rotated imaginary units i^mu, j^mu, k^mu of a nonzero axis mu."""

    i_mu: Quaternion
    j_mu: Quaternion
    k_mu: Quaternion


def mu_basis(mu: Quaternion) -> MuBasis:
    """rotate(I, mu), rotate(J, mu) and rotate(K, mu), with |mu|^2 and mu* taken once."""
    n2, mu_conj = axis_modulus_squared(mu), mu.conjugate()
    return MuBasis(*((mu * unit * mu_conj) / n2 for unit in (I, J, K)))


# One signed term: a float (exponent signs included) with an optional unit,
# or a bare unit.  Anchored scanning keeps "2i4j" and "1++2i" invalid.
_TERM = re.compile(
    r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[ijk]?|[ijk])")


# The one text form of a quaternion's four components, for a single % or as
# part of a larger template.
QUATERNION_TEMPLATE = "%.17g%+.17gi%+.17gj%+.17gk"


def format_quaternion(q: Quaternion) -> str:
    """Render q, or any 4-tuple of floats, as "a+bi+cj+dk" with full round-trip
    (17 digit) precision; -0.0 keeps its sign and NaN prints as +nan."""
    return QUATERNION_TEMPLATE % q


def parse_quaternion(text: str) -> Quaternion:
    """Parse "a+bi+cj+dk"; terms may be omitted or reordered, signs optional.
    A term too large for a double (1e999) is rejected, not read as inf."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty quaternion literal")
    comps = {"": 0.0, "i": 0.0, "j": 0.0, "k": 0.0}
    seen = set()
    idx = 0
    while idx < len(s):
        if idx > 0 and s[idx] not in "+-":
            raise ValueError(f"trailing characters in quaternion literal {text!r}")
        match = _TERM.match(s, idx)
        if match is None:
            raise ValueError(f"bad quaternion term {s[idx:]!r} in {text!r}")
        idx = match.end()
        term = match.group(0)
        unit = term[-1] if term[-1] in "ijk" else ""
        body = term[:-1] if unit else term
        if body in ("", "+", "-"):
            body += "1"
        if unit in seen:
            raise ValueError(f"repeated {unit or 'real'} term in {text!r}")
        seen.add(unit)
        comps[unit] = float(body)
        if not math.isfinite(comps[unit]):
            raise ValueError(f"quaternion term {term!r} in {text!r} is not finite")
    return Quaternion(comps[""], comps["i"], comps["j"], comps["k"])
