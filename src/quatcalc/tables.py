"""Closed-form GHR derivative catalogue for elementary quaternion functions.

Each family pairs an evaluator with the two derivative columns in the
"times mu" convention:

    col_mu      = d f / d q^mu     * mu
    col_mu_conj = d f / d q^(mu*)  * mu

Multiplying by mu on the right absorbs the rotated basis and keeps the
formulas free of mu inverses; the bare derivative is recovered by a single
right-multiplication with mu^-1.  Every family is cross-validated against the
numerical GHR engine, which is the point of keeping value and derivative
next to each other.

Parameters omega, nu, lam are fixed quaternion constants; g always denotes
the inner linear map omega*q*nu + lam, and f the value of the family at the
point.  Each conj_* family is its base family at q*, derived by conj_input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import derivatives
from .derivatives import has_array_form, takes_arrays
from .quaternion import ONE, ZERO, Quaternion, rotate
from .sampling import random_quaternion

MIN_MODULUS = 1e-9
DEFAULT_EXP_TERMS = 30


@dataclass(frozen=True)
class TableEntry:
    """One instantiated family: the name plus whatever parameters it takes."""

    family: str
    omega: Optional[Quaternion] = None
    nu: Optional[Quaternion] = None
    lam: Optional[Quaternion] = None
    n: Optional[int] = None
    terms: Optional[int] = None


class EntryDerivatives(NamedTuple):
    """The two closed-form columns at a point, both already times mu."""

    d_mu_times_mu: Quaternion
    d_mu_conj_times_mu: Quaternion

    def bare(self, mu: Quaternion) -> tuple[Quaternion, Quaternion]:
        inv = mu.inverse()
        return (self.d_mu_times_mu * inv, self.d_mu_conj_times_mu * inv)


@dataclass(frozen=True)
class FamilySpec:
    """Evaluator, derivative columns, guards and samplers for one family.

    ``admissible`` says which points the sampler keeps: the domain guard's
    region with a margin, so that the difference stencil stays inside it.
    ``params`` names the TableEntry fields the family reads, in draw order.
    """

    name: str
    value: Callable[[TableEntry, Quaternion], Quaternion]
    columns: Callable[[TableEntry, Quaternion, Quaternion], EntryDerivatives]
    domain: Callable[[TableEntry, Quaternion], Optional[str]]
    sample_entry: Callable[[np.random.Generator], TableEntry]
    admissible: Callable[[TableEntry, Quaternion], bool]
    scale_class: str
    real_valued: bool
    params: tuple[str, ...]

    def sample_point(self, entry: TableEntry, rng: np.random.Generator) -> Quaternion:
        """Uniform draw from [-2, 2]^4, redrawn until the family admits it."""
        for _ in range(1000):
            q = random_quaternion(rng, -2.0, 2.0)
            if self.admissible(entry, q):
                return q
        raise RuntimeError("could not sample an admissible point")


def conj_input(name: str, base: FamilySpec) -> FamilySpec:
    """The family f(q) = base(q*).

    Its value, domain guard and sampler test are the base's at q*, and its
    two derivative columns are the base's columns at q*, swapped.
    """
    def columns(entry, q, mu):
        col_mu, col_mu_conj = base.columns(entry, q.conjugate(), mu)
        return EntryDerivatives(col_mu_conj, col_mu)

    def domain(entry, q):
        violation = base.domain(entry, q.conjugate())
        return f"{violation} at q*" if violation else None

    return replace(base, name=name, columns=columns, domain=domain,
                   value=lambda entry, q: base.value(entry, q.conjugate()),
                   admissible=lambda entry, q: base.admissible(entry, q.conjugate()),
                   sample_entry=lambda rng: replace(base.sample_entry(rng), family=name))


def _linear_inner(entry: TableEntry, q: Quaternion) -> Quaternion:
    return entry.omega * q * entry.nu + entry.lam


@dataclass(frozen=True)
class Guard:
    """A size the family divides by: the domain needs it >= MIN_MODULUS,
    and sampled points need it >= margin."""

    label: str
    size: Callable[[TableEntry, Quaternion], float]
    margin: float

    def domain(self, entry: TableEntry, q: Quaternion) -> Optional[str]:
        if self.size(entry, q) < MIN_MODULUS:
            return f"requires {self.label} >= {MIN_MODULUS}"
        return None

    def admissible(self, entry: TableEntry, q: Quaternion) -> bool:
        return self.size(entry, q) >= self.margin


# A family defined everywhere is infinitely far from its singular set.
_UNGUARDED = Guard("", lambda e, q: math.inf, 0.0)
_MODULUS = Guard("|q|", lambda e, q: q.modulus(), 0.1)
_VECTOR = Guard("|Im(q)|", lambda e, q: q.vector_modulus(), 0.2)
_INNER = Guard("|omega q nu + lam|",
               lambda e, q: _linear_inner(e, q).modulus(), 0.1)


def _is_count(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= 1


class _Param(NamedTuple):
    draw: Callable[[np.random.Generator], object]
    valid: Callable[[object], bool]
    expected: str


_COEFFICIENT = _Param(lambda rng: random_quaternion(rng, -1.0, 1.0),
                      lambda v: isinstance(v, Quaternion), "a Quaternion")
# Drawn by the sampler and checked on every entry, keyed by TableEntry field.
_PARAMS = {
    "omega": _COEFFICIENT,
    "nu": _COEFFICIENT,
    "lam": _COEFFICIENT,
    "n": _Param(lambda rng: int(rng.integers(2, 6)), _is_count, "a positive integer"),
    "terms": _Param(lambda rng: DEFAULT_EXP_TERMS, _is_count, "a positive integer"),
}
_AFFINE = ("omega", "nu", "lam")


# --- family evaluators and columns ------------------------------------------

def _linear_cols(e, q, mu):
    nm = e.nu * mu
    return EntryDerivatives(e.omega * nm.a, (e.omega * nm.conjugate()) * -0.5)


def _square_value(e, q):
    return q * q


def _square_cols(e, q, mu):
    qm = q * mu
    col1 = q * mu.a + Quaternion.from_real(qm.a)
    col2 = (q * mu.conjugate()) * -0.5 + qm.conjugate() * -0.5
    return EntryDerivatives(col1, col2)


def _linear_square_value(e, q):
    g = _linear_inner(e, q)
    return g * g


def _linear_square_cols(e, q, mu):
    g = _linear_inner(e, q)
    nm = e.nu * mu
    ngm = e.nu * g * mu
    col1 = (g * e.omega) * nm.a + e.omega * ngm.a
    col2 = (g * e.omega * nm.conjugate()) * -0.5 + (e.omega * ngm.conjugate()) * -0.5
    return EntryDerivatives(col1, col2)


def _inverse_value(e, q):
    return q.inverse()


def _inverse_cols(e, q, mu):
    qi = q.inverse()
    col1 = qi * -(qi * mu).a
    col2 = (qi * mu.conjugate() * qi.conjugate()) * 0.5
    return EntryDerivatives(col1, col2)


def _linear_inverse_value(e, q):
    return _linear_inner(e, q).inverse()


def _linear_inverse_cols(e, q, mu):
    fv = _linear_inner(e, q).inverse()
    nfm = e.nu * fv * mu
    col1 = (fv * e.omega) * -nfm.a
    col2 = (fv * e.omega * nfm.conjugate()) * 0.5
    return EntryDerivatives(col1, col2)


def _real_part_value(e, q):
    return Quaternion.from_real(q.a)


def _real_part_cols(e, q, mu):
    quarter = mu * 0.25
    return EntryDerivatives(quarter, quarter)


def _linear_real_part_value(e, q):
    return Quaternion.from_real(_linear_inner(e, q).a)


def _linear_real_part_cols(e, q, mu):
    col1 = (mu * e.nu * e.omega) * 0.25
    col2 = (mu * e.omega.conjugate() * e.nu.conjugate()) * 0.25
    return EntryDerivatives(col1, col2)


def _vector_modulus_value(e, q):
    return Quaternion.from_real(q.vector_modulus())


def _vector_modulus_cols(e, q, mu):
    q_hat = q.vector() / q.vector_modulus()
    mq = mu * q_hat
    return EntryDerivatives(mq * -0.25, mq * 0.25)


def _unit_pure_axis_value(e, q):
    return q.vector() / q.vector_modulus()


def _unit_pure_axis_cols(e, q, mu):
    alpha = q.vector_modulus()
    q_hat = q.vector() / alpha
    core = (mu.conjugate() * 2.0 + mu - rotate(mu, q_hat)) * (0.25 / alpha)
    return EntryDerivatives(core, -core)


def _arctan_arg_value(e, q):
    return Quaternion.from_real(math.atan2(q.vector_modulus(), q.a))


def _arctan_arg_cols(e, q, mu):
    n2 = q.modulus_squared()
    q_hat = q.vector() / q.vector_modulus()
    col1 = (mu * q_hat * q.conjugate()) * (-0.25 / n2)
    col2 = (mu * q_hat * q) * (0.25 / n2)
    return EntryDerivatives(col1, col2)


def _unit_vector_value(e, q):
    return q / q.modulus()


def _unit_vector_cols(e, q, mu):
    mod = q.modulus()
    col1 = Quaternion.from_real(mu.a / mod) - (q * mu * q.conjugate()) * (0.25 / mod ** 3)
    col2 = mu.conjugate() * (-0.5 / mod) - (q * mu * q) * (0.25 / mod ** 3)
    return EntryDerivatives(col1, col2)


def _linear_unit_vector_value(e, q):
    g = _linear_inner(e, q)
    return g / g.modulus()


def _linear_unit_vector_cols(e, q, mu):
    g = _linear_inner(e, q)
    mod = g.modulus()
    nm = e.nu * mu
    wgm = e.omega.conjugate() * g * mu
    col1 = e.omega * (nm.a / (2.0 * mod)) \
        + (g * e.nu.conjugate() * wgm.conjugate()) * (0.25 / mod ** 3)
    col2 = (e.omega * nm.conjugate()) * (-0.25 / mod) \
        + (g * e.nu.conjugate()) * (-wgm.a / (2.0 * mod ** 3))
    return EntryDerivatives(col1, col2)


def _modulus_value(e, q):
    return Quaternion.from_real(q.modulus())


def _modulus_cols(e, q, mu):
    mod = q.modulus()
    return EntryDerivatives((mu * q.conjugate()) * (0.25 / mod), (mu * q) * (0.25 / mod))


def _modulus_squared_value(e, q):
    return Quaternion.from_real(q.modulus_squared())


def _modulus_squared_cols(e, q, mu):
    return EntryDerivatives((mu * q.conjugate()) * 0.5, (mu * q) * 0.5)


def _linear_modulus_value(e, q):
    return Quaternion.from_real(_linear_inner(e, q).modulus())


def _linear_modulus_cols(e, q, mu):
    g = _linear_inner(e, q)
    mod = g.modulus()
    nm = e.nu * mu
    wgm = e.omega.conjugate() * g * mu
    col1 = (g.conjugate() * e.omega) * (nm.a / (2.0 * mod)) \
        + (e.nu.conjugate() * wgm.conjugate()) * (-0.25 / mod)
    col2 = (g.conjugate() * e.omega * nm.conjugate()) * (-0.25 / mod) \
        + e.nu.conjugate() * (wgm.a / (2.0 * mod))
    return EntryDerivatives(col1, col2)


def _linear_modulus_squared_value(e, q):
    return Quaternion.from_real(_linear_inner(e, q).modulus_squared())


def _linear_modulus_squared_cols(e, q, mu):
    g = _linear_inner(e, q)
    nm = e.nu * mu
    wgm = e.omega.conjugate() * g * mu
    col1 = (g.conjugate() * e.omega) * nm.a + (e.nu.conjugate() * wgm.conjugate()) * -0.5
    col2 = (g.conjugate() * e.omega * nm.conjugate()) * -0.5 + e.nu.conjugate() * wgm.a
    return EntryDerivatives(col1, col2)


def _power_value(e, q):
    result = ONE
    for _ in range(e.n):
        result = result * q
    return result


def _power_rule(q: Quaternion, mu: Quaternion, top: int):
    """Inner sums of the power rule for each q^n, n = 1..top: sum over m of
    q^(n-m) Re(q^(m-1) mu) and -1/2 sum of q^(n-m) (q^(m-1) mu)*.

    The powers and the heads q^(m-1) mu are built once for every order.
    """
    powers = [ONE]
    for _ in range(top - 1):
        powers.append(powers[-1] * q)
    heads = [power * mu for power in powers]
    for n in range(1, top + 1):
        plain = ZERO
        conj = ZERO
        for m in range(1, n + 1):
            plain = plain + powers[n - m] * heads[m - 1].a
            conj = conj + powers[n - m] * heads[m - 1].conjugate()
        yield plain, conj * -0.5


def _power_cols(e, q, mu):
    *_, (plain, conj) = _power_rule(q, mu, e.n)
    return EntryDerivatives(plain, conj)


@takes_arrays
def _exponential_value(e, q):
    total = ONE
    term = ONE
    for n in range(1, e.terms + 1):
        term = term * q / n
        total = total + term
    return total


def _exponential_cols(e, q, mu):
    plain_total = ZERO
    conj_total = ZERO
    factorial = 1.0
    for n, (plain, conj) in enumerate(_power_rule(q, mu, e.terms), start=1):
        factorial *= n
        plain_total = plain_total + plain / factorial
        conj_total = conj_total + conj / factorial
    return EntryDerivatives(plain_total, conj_total)


def exp_series_tail_bound(entry: TableEntry, q: Quaternion, mu: Quaternion) -> float:
    """Bound on the derivative mass dropped by truncating the exponential series."""
    n = entry.terms
    mod = q.modulus()
    return mod ** (n + 1) / math.factorial(n + 1) * math.exp(mod) * abs(mu)


FAMILIES: dict[str, FamilySpec] = {}


def _register(name, value, columns, guard, params, scale_class,
              real_valued=False, conj=False):
    """Declare a family, and with ``conj`` its conj_ twin right after it."""
    FAMILIES[name] = FamilySpec(name=name, value=value, columns=columns,
                                domain=guard.domain,
                                sample_entry=lambda rng: TableEntry(
                                    family=name,
                                    **{p: _PARAMS[p].draw(rng) for p in params}),
                                admissible=guard.admissible,
                                scale_class=scale_class,
                                real_valued=real_valued, params=params)
    if conj:
        FAMILIES[f"conj_{name}"] = conj_input(f"conj_{name}", FAMILIES[name])


_register("linear", _linear_inner, _linear_cols, _UNGUARDED, _AFFINE, "linear",
          conj=True)
_register("square", _square_value, _square_cols, _UNGUARDED, (), "quadratic",
          conj=True)
_register("linear_square", _linear_square_value, _linear_square_cols, _UNGUARDED,
          _AFFINE, "quadratic", conj=True)
_register("inverse", _inverse_value, _inverse_cols, _MODULUS, (), "linear",
          conj=True)
_register("linear_inverse", _linear_inverse_value, _linear_inverse_cols, _INNER,
          _AFFINE, "linear", conj=True)
_register("real_part", _real_part_value, _real_part_cols, _UNGUARDED, (),
          "linear", real_valued=True)
_register("linear_real_part", _linear_real_part_value, _linear_real_part_cols,
          _UNGUARDED, _AFFINE, "linear", real_valued=True, conj=True)
_register("vector_modulus", _vector_modulus_value, _vector_modulus_cols, _VECTOR,
          (), "linear", real_valued=True)
_register("unit_pure_axis", _unit_pure_axis_value, _unit_pure_axis_cols, _VECTOR,
          (), "linear")
# |Im q| >= MIN_MODULUS already implies |q| >= MIN_MODULUS.
_register("arctan_arg", _arctan_arg_value, _arctan_arg_cols, _VECTOR, (),
          "linear", real_valued=True)
_register("unit_vector", _unit_vector_value, _unit_vector_cols, _MODULUS, (),
          "linear", conj=True)
_register("linear_unit_vector", _linear_unit_vector_value,
          _linear_unit_vector_cols, _INNER, _AFFINE, "linear", conj=True)
_register("modulus", _modulus_value, _modulus_cols, _MODULUS, (), "linear",
          real_valued=True)
_register("modulus_squared", _modulus_squared_value, _modulus_squared_cols,
          _UNGUARDED, (), "quadratic", real_valued=True)
_register("linear_modulus", _linear_modulus_value, _linear_modulus_cols, _INNER,
          _AFFINE, "linear", real_valued=True, conj=True)
_register("linear_modulus_squared", _linear_modulus_squared_value,
          _linear_modulus_squared_cols, _UNGUARDED, _AFFINE, "quadratic",
          real_valued=True, conj=True)
_register("power", _power_value, _power_cols, _UNGUARDED, ("n",), "quadratic")
_register("exponential", _exponential_value, _exponential_cols, _UNGUARDED,
          ("terms",), "quadratic")


def catalogue() -> tuple[FamilySpec, ...]:
    """All registered families, in a stable order."""
    return tuple(FAMILIES.values())


def _check_entry(entry: TableEntry) -> FamilySpec:
    spec = FAMILIES.get(entry.family)
    if spec is None:
        raise ValueError(f"unknown table family {entry.family!r}")
    for name in spec.params:
        value = getattr(entry, name)
        if not _PARAMS[name].valid(value):
            raise ValueError(f"{entry.family}: {name} must be "
                             f"{_PARAMS[name].expected}, got {value!r}")
    return spec


def eval_entry(entry: TableEntry, q: Quaternion) -> Quaternion:
    """Value of the family at q, after checking the domain guard."""
    spec = _check_entry(entry)
    violation = spec.domain(entry, q)
    if violation:
        raise ValueError(f"{entry.family}: {violation}")
    return spec.value(entry, q)


def derivative(entry: TableEntry, q: Quaternion, mu: Quaternion) -> EntryDerivatives:
    """Closed-form derivative columns (times mu) of the family at q."""
    spec = _check_entry(entry)
    if mu.modulus() == 0.0:
        raise ValueError("rotation axis must be nonzero")
    violation = spec.domain(entry, q)
    if violation:
        raise ValueError(f"{entry.family}: {violation}")
    return spec.columns(entry, q, mu)


def as_function(entry: TableEntry) -> Callable[[Quaternion], Quaternion]:
    """The family's value as a function of q; it has an array form when the
    family's evaluator takes QArrays."""
    spec = _check_entry(entry)
    fn = lambda p: spec.value(entry, p)
    return takes_arrays(fn) if has_array_form(spec.value) else fn


def conj_gradient(entry: TableEntry, q: Quaternion) -> Quaternion:
    """Closed-form d f / d q* for real-valued families, used by descent."""
    return derivative(entry, q, ONE).d_mu_conj_times_mu


class CrossCheck(NamedTuple):
    closed_mu: Quaternion
    closed_mu_conj: Quaternion
    numerical_mu: Quaternion
    numerical_mu_conj: Quaternion
    residual_mu: float
    residual_mu_conj: float


def cross_validate(entry: TableEntry, q: Quaternion, mu: Quaternion) -> CrossCheck:
    """Compare the closed-form columns against the numerical GHR derivative.

    Residuals are relative: |closed - numerical| / (1 + |closed|).
    """
    closed = derivative(entry, q, mu)
    pair = derivatives.left_ghr(as_function(entry), q, mu)
    num_mu = pair.d_mu * mu
    num_conj = pair.d_mu_conj * mu
    res_mu = abs(closed.d_mu_times_mu - num_mu) / (1.0 + abs(closed.d_mu_times_mu))
    res_conj = abs(closed.d_mu_conj_times_mu - num_conj) / (1.0 + abs(closed.d_mu_conj_times_mu))
    return CrossCheck(closed.d_mu_times_mu, closed.d_mu_conj_times_mu,
                      num_mu, num_conj, res_mu, res_conj)
