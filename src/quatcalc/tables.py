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
point.  Twelve base families have one _register row each.  The columns of
real_part, modulus_squared, vector_modulus and unit_pure_axis are written
out; _product (the product rule) and _real_chain (the real chain rule)
derive the others': linear is omega times q's at nu mu, square q q, power
q q^(n-1), exponential the sum of the first DEFAULT_EXP_TERMS powers over
n!, inverse q* |q|^-2, unit_vector q |q|^-1, modulus sqrt(|q|^2) and
arctan_arg atan2(|Im q|, Re q).  Each linear_* family is its base at g,
by affine_input with the GHR chain rule summed over the axes 1, i, j, k,
and each conj_* its base at q*, by conj_input with its two columns
swapped.  Every family's entry is drawn by FamilySpec.sample_entry from
its params, in order.  The values of power and exponential run on q's
complex slice (_slice_powers); their columns keep the product rule's
Hamilton products, with the bits they were pinned with.

Every evaluator and column is written with the operators and methods that
Quaternion and QArray share, so the same formula serves one point and a
batch.  cross_validate checks a whole (4, N) batch of points in one pass,
bit for bit the one-point calls: one call of the columns and one call of
the evaluator on all 8N stencil points (derivatives.left_ghr on a QArray
of points) for an entry whose coefficients are stacked, or for each run of
points whose entries share family and count n.  The one-point calls'
results stay on Python floats.  The table draws its points with
sample_batch, bit for bit the one-point samplers.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import derivatives
from .derivatives import takes_arrays
from .quaternion import (ONE, ZERO, I, J, K, QArray, Quaternion, _add_terms, _by_floats,
                         anywhere, axis_modulus_squared, finite_quaternion, integer,
                         rotate)
from .sampling import MAX_DRAWS, random_quaternion, uniform_rows

MIN_MODULUS = 1e-9
# Uniform draws: coefficients from [-1, 1]^4, points and axes from [-2, 2]^4,
# the GHR axes (sample_axis, the identity suite's too) with |mu| >= AXIS_MODULUS.
_COEFFICIENT_RANGE = (-1.0, 1.0)
_POINT_RANGE = (-2.0, 2.0)
AXIS_MODULUS = 0.1
DEFAULT_EXP_TERMS = 30


class TableEntry(NamedTuple):
    """One instantiated family: the name plus whatever parameters it takes."""

    family: str
    omega: Optional[Quaternion] = None
    nu: Optional[Quaternion] = None
    lam: Optional[Quaternion] = None
    n: Optional[int] = None


class EntryDerivatives(NamedTuple):
    """The two closed-form columns at a point, both already times mu."""

    d_mu_times_mu: Quaternion
    d_mu_conj_times_mu: Quaternion


class FamilySpec(NamedTuple):
    """Evaluator, derivative columns, guards and samplers for one family.

    ``admissible`` says which points the sampler keeps: the domain guard's
    region with a margin, so that the difference stencil stays inside it.
    ``params`` names the TableEntry fields the family reads, in draw order.
    """

    name: str
    value: Callable[[TableEntry, Quaternion], Quaternion]
    columns: Callable[[TableEntry, Quaternion, Quaternion], EntryDerivatives]
    domain: Callable[[TableEntry, Quaternion], Optional[str]]
    admissible: Callable[[TableEntry, Quaternion], bool]
    scale_class: str
    real_valued: bool
    params: tuple[str, ...]

    def sample_entry(self, rng: np.random.Generator) -> TableEntry:
        """The family's entry: each of its params drawn, in order."""
        return TableEntry(family=self.name, **{p: _PARAMS[p].draw(rng) for p in self.params})

    def sample_point(self, entry: TableEntry, rng: np.random.Generator) -> Quaternion:
        """Uniform draw from [-2, 2]^4, redrawn until the family admits it,
        within random_quaternion's budget of MAX_DRAWS tries."""
        for _ in range(MAX_DRAWS):
            q = random_quaternion(rng, *_POINT_RANGE)
            if self.admissible(entry, q):
                return q
        raise ValueError(f"no draw from {list(_POINT_RANGE)}^4 is admissible for "
                         f"{self.name} in {MAX_DRAWS} tries")


def _at_input(name: str, base: FamilySpec, inner: Callable, where: str,
              **rest) -> FamilySpec:
    """The family named name whose value, domain guard and sampler test are
    the base's at inner(entry, q); a domain message ends with ``where``.
    ``rest`` gives its columns and whatever else it changes."""
    def domain(entry, q):
        violation = base.domain(entry, inner(entry, q))
        return f"{violation}{where}" if violation else None

    return base._replace(name=name, domain=domain,
                         value=lambda entry, q: base.value(entry, inner(entry, q)),
                         admissible=lambda entry, q: base.admissible(entry, inner(entry, q)),
                         **rest)


def conj_input(name: str, base: FamilySpec) -> FamilySpec:
    """The family f(q) = base(q*).

    Its value, domain guard and sampler test are the base's at q*, and its
    two derivative columns are the base's columns at q*, swapped.
    """
    def columns(entry, q, mu):
        col_mu, col_mu_conj = base.columns(entry, q.conjugate(), mu)
        return EntryDerivatives(col_mu_conj, col_mu)

    return _at_input(name, base, lambda entry, q: q.conjugate(), " at q*", columns=columns)


# The chain rule's axes eta = 1, i, j, k, each with its inverse eta*.
_ETAS = tuple((eta, eta.conjugate()) for eta in (ONE, I, J, K))
# The same axes as one (component, eta) array.
_STACKED_ETAS = np.array([eta for eta, _ in _ETAS]).T


def affine_input(name: str, base: FamilySpec) -> FamilySpec:
    """The family f(q) = base(g), g = omega q nu + lam.

    Its value, domain guard and sampler test are the base's at g, and it
    draws omega, nu and lam.  Its columns come by the GHR chain rule,
    summed over the four axes eta:

        d f / d q^mu = sum over eta of d base / d g^eta * d g^eta / d q^mu

    and the same with q^(mu*).  g^eta = (eta omega) q (nu eta^-1) + eta lam
    eta^-1 is again a linear map, and d base / d g^eta is col eta^-1, col
    the base's mu column at (g, eta), whose eta^-1 cancels the eta of eta
    omega: each term is the column of the linear map with omega' = col omega
    and nu' = nu eta^-1.  A Quaternion point sums the four terms one by
    one, on Python floats; a QArray stacks the four eta on a leading
    element axis and adds its slices in the same order, with the same bits.
    """
    def terms(entry, g, mu, eta, eta_inv):
        return _linear_map_cols(base.columns(entry, g, eta).d_mu_times_mu * entry.omega,
                                entry.nu * eta_inv, mu)

    def columns(entry, q, mu):
        g = _linear_inner(entry, q)
        if not isinstance(g, QArray):
            by_column = zip(*(terms(entry, g, mu, eta, eta_inv) for eta, eta_inv in _ETAS))
            return EntryDerivatives(*(sum(rest, first) for first, *rest in by_column))
        eta = QArray(_STACKED_ETAS.reshape((4, 4) + (1,) * (g.c.ndim - 1)))
        return EntryDerivatives(*(QArray(_add_terms(*np.moveaxis(column.c, 1, 0)))
                                  for column in terms(entry, g, mu, eta, eta.conjugate())))

    return _at_input(name, base, _linear_inner, " at omega q nu + lam", columns=columns,
                     params=_AFFINE)


def _linear_inner(entry: TableEntry, q: Quaternion) -> Quaternion:
    return entry.omega * q * entry.nu + entry.lam


def _identity_cols(mu):
    """The columns of q -> q; those of q -> q* are the same, swapped."""
    return EntryDerivatives(type(mu).from_real(mu.a), mu.conjugate() * -0.5)


def _product(f, f_cols, g, g_cols, mu):
    """The columns of f g by the GHR product rule, d (f g) / d q^mu =
    f d g / d q^mu + d f / d q^(g mu) g, times mu: f times g's column plus
    f's column at the axis g mu.  f and g are the values at q, g_cols g's
    columns at mu and f_cols maps an axis to f's columns; g may vanish."""
    return EntryDerivatives(*(f * inner + outer
                              for inner, outer in zip(g_cols, f_cols(g * mu))))


def _real_chain(slope, cols):
    """The columns of h(r), r real-valued: h'(r) times r's columns."""
    return EntryDerivatives(*(col * slope for col in cols))


class Guard(NamedTuple):
    """A size the family divides by: the domain needs it >= MIN_MODULUS,
    and sampled points need it >= margin."""

    label: str
    size: Callable[[TableEntry, Quaternion], float]
    margin: float

    def domain(self, entry: TableEntry, q: Quaternion) -> Optional[str]:
        if anywhere(self.size(entry, q) < MIN_MODULUS):
            return f"requires {self.label} >= {MIN_MODULUS}"
        return None

    def admissible(self, entry: TableEntry, q: Quaternion) -> bool:
        return self.size(entry, q) >= self.margin


# A family defined everywhere is infinitely far from its singular set.
_UNGUARDED = Guard("", lambda e, q: math.inf, 0.0)
_MODULUS = Guard("|q|", lambda e, q: q.modulus(), 0.1)
_VECTOR = Guard("|Im(q)|", lambda e, q: q.vector_modulus(), 0.2)


class _Param(NamedTuple):
    draw: Callable[[np.random.Generator], object]
    check: Callable[[str, object], object]


_COEFFICIENT = _Param(lambda rng: random_quaternion(rng, *_COEFFICIENT_RANGE), finite_quaternion)
# Each TableEntry field's draw, and its check, which raises a ValueError naming key.
_PARAMS = {
    "omega": _COEFFICIENT,
    "nu": _COEFFICIENT,
    "lam": _COEFFICIENT,
    "n": _Param(lambda rng: int(rng.integers(2, 6)),
                lambda key, value: integer(key, value, 1, "a positive integer")),
}
_AFFINE = ("omega", "nu", "lam")


# --- family evaluators and columns ------------------------------------------

def _linear_map_cols(omega, nu, mu):
    """The columns of q -> omega q nu + lam: omega times the identity's at nu mu."""
    return EntryDerivatives(*(omega * col for col in _identity_cols(nu * mu)))


def _linear_cols(e, q, mu):
    return _linear_map_cols(e.omega, e.nu, mu)


def _square_value(e, q):
    return q * q


def _square_cols(e, q, mu):
    return _product(q, _identity_cols, q, _identity_cols(mu), mu)


def _inverse_value(e, q):
    return q.inverse()


def _inverse_cols(e, q, mu):
    n2 = q.modulus_squared()
    return _product(q.conjugate(), lambda nu: _identity_cols(nu)[::-1], 1.0 / n2,
                    _real_chain(-1.0 / (n2 * n2), _modulus_squared_cols(e, q, mu)), mu)


def _real_part_value(e, q):
    return type(q).from_real(q.a)


def _real_part_cols(e, q, mu):
    quarter = mu * 0.25
    return EntryDerivatives(quarter, quarter)


def _vector_modulus_value(e, q):
    return type(q).from_real(q.vector_modulus())


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
    return type(q).from_real(_by_floats(math.atan2, q.vector_modulus(), q.a))


def _arctan_arg_cols(e, q, mu):
    n2 = q.modulus_squared()
    by_v = _real_chain(q.a / n2, _vector_modulus_cols(e, q, mu))
    by_a = _real_chain(q.vector_modulus() / n2, _real_part_cols(e, q, mu))
    return EntryDerivatives(*(x - y for x, y in zip(by_v, by_a)))


def _unit_vector_value(e, q):
    return q / q.modulus()


def _unit_vector_cols(e, q, mu):
    return _product(q, _identity_cols, 1.0 / q.modulus(),
                    _real_chain(-1.0 / q.modulus_squared(), _modulus_cols(e, q, mu)), mu)


def _modulus_value(e, q):
    return type(q).from_real(q.modulus())


def _modulus_cols(e, q, mu):
    return _real_chain(0.5 / q.modulus(), _modulus_squared_cols(e, q, mu))


def _modulus_squared_value(e, q):
    return type(q).from_real(q.modulus_squared())


def _modulus_squared_cols(e, q, mu):
    return EntryDerivatives((mu * q.conjugate()) * 0.5, (mu * q) * 0.5)


def _slice_powers(q):
    """(alpha_n, beta_n) with q^n = alpha_n + beta_n v, v = Im q, for n = 1, 2, ...:
    powers of q stay in its complex slice span{1, v} (Gentili and Struppa's
    slice-regular functions), so alpha_(n+1) = alpha_n a - beta_n |v|^2 and
    beta_(n+1) = alpha_n + beta_n a, with no square root or division by |v|."""
    a, v2 = q.a, q.vector().modulus_squared()
    alpha, beta = a, 1.0
    while True:
        yield alpha, beta
        alpha, beta = alpha * a - beta * v2, alpha + beta * a


def _power_value(e, q):
    """q^n; at n = 1 q itself, every bit, where v + a turns a -0.0 real part to 0.0."""
    if e.n == 1:
        return q
    alpha, beta = next(itertools.islice(_slice_powers(q), e.n - 1, None))
    return q.vector() * beta + alpha


def _power_rule(q: Quaternion, mu: Quaternion, top: int):
    """The columns of each q^n, n = 1..top: the product rule applied to
    q q^(n-1), so order n costs four products, not n."""
    power, cols = q, _identity_cols(mu)
    yield cols
    for _ in range(top - 1):
        cols = _product(q, _identity_cols, power, cols, mu)
        power = power * q
        yield cols


def _power_cols(e, q, mu):
    *_, last = _power_rule(q, mu, e.n)
    return EntryDerivatives(*last)


def _exponential_value(e, q):
    """1 + q + ... + q^n/n! to n = DEFAULT_EXP_TERMS: two real series, v scaled once."""
    alpha_sum, beta_sum, factorial = 1.0, 0.0, 1.0
    for n, (alpha, beta) in zip(range(1, DEFAULT_EXP_TERMS + 1), _slice_powers(q)):
        factorial *= n
        alpha_sum = alpha_sum + alpha / factorial
        beta_sum = beta_sum + beta / factorial
    return q.vector() * beta_sum + alpha_sum


def _exponential_cols(e, q, mu):
    totals = (ZERO, ZERO)
    factorial = 1.0
    for n, cols in enumerate(_power_rule(q, mu, DEFAULT_EXP_TERMS), start=1):
        factorial *= n
        totals = [total + col / factorial for total, col in zip(totals, cols)]
    return EntryDerivatives(*totals)


FAMILIES: dict[str, FamilySpec] = {}


def _declare(spec: FamilySpec, conj: bool = False) -> None:
    """Add a family, and with ``conj`` its conj_ twin right after it."""
    FAMILIES[spec.name] = spec
    if conj:
        FAMILIES[f"conj_{spec.name}"] = conj_input(f"conj_{spec.name}", spec)


def _register(name, value, columns, guard, params, scale_class,
              real_valued=False, conj=False):
    """Declare a base family from its evaluator, columns, guard and parameters."""
    _declare(FamilySpec(name=name, value=value, columns=columns, domain=guard.domain,
                        admissible=guard.admissible, scale_class=scale_class,
                        real_valued=real_valued, params=params), conj)


_register("linear", _linear_inner, _linear_cols, _UNGUARDED, _AFFINE, "linear",
          conj=True)
_register("square", _square_value, _square_cols, _UNGUARDED, (), "quadratic",
          conj=True)
_declare(affine_input("linear_square", FAMILIES["square"]), conj=True)
_register("inverse", _inverse_value, _inverse_cols, _MODULUS, (), "linear",
          conj=True)
_declare(affine_input("linear_inverse", FAMILIES["inverse"]), conj=True)
_register("real_part", _real_part_value, _real_part_cols, _UNGUARDED, (),
          "linear", real_valued=True)
_declare(affine_input("linear_real_part", FAMILIES["real_part"]), conj=True)
_register("vector_modulus", _vector_modulus_value, _vector_modulus_cols, _VECTOR,
          (), "linear", real_valued=True)
_register("unit_pure_axis", _unit_pure_axis_value, _unit_pure_axis_cols, _VECTOR,
          (), "linear")
# |Im q| >= MIN_MODULUS already implies |q| >= MIN_MODULUS.
_register("arctan_arg", _arctan_arg_value, _arctan_arg_cols, _VECTOR, (),
          "linear", real_valued=True)
_register("unit_vector", _unit_vector_value, _unit_vector_cols, _MODULUS, (),
          "linear", conj=True)
_declare(affine_input("linear_unit_vector", FAMILIES["unit_vector"]), conj=True)
_register("modulus", _modulus_value, _modulus_cols, _MODULUS, (), "linear",
          real_valued=True)
_register("modulus_squared", _modulus_squared_value, _modulus_squared_cols,
          _UNGUARDED, (), "quadratic", real_valued=True)
_declare(affine_input("linear_modulus", FAMILIES["modulus"]), conj=True)
_declare(affine_input("linear_modulus_squared", FAMILIES["modulus_squared"]),
         conj=True)
_register("power", _power_value, _power_cols, _UNGUARDED, ("n",), "quadratic")
_register("exponential", _exponential_value, _exponential_cols, _UNGUARDED, (),
          "quadratic")


def catalogue() -> tuple[FamilySpec, ...]:
    """All registered families, in a stable order."""
    return tuple(FAMILIES.values())


def sample_axis(rng: np.random.Generator) -> Quaternion:
    """A GHR axis: a uniform draw from [-2, 2]^4 with |mu| >= AXIS_MODULUS."""
    return random_quaternion(rng, *_POINT_RANGE, min_modulus=AXIS_MODULUS)


def sample_one(spec: FamilySpec, rng: np.random.Generator):
    """One (entry, point, axis) draw of the table."""
    entry = spec.sample_entry(rng)
    return entry, spec.sample_point(entry, rng), sample_axis(rng)


def sample_batch(spec: FamilySpec, rng: np.random.Generator, count: int):
    """count draws of sample_one, bit for bit, by sampling.uniform_rows,
    leaving rng where they would: the entry, with its coefficients stacked
    into (4, count) QArrays, and the (4, count) QArrays of points and axes.
    A family with a count n draws it with rng.integers, from a buffer a
    rewind would replay too, so its points are drawn one by one, and its
    entries come back as a list."""
    if "n" in spec.params:
        entries, qs, mus = zip(*(sample_one(spec, rng) for _ in range(count)))
        return list(entries), QArray(list(zip(*qs))), QArray(list(zip(*mus)))

    def stacked(rows):
        comps = rows.T.copy()
        *coefficients, q, mu = (QArray(comps[k:k + 4]) for k in range(0, len(comps), 4))
        return TableEntry(spec.name, **dict(zip(spec.params, coefficients))), q, mu

    def keep(rows):
        entry, q, mu = stacked(rows)
        return np.logical_and(spec.admissible(entry, q), mu.modulus() >= AXIS_MODULUS)

    def redraw(rng):
        entry, q, mu = sample_one(spec, rng)
        return [x for p in spec.params for x in getattr(entry, p)] + [*q, *mu]

    ranges = [_COEFFICIENT_RANGE] * len(spec.params) + [_POINT_RANGE] * 2
    return stacked(uniform_rows(rng, count, ranges, keep, redraw))


def _checked_family(entry: TableEntry, q=None, mu=None) -> FamilySpec:
    """The entry's family, after checking each field it reads and, where
    given, the axis mu, the point q and the family's domain guard at q."""
    spec = FAMILIES.get(entry.family)
    if spec is None:
        raise ValueError(f"unknown table family {entry.family!r}")
    for name in spec.params:
        _PARAMS[name].check(f"{entry.family}: {name}", getattr(entry, name))
    if mu is not None:
        axis_modulus_squared(mu)
    if q is not None:
        finite_quaternion(f"{entry.family}: point", q)
        violation = spec.domain(entry, q)
        if violation:
            raise ValueError(f"{entry.family}: {violation}")
    return spec


def eval_entry(entry: TableEntry, q: Quaternion) -> Quaternion:
    """Value of the family at q, after checking the entry, q and the domain."""
    return _checked_family(entry, q).value(entry, q)


def derivative(entry: TableEntry, q: Quaternion, mu: Quaternion) -> EntryDerivatives:
    """Closed-form derivative columns (times mu) of the family at q.

    q and mu may also be (4, N) QArrays, with the entry's coefficients
    stacked the same way; the checks then hold at every point.
    """
    return _checked_family(entry, q, mu).columns(entry, q, mu)


def as_function(entry: TableEntry | Sequence[TableEntry]) -> Callable[[Quaternion], Quaternion]:
    """The family's value as a function of q, with an array form: every
    evaluator is written with operators and methods that QArray shares.

    Given a sequence of entries, one per point on the last axis of the
    QArrays it takes, the function evaluates each run of points that share
    family and count n (_batches) in one call on its slice of that axis.
    The rule draws in identities check a round of draws this way, and
    replay a failed round draw by draw with each draw's own entries.
    """
    if isinstance(entry, TableEntry):
        spec = _checked_family(entry)
        return takes_arrays(lambda p: spec.value(entry, p))
    runs = [(part, as_function(stacked)) for part, stacked in _batches(entry)]

    @takes_arrays
    def by_family(p: QArray) -> QArray:
        values = np.empty(p.c.shape)
        for part, fn in runs:
            values[..., part] = fn(QArray(p.c[..., part])).c
        return QArray(values)

    return by_family


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


def _batches(entries: Sequence[TableEntry]):
    """(point indices, entry) for each run of points whose entries share
    family and count n; the entry holds the run's Quaternion coefficients
    stacked into (4, n) QArrays."""
    runs: dict[tuple, list[int]] = {}
    for k, entry in enumerate(entries):
        runs.setdefault((entry.family, entry.n), []).append(k)
    for part in runs.values():
        stacked = {}
        for name in _AFFINE:
            values = [getattr(entries[k], name) for k in part]
            # None where a point lacks it, which the entry check rejects.
            stacked[name] = QArray(list(zip(*values))) \
                if all(isinstance(v, Quaternion) for v in values) else None
        yield part, entries[part[0]]._replace(**stacked)


def _compare(closed: EntryDerivatives, pair: derivatives.GhrPair, mu) -> CrossCheck:
    num_mu = pair.d_mu * mu
    num_conj = pair.d_mu_conj * mu
    res_mu = abs(closed.d_mu_times_mu - num_mu) / (1.0 + abs(closed.d_mu_times_mu))
    res_conj = abs(closed.d_mu_conj_times_mu - num_conj) / (1.0 + abs(closed.d_mu_conj_times_mu))
    return CrossCheck(closed.d_mu_times_mu, closed.d_mu_conj_times_mu,
                      num_mu, num_conj, res_mu, res_conj)


def cross_validate(entry: TableEntry | Sequence[TableEntry], q: Quaternion,
                   mu: Quaternion) -> CrossCheck:
    """Compare the closed-form columns against the numerical GHR derivative.

    Residuals are relative: |closed - numerical| / (1 + |closed|).

    Batched, q and mu are QArrays of (4, N) points and axes, and entry is
    either one entry with its coefficients stacked into (4, N) QArrays, as
    sample_batch draws them, or a sequence of N entries.  Every field then
    holds N values, bit for bit the one-point calls', and a bad point
    raises the error that the one-point calls, in point order, raise
    first.  Temporaries grow with N, so callers bound it.
    """
    if isinstance(q, QArray):
        return _cross_validate_batch(entry, q, mu)
    closed = derivative(entry, q, mu)
    return _compare(closed, derivatives.left_ghr(as_function(entry), q, mu), mu)


def _unstacked(entry: TableEntry, size: int) -> list[TableEntry]:
    """The size one-point entries of an entry with stacked coefficients."""
    columns = {name: [Quaternion(*c) for c in value.c.T.tolist()]
               for name, value in _stacked_coefficients(entry).items()}
    return [entry._replace(**{name: column[k] for name, column in columns.items()})
            for k in range(size)]


def _stacked_coefficients(entry: TableEntry) -> dict[str, QArray]:
    return {name: value for name in _AFFINE
            if isinstance(value := getattr(entry, name), QArray)}


def _cross_validate_batch(entries: TableEntry | Sequence[TableEntry], q: QArray,
                          mu: QArray) -> CrossCheck:
    size = q.c.shape[1]
    stacked = isinstance(entries, TableEntry)
    if stacked:
        runs = [(slice(None), entries)]
        fits = all(value.c.shape == q.c.shape
                   for value in _stacked_coefficients(entries).values())
        count = size if fits else -1
    else:
        runs, count = _batches(entries), len(entries)
    if count != size or mu.c.shape != q.c.shape:
        raise ValueError("a batch takes one entry and one axis per point")
    fields = [np.empty((4, size)) for _ in range(4)] + [np.empty(size) for _ in range(2)]
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for part, entry in runs:
                points, axes = QArray(q.c[:, part]), QArray(mu.c[:, part])
                closed = derivative(entry, points, axes)
                pair = derivatives.left_ghr(as_function(entry), points, axes)
                for out, value in zip(fields, _compare(closed, pair, axes)):
                    out[..., part] = getattr(value, "c", value)
    except (ArithmeticError, TypeError, ValueError):
        # The batch only knows that some point failed: the one-point calls
        # raise the first failure, with its own exception and message.
        one_point = _unstacked(entries, size) if stacked else entries
        for entry, point, axis in zip(one_point, q.c.T.tolist(), mu.c.T.tolist()):
            cross_validate(entry, Quaternion(*point), Quaternion(*axis))
        raise
    return CrossCheck(*map(QArray, fields[:4]), *fields[4:])
