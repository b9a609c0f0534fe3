"""The identity suite behind the ``verify`` command.

Each record checks one calculus identity at one random point and reports a
residual against a named tolerance.  A few identities assert that something
is *not* small (the failure of the traditional product rule, the
non-commutation of mixed second derivatives); those encode the margin as
max(0, required - observed) so that every record still passes when the
residual is at most the tolerance.

Each record kind names its tolerance where its residual is computed: a
Column carries the DEFAULT_TOLERANCES name that judges it, and every kind
of a rule check (product_rule_conj, chain_rule_real, ...) is judged by its
rule's name.

The per-point record kinds take a block of points as (4, N) QArrays and
return one Column of residuals per identity, evaluated in one array pass
with the bits of the point-by-point formulas: the derivative functions
take the QArray of points as they take one point.  run_identity_suite
turns the columns into records in point order.  The product- and
chain-rule draws pick a function pair per draw: each rule draws all its
draws first, in the rng order of a draw-by-draw loop, then checks them in
one array pass, every table family evaluated once on its draws' points.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

import numpy as np

from . import derivatives, tables
from .derivatives import (DegenerateAxisError, ghr_from_partials,
                          hr_from_partials, left_ghr, real_partials,
                          second_order, takes_arrays)
from .quaternion import (AXES, I, ONE, ZERO, QArray, Quaternion, _by_floats, integer,
                         real_number, rotate)
from .sampling import make_rng, random_quaternion, uniform_rows

DEFAULT_POINTS = 25
DEFAULT_SEED = 20240501
# The least |q| of the suite's points, which _point_row draws.
POINT_MODULUS = 0.1
_ROW_RANGES = [(-2.0, 2.0)] * 3 + [(-1.0, 1.0)]
# Points per array pass of the per-point record kinds.
BLOCK = 1024
PRODUCT_DRAWS = 80
CHAIN_DRAWS = 50
# Shares of the rule-check draws that take the conjugate form of the rule, and
# of the chain-rule draws that check the real corollary instead.
PRODUCT_CONJUGATE_SHARE = 0.3
CHAIN_CONJUGATE_SHARE = 0.25
CHAIN_REAL_SHARE = 0.25

DEFAULT_TOLERANCES: dict[str, float] = {
    "golden": 1e-6,
    "ghr_linear": 1e-6,
    "ghr_reduction": 1e-10,
    "product_rule": 1e-5,
    "chain_rule": 1e-5,
    "conjugation": 1e-6,
    "flavor_real": 1e-8,
    "real_conjugate": 1e-8,
    "rotation_transport": 1e-6,
    "left_constant": 1e-6,
    "counter_example": 1e-10,
    "counter_gap": 0.0,
    "reconstruction": 0.0,
    "laplacian": 1e-2,
    "second_order_conjugation": 1e-8,
    "second_order_left_right": 1e-5,
    "mixed_noncommute": 0.0,
}


class IdentityRecord(NamedTuple):
    identity: str
    point: Optional[Quaternion]
    mu: Optional[Quaternion]
    nu: Optional[Quaternion]
    residual: float
    tol: float
    passed: bool


class SuiteResult(NamedTuple):
    records: tuple[IdentityRecord, ...]
    product_skips: int
    chain_skips: int


# q, q*, q^2 and |q|^2 are the catalogue's own families.
_f_identity = tables.as_function(tables.TableEntry("linear", ONE, ONE, ZERO))
_f_conj = tables.as_function(tables.TableEntry("conj_linear", ONE, ONE, ZERO))
_f_sq = tables.as_function(tables.TableEntry("square"))
_f_mod2 = tables.as_function(tables.TableEntry("modulus_squared"))


@takes_arrays
def _f_cross(p: Quaternion) -> Quaternion:
    # Real-valued product of two imaginary components; its mixed second
    # derivatives with respect to q and q^i genuinely differ.  A QArray's
    # .c is its whole component array, not the j component.
    _, b, c, _ = p.c if isinstance(p, QArray) else p
    return type(p).from_real(b * c)


def _record(name: str, tol: float, residual: float, point=None, mu=None, nu=None):
    return IdentityRecord(name, point, mu, nu, residual, tol, residual <= tol)


def _sample_product_pair(rng: np.random.Generator):
    specs = tables.catalogue()
    while True:
        f_spec = specs[rng.integers(len(specs))]
        g_spec = specs[rng.integers(len(specs))]
        if f_spec.scale_class == "quadratic" and g_spec.scale_class == "quadratic":
            continue
        return f_spec, g_spec


def _admissible_point(f_spec, f_entry, g_spec, g_entry, rng) -> Optional[Quaternion]:
    for _ in range(50):
        q = f_spec.sample_point(f_entry, rng)
        if g_spec.domain(g_entry, q) is None:
            return q
    return None


class Column(NamedTuple):
    """One identity's residuals over a block of points, as Python floats,
    judged by the DEFAULT_TOLERANCES entry named ``tolerance``.

    A point without this record has None.  ``axes`` says how many of the
    point's (mu, nu) the records name: 0, 1 (mu) or 2 (mu and nu).
    """

    identity: str
    tolerance: str
    residuals: list
    axes: int = 0


def _column(identity: str, tolerance: str, residuals: np.ndarray, axes: int = 0) -> Column:
    return Column(identity, tolerance, residuals.tolist(), axes)


def _largest(residuals) -> np.ndarray:
    """The elementwise max of residual arrays, as max() takes them in turn."""
    return functools.reduce(np.maximum, residuals)


class _Partials(NamedTuple):
    """Real partials at a block of points, shared by several record kinds."""

    identity: list[QArray]
    conj: list[QArray]
    sq: list[QArray]
    mod2: list[QArray]


def _partials(q: QArray) -> _Partials:
    return _Partials(*(real_partials(f, q)
                       for f in (_f_identity, _f_conj, _f_sq, _f_mod2)))


def golden_records(q: QArray, parts: _Partials) -> list[Column]:
    golden = (("dq_dq", parts.identity, ONE), ("dqc_dq", parts.conj, ONE * -0.5),
              ("dq2_dq", parts.sq, q + q.a), ("dmod2_dq", parts.mod2, q.conjugate() * 0.5))
    return [_column(name, "golden", abs(hr_from_partials(p, "left").wrt_q - expected))
            for name, p, expected in golden]


def ghr_linear_records(q: QArray, mu: QArray, parts: _Partials) -> list[Column]:
    pair = ghr_from_partials(parts.identity, mu, "left")
    res = np.maximum(abs(pair.d_mu * mu - QArray.from_real(mu.a)),
                     abs(pair.d_mu_conj * mu + mu.conjugate() * 0.5))
    reduction = abs(ghr_from_partials(parts.sq, ONE, "left").d_mu
                    - hr_from_partials(parts.sq, "left").wrt_q)
    return [_column("ghr_identity_cols", "ghr_linear", res, 1),
            _column("ghr_mu_one_reduction", "ghr_reduction", reduction)]


def structural_records(q: QArray, mu: QArray, nu: QArray,
                       parts: _Partials) -> list[Column]:
    conjugation = _largest(derivatives.conjugation_residuals(parts.sq, mu))
    # One stencil of |q|^2 serves its left HR, right HR and left GHR sets.
    left = hr_from_partials(parts.mod2, "left")
    right = hr_from_partials(parts.mod2, "right")
    flavor = _largest(abs(left.wrt(ax, conj=c) - right.wrt(ax, conj=c))
                      for ax in AXES for c in (False, True))
    pair = ghr_from_partials(parts.mod2, mu, "left")
    d_sq = ghr_from_partials(parts.sq, mu, "left").d_mu
    transported = rotate(d_sq, nu)
    direct = left_ghr(takes_arrays(lambda p: rotate(_f_sq(p), nu)), q, nu * mu).d_mu
    scaled = left_ghr(takes_arrays(lambda p: nu * _f_sq(p)), q, mu).d_mu
    return [_column("conjugation", "conjugation", conjugation, 1),
            _column("flavor_real", "flavor_real", flavor),
            _column("real_conjugate", "real_conjugate",
                    abs(pair.d_mu.conjugate() - pair.d_mu_conj), 1),
            _column("rotation_transport", "rotation_transport", abs(transported - direct), 2),
            _column("left_constant", "left_constant", abs(scaled - nu * d_sq), 2)]


def counter_example_records(q: QArray) -> list[Column]:
    # The traditional rule would give d(q^2)/dq = 2q; the correct value is
    # q + Re(q).  The gap is exactly |Im(q)|.
    gap = abs(q * 2.0 - (q + q.a))
    expected = q.vector_modulus()
    fails = np.maximum(0.0, 0.5 - gap).tolist()
    return [_column("counter_example_gap", "counter_example", abs(gap - expected)),
            Column("traditional_rule_fails", "counter_gap",
                   [r if big else None for r, big in zip(fails, (expected >= 1.0).tolist())])]


def reconstruction_record(q: QArray, dq: QArray, parts: _Partials) -> list[Column]:
    derivative_set = hr_from_partials(parts.sq, "left")
    value = _f_sq(q)
    e1, e2 = (abs((_f_sq(q + step) - value) - derivative_set.differential(step))
              for step in (dq, dq * 0.5))
    ratio = e1 / np.maximum(e2, 1e-300)
    return [_column("reconstruction", "reconstruction",
                    np.where(e1 < 1e-12, 0.0, np.maximum(0.0, 3.0 - ratio)))]


def second_order_records(q: QArray, mu: QArray, nu: QArray) -> list[Column]:
    # Left over left for both axis orders: entry [m][n] differentiates the
    # inner field along axes[n] by the outer derivative along axes[m].
    left = second_order(_f_mod2, q, (mu, nu), (mu, nu))
    mixed = left[0][0].mu_nu_conj
    laplacian = abs(mixed * 16.0 - Quaternion.from_real(8.0))
    # For real f, conjugating a mixed second derivative swaps its flavor:
    # d_r(df/dq^nu)/dq^mu = conj of d(df/dq^(nu*))/dq^(mu*).
    lhs = second_order(_f_mod2, q, (mu,), (nu,), outer="right")[0][0].mu_nu
    rhs = left[0][1].mu_conj_nu_conj.conjugate()
    # Same real f: the pure-right mixed second with axes (mu, nu) equals the
    # pure-left mixed second with the axes swapped.
    rr = second_order(_f_mod2, q, (mu,), (nu,), "right", "right")[0][0].mu_nu
    ll = left[1][0].mu_nu
    cross = second_order(_f_cross, q, (ONE, I), (ONE, I))
    gap = abs(cross[0][1].mu_nu - cross[1][0].mu_nu)
    return [_column("laplacian_mod2", "laplacian", laplacian, 1),
            _column("second_order_conjugation", "second_order_conjugation",
                    abs(lhs - rhs), 2),
            _column("second_order_left_right", "second_order_left_right", abs(rr - ll), 2),
            _column("mixed_noncommute", "mixed_noncommute", np.maximum(0.0, 0.15 - gap))]


class _Draw(NamedTuple):
    """One rule-check draw.  f is None for the real chain corollary, and
    nu is None for it and for the product rule."""

    f: Optional[tables.TableEntry]
    g: tables.TableEntry
    q: Quaternion
    mu: Quaternion
    nu: Optional[Quaternion]
    conjugate: bool


def _float_square(x: float) -> float:
    return x ** 2


def _real_square(g):
    """p -> g(p)^2 for a real-valued g, with an array form that squares
    through Python floats: numpy's x * x and x ** 2 can differ from
    Python's x ** 2 in the last ulp."""
    return takes_arrays(lambda p: type(p).from_real(_by_floats(_float_square, g(p).a)))


def _real_chain_residual(g, q, mu):
    """Residual of the real chain corollary for F(x) = x^2 applied to a
    real-valued g: d F(g)/dq^mu = dg/dq^mu * 2 g(q).  Like the rule checks
    it takes one point or a QArray of points, with g's array form."""
    lhs = left_ghr(_real_square(g), q, mu).d_mu
    rhs = left_ghr(g, q, mu).d_mu * (2.0 * g(q).a)
    return abs(lhs - rhs)


def _batch_args(draws: list[_Draw]) -> tuple:
    """A rule check's arguments for draws of one kind: each entry field as
    one function over all draws (tables.as_function), the quaternions
    stacked on the last axis, the flags as a bool array, and None for a
    field the draws lack."""
    f, g, q, mu, nu, conjugate = zip(*draws)
    return (None if f[0] is None else tables.as_function(f), tables.as_function(g),
            _stack(q), _stack(mu), None if nu[0] is None else _stack(nu), np.array(conjugate))


def _point_args(draw: _Draw) -> tuple:
    """The same arguments for one draw, at its one point."""
    f, g, q, mu, nu, conjugate = draw
    return (None if f is None else tables.as_function(f), tables.as_function(g),
            q, mu, nu, conjugate)


def _check(f, g, q, mu, nu, conjugate):
    """The residual of a draw's rule, at one point or at a QArray of points."""
    # Python floats overflow silently; so do the arrays that stand for them.
    with np.errstate(over="ignore", invalid="ignore"):
        if f is None:
            return _real_chain_residual(g, q, mu)
        if nu is None:
            return derivatives.check_product_rule(f, g, q, mu, conjugate=conjugate)
        return derivatives.check_chain_rule(f, g, q, mu, nu, conjugate=conjugate)


def _residuals(draws: list[_Draw]) -> list:
    """Each draw's residual, None for a degenerate draw.

    The draws of each kind (the real chain corollary or not) run as one
    batch.  If that raises, the draws run one by one through the one-point
    checks, in draw order: that skips the degenerate draws and raises the
    first error that a draw-by-draw loop raises.  This is the one replay
    of the rule checks: on many points they raise whatever their array
    pass meets first.
    """
    residuals = [None] * len(draws)
    try:
        for real in (True, False):
            picked = [k for k, d in enumerate(draws) if (d.f is None) == real]
            if picked:
                values = _check(*_batch_args([draws[k] for k in picked])).tolist()
                for k, value in zip(picked, values):
                    residuals[k] = value
    except (ArithmeticError, TypeError, ValueError):
        for k, draw in enumerate(draws):
            try:
                residuals[k] = _check(*_point_args(draw))
            except DegenerateAxisError:
                # A rule check skips a degenerate draw; the corollary does not.
                if draw.f is None:
                    raise
                residuals[k] = None
    return residuals


def _rule_records(draw, draws: int, tols: dict,
                  name: str) -> tuple[list[IdentityRecord], int]:
    """``draws`` records of one rule, in rounds: each round draws as many
    draws (at most BLOCK) as records are missing, with ``draw`` returning
    None for a skipped draw, and checks them as one batch.  Degenerate
    draws are skipped after the round and the next round tops up, so the
    rng runs through the same draws as a draw-by-draw loop."""
    tol = tols[name]
    records: list[IdentityRecord] = []
    skips = 0
    while len(records) < draws:
        batch_draws = []
        while len(batch_draws) < min(BLOCK, draws - len(records)):
            candidate = draw()
            if candidate is None:
                skips += 1
            else:
                batch_draws.append(candidate)
        for d, res in zip(batch_draws, _residuals(batch_draws)):
            if res is None:
                skips += 1
                continue
            kind = name + ("_real" if d.f is None else "_conj" if d.conjugate else "")
            records.append(_record(kind, tol, res, point=d.q, mu=d.mu, nu=d.nu))
    return records, skips


def product_rule_records(rng: np.random.Generator, draws: int,
                         tols: dict) -> tuple[list[IdentityRecord], int]:
    def draw() -> Optional[_Draw]:
        f_spec, g_spec = _sample_product_pair(rng)
        f_entry = f_spec.sample_entry(rng)
        g_entry = g_spec.sample_entry(rng)
        q = _admissible_point(f_spec, f_entry, g_spec, g_entry, rng)
        if q is None:
            return None
        return _Draw(f_entry, g_entry, q, tables.sample_axis(rng), None,
                     rng.random() < PRODUCT_CONJUGATE_SHARE)

    return _rule_records(draw, draws, tols, "product_rule")


def chain_rule_records(rng: np.random.Generator, draws: int,
                       tols: dict) -> tuple[list[IdentityRecord], int]:
    specs = tables.catalogue()
    linear_specs = [s for s in specs if s.scale_class == "linear"]
    real_specs = [s for s in specs if s.real_valued]

    def draw() -> Optional[_Draw]:
        if rng.random() < CHAIN_REAL_SHARE:
            # Real chain corollary: F(x) = x^2 applied to a real-valued g.
            g_entry, q, mu = tables.sample_one(real_specs[rng.integers(len(real_specs))], rng)
            return _Draw(None, g_entry, q, mu, None, False)
        f_spec = specs[rng.integers(len(specs))]
        g_spec = linear_specs[rng.integers(len(linear_specs))]
        f_entry = f_spec.sample_entry(rng)
        g_entry = g_spec.sample_entry(rng)
        q = g_spec.sample_point(g_entry, rng)
        if f_spec.domain(f_entry, tables.eval_entry(g_entry, q)) is not None:
            return None
        mu, nu = tables.sample_axis(rng), tables.sample_axis(rng)
        return _Draw(f_entry, g_entry, q, mu, nu, rng.random() < CHAIN_CONJUGATE_SHARE)

    return _rule_records(draw, draws, tols, "chain_rule")


def _stack(quaternions) -> QArray:
    return QArray(np.array(quaternions).T)


def _point_row(rng: np.random.Generator) -> list[float]:
    """One point's q, mu, nu and dq (before its 1e-3 scale), one by one."""
    return [*random_quaternion(rng, -2.0, 2.0, min_modulus=POINT_MODULUS),
            *tables.sample_axis(rng), *tables.sample_axis(rng),
            *random_quaternion(rng, -1.0, 1.0)]


def _kept_rows(rows: np.ndarray) -> np.ndarray:
    """Which rows _point_row keeps on its first draws."""
    q, mu, nu = (QArray(rows[:, k:k + 4].T).modulus() for k in (0, 4, 8))
    return (q >= POINT_MODULUS) & (mu >= tables.AXIS_MODULUS) & (nu >= tables.AXIS_MODULUS)


def _emit(columns: list[Column], qs, mus, nus, tols: dict) -> list[IdentityRecord]:
    """The columns' records, point by point, each point's in column order."""
    return [_record(name, tols[tolerance], residuals[k], point=q,
                    mu=mu if axes else None, nu=nu if axes == 2 else None)
            for k, (q, mu, nu) in enumerate(zip(qs, mus, nus))
            for name, tolerance, residuals, axes in columns if residuals[k] is not None]


def run_identity_suite(points: int = DEFAULT_POINTS, seed: int = DEFAULT_SEED,
                       tolerances: Optional[dict[str, float]] = None) -> SuiteResult:
    """Evaluate the whole identity suite and return one record per check.

    The per-point record kinds run BLOCK points at a time on component
    arrays, with the records, bits and order of a point-by-point loop; the
    product- and chain-rule draws then follow on the same rng, drawn first
    and checked on component arrays, with the records, skips and bits of a
    draw-by-draw loop.
    """
    integer("points", points, 1, "a positive integer")
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        for name, value in tolerances.items():
            tols[name] = real_number(f"tolerance {name}", value)
            if np.isnan(tols[name]):
                raise ValueError(f"tolerance {name}: NaN is not a tolerance")
    rng = make_rng(seed)
    fixed = Quaternion(1.0, 1.0, 1.0, 1.0)
    records = _emit(counter_example_records(_stack([fixed])), [fixed], [None], [None], tols)
    for start in range(0, points, BLOCK):
        rows = uniform_rows(rng, min(BLOCK, points - start), _ROW_RANGES, _kept_rows, _point_row)
        q, mu, nu, dq = map(QArray, np.split(rows.T.copy(), 4))
        qs, mus, nus = ([Quaternion(*c) for c in x.c.T.tolist()] for x in (q, mu, nu))
        parts = _partials(q)
        columns = (golden_records(q, parts) + ghr_linear_records(q, mu, parts)
                   + structural_records(q, mu, nu, parts) + counter_example_records(q)
                   + reconstruction_record(q, dq * 1e-3, parts) + second_order_records(q, mu, nu))
        records.extend(_emit(columns, qs, mus, nus, tols))
    product_records, product_skips = product_rule_records(rng, PRODUCT_DRAWS, tols)
    records.extend(product_records)
    chain_records, chain_skips = chain_rule_records(rng, CHAIN_DRAWS, tols)
    records.extend(chain_records)
    return SuiteResult(tuple(records), product_skips, chain_skips)
