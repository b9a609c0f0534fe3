"""The identity suite behind the ``verify`` command.

Each record checks one calculus identity at one random point and reports a
residual against a named tolerance.  A few identities assert that something
is *not* small (the failure of the traditional product rule, the
non-commutation of mixed second derivatives); those encode the margin as
max(0, required - observed) so that every record still passes when the
residual is at most the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import derivatives, tables
from .derivatives import (DegenerateAxisError, ghr_from_partials,
                          hr_from_partials, left_ghr, left_hr, real_partials,
                          second_order, second_order_right)
from .quaternion import I, ONE, Quaternion, rotate
from .sampling import make_rng, random_quaternion

DEFAULT_POINTS = 25
DEFAULT_SEED = 20240501
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

_TOL_KEYS = {
    "dq_dq": "golden",
    "dqc_dq": "golden",
    "dq2_dq": "golden",
    "dmod2_dq": "golden",
    "ghr_identity_cols": "ghr_linear",
    "ghr_mu_one_reduction": "ghr_reduction",
    "product_rule": "product_rule",
    "product_rule_conj": "product_rule",
    "chain_rule": "chain_rule",
    "chain_rule_conj": "chain_rule",
    "chain_rule_real": "chain_rule",
    "conjugation": "conjugation",
    "flavor_real": "flavor_real",
    "real_conjugate": "real_conjugate",
    "rotation_transport": "rotation_transport",
    "left_constant": "left_constant",
    "counter_example_gap": "counter_example",
    "traditional_rule_fails": "counter_gap",
    "reconstruction": "reconstruction",
    "laplacian_mod2": "laplacian",
    "second_order_conjugation": "second_order_conjugation",
    "second_order_left_right": "second_order_left_right",
    "mixed_noncommute": "mixed_noncommute",
}


@dataclass(frozen=True)
class IdentityRecord:
    identity: str
    point: Optional[Quaternion]
    mu: Optional[Quaternion]
    nu: Optional[Quaternion]
    residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class SuiteResult:
    records: tuple[IdentityRecord, ...]
    product_skips: int
    chain_skips: int

    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)


def _f_sq(p: Quaternion) -> Quaternion:
    return p * p


def _f_conj(p: Quaternion) -> Quaternion:
    return p.conjugate()


def _f_mod2(p: Quaternion) -> Quaternion:
    return Quaternion.from_real(p.modulus_squared())


def _f_cross(p: Quaternion) -> Quaternion:
    # Real-valued product of two imaginary components; its mixed second
    # derivatives with respect to q and q^i genuinely differ.
    return Quaternion.from_real(p.b * p.c)


def _record(name: str, tols: dict, residual: float, point=None, mu=None, nu=None):
    tol = tols[_TOL_KEYS[name]]
    return IdentityRecord(identity=name, point=point, mu=mu, nu=nu,
                          residual=residual, tol=tol, passed=residual <= tol)


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


def golden_records(q: Quaternion, tols: dict) -> list[IdentityRecord]:
    golden = (("dq_dq", lambda p: p, ONE), ("dqc_dq", _f_conj, ONE * -0.5),
              ("dq2_dq", _f_sq, q + q.a), ("dmod2_dq", _f_mod2, q.conjugate() * 0.5))
    return [_record(name, tols, abs(left_hr(f, q).wrt_q - expected), point=q)
            for name, f, expected in golden]


def ghr_linear_records(q: Quaternion, mu: Quaternion, tols: dict) -> list[IdentityRecord]:
    pair = left_ghr(lambda p: p, q, mu)
    res = max(abs(pair.d_mu * mu - Quaternion.from_real(mu.a)),
              abs(pair.d_mu_conj * mu + mu.conjugate() * 0.5))
    # One stencil of q^2 serves both sides of the mu = 1 reduction.
    parts = real_partials(_f_sq, q).as_tuple()
    reduction = abs(ghr_from_partials(parts, ONE, "left").d_mu
                    - hr_from_partials(parts, "left").wrt_q)
    return [_record("ghr_identity_cols", tols, res, point=q, mu=mu),
            _record("ghr_mu_one_reduction", tols, reduction, point=q)]


def structural_records(q: Quaternion, mu: Quaternion, nu: Quaternion,
                       tols: dict) -> list[IdentityRecord]:
    out = []
    out.append(_record("conjugation", tols,
                       derivatives.conjugation_relation(_f_sq, q, mu),
                       point=q, mu=mu))
    # One stencil of |q|^2 serves its left HR, right HR and left GHR sets.
    parts = real_partials(_f_mod2, q).as_tuple()
    left = hr_from_partials(parts, "left")
    right = hr_from_partials(parts, "right")
    flavor = max(abs(left.wrt(ax, conj=c) - right.wrt(ax, conj=c))
                 for ax in ("1", "i", "j", "k") for c in (False, True))
    out.append(_record("flavor_real", tols, flavor, point=q))
    pair = ghr_from_partials(parts, mu, "left")
    out.append(_record("real_conjugate", tols,
                       abs(pair.d_mu.conjugate() - pair.d_mu_conj), point=q, mu=mu))
    d_sq = left_ghr(_f_sq, q, mu).d_mu
    transported = rotate(d_sq, nu)
    direct = left_ghr(lambda p: rotate(_f_sq(p), nu), q, nu * mu).d_mu
    out.append(_record("rotation_transport", tols, abs(transported - direct),
                       point=q, mu=mu, nu=nu))
    scaled = left_ghr(lambda p: nu * _f_sq(p), q, mu).d_mu
    out.append(_record("left_constant", tols,
                       abs(scaled - nu * d_sq),
                       point=q, mu=mu, nu=nu))
    return out


def counter_example_records(q: Quaternion, tols: dict) -> list[IdentityRecord]:
    # The traditional rule would give d(q^2)/dq = 2q; the correct value is
    # q + Re(q).  The gap is exactly |Im(q)|.
    gap = abs(q * 2.0 - (q + q.a))
    expected = q.vector_modulus()
    out = [_record("counter_example_gap", tols, abs(gap - expected), point=q)]
    if expected >= 1.0:
        out.append(_record("traditional_rule_fails", tols,
                           max(0.0, 0.5 - gap), point=q))
    return out


def reconstruction_record(q: Quaternion, dq: Quaternion, tols: dict) -> IdentityRecord:
    e1 = derivatives.differential_consistency(_f_sq, q, dq)
    e2 = derivatives.differential_consistency(_f_sq, q, dq * 0.5)
    if e1 < 1e-12:
        return _record("reconstruction", tols, 0.0, point=q)
    ratio = e1 / max(e2, 1e-300)
    return _record("reconstruction", tols, max(0.0, 3.0 - ratio), point=q)


def second_order_records(q: Quaternion, mu: Quaternion, nu: Quaternion,
                         tols: dict) -> list[IdentityRecord]:
    out = []
    # Left over left for both axis orders: entry [m][n] differentiates the
    # inner field along axes[n] by the outer derivative along axes[m].
    left = second_order(_f_mod2, q, (mu, nu), (mu, nu))
    mixed = left[0][0].mu_nu_conj
    out.append(_record("laplacian_mod2", tols, abs(mixed * 16.0 - Quaternion.from_real(8.0)),
                       point=q, mu=mu))
    # For real f, conjugating a mixed second derivative swaps its flavor:
    # d_r(df/dq^nu)/dq^mu = conj of d(df/dq^(nu*))/dq^(mu*).
    lhs = second_order(_f_mod2, q, (mu,), (nu,), outer="right")[0][0].mu_nu
    rhs = left[0][1].mu_conj_nu_conj.conjugate()
    out.append(_record("second_order_conjugation", tols, abs(lhs - rhs),
                       point=q, mu=mu, nu=nu))
    # Same real f: the pure-right mixed second with axes (mu, nu) equals the
    # pure-left mixed second with the axes swapped.
    rr = second_order_right(_f_mod2, q, mu, nu).mu_nu
    ll = left[1][0].mu_nu
    out.append(_record("second_order_left_right", tols, abs(rr - ll),
                       point=q, mu=mu, nu=nu))
    cross = second_order(_f_cross, q, (ONE, I), (ONE, I))
    gap = abs(cross[0][1].mu_nu - cross[1][0].mu_nu)
    out.append(_record("mixed_noncommute", tols, max(0.0, 0.15 - gap), point=q))
    return out


def product_rule_records(rng: np.random.Generator, draws: int,
                         tols: dict) -> tuple[list[IdentityRecord], int]:
    records = []
    skips = 0
    while len(records) < draws:
        f_spec, g_spec = _sample_product_pair(rng)
        f_entry = f_spec.sample_entry(rng)
        g_entry = g_spec.sample_entry(rng)
        q = _admissible_point(f_spec, f_entry, g_spec, g_entry, rng)
        if q is None:
            skips += 1
            continue
        mu = random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
        conjugate = rng.random() < PRODUCT_CONJUGATE_SHARE
        try:
            res = derivatives.check_product_rule(
                tables.as_function(f_entry), tables.as_function(g_entry),
                q, mu, conjugate=conjugate)
        except DegenerateAxisError:
            skips += 1
            continue
        name = "product_rule_conj" if conjugate else "product_rule"
        records.append(_record(name, tols, res, point=q, mu=mu))
    return records, skips


def chain_rule_records(rng: np.random.Generator, draws: int,
                       tols: dict) -> tuple[list[IdentityRecord], int]:
    specs = tables.catalogue()
    linear_specs = [s for s in specs if s.scale_class == "linear"]
    real_specs = [s for s in specs if s.real_valued]
    records = []
    skips = 0
    while len(records) < draws:
        if rng.random() < CHAIN_REAL_SHARE:
            # Real chain corollary: F(x) = x^2 applied to a real-valued g.
            g_spec = real_specs[rng.integers(len(real_specs))]
            g_entry = g_spec.sample_entry(rng)
            q = g_spec.sample_point(g_entry, rng)
            mu = random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
            g_fn = tables.as_function(g_entry)
            composite = lambda p: Quaternion.from_real(g_fn(p).a ** 2)
            lhs = left_ghr(composite, q, mu).d_mu
            rhs = left_ghr(g_fn, q, mu).d_mu * (2.0 * g_fn(q).a)
            records.append(_record("chain_rule_real", tols, abs(lhs - rhs),
                                   point=q, mu=mu))
            continue
        f_spec = specs[rng.integers(len(specs))]
        g_spec = linear_specs[rng.integers(len(linear_specs))]
        f_entry = f_spec.sample_entry(rng)
        g_entry = g_spec.sample_entry(rng)
        q = g_spec.sample_point(g_entry, rng)
        if f_spec.domain(f_entry, tables.eval_entry(g_entry, q)) is not None:
            skips += 1
            continue
        mu = random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
        nu = random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
        conjugate = rng.random() < CHAIN_CONJUGATE_SHARE
        try:
            res = derivatives.check_chain_rule(
                tables.as_function(f_entry), tables.as_function(g_entry),
                q, mu, nu, conjugate=conjugate)
        except DegenerateAxisError:
            skips += 1
            continue
        name = "chain_rule_conj" if conjugate else "chain_rule"
        records.append(_record(name, tols, res, point=q, mu=mu, nu=nu))
    return records, skips


def run_identity_suite(points: int = DEFAULT_POINTS, seed: int = DEFAULT_SEED,
                       tolerances: Optional[dict[str, float]] = None) -> SuiteResult:
    """Evaluate the whole identity suite and return one record per check."""
    if points < 1:
        raise ValueError("points must be a positive integer")
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        tols.update(tolerances)
    rng = make_rng(seed)
    records: list[IdentityRecord] = []
    records.extend(counter_example_records(Quaternion(1.0, 1.0, 1.0, 1.0), tols))
    for _ in range(points):
        q = random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
        mu = random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
        nu = random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
        dq = random_quaternion(rng, -1.0, 1.0) * 1e-3
        records.extend(golden_records(q, tols))
        records.extend(ghr_linear_records(q, mu, tols))
        records.extend(structural_records(q, mu, nu, tols))
        records.extend(counter_example_records(q, tols))
        records.append(reconstruction_record(q, dq, tols))
        records.extend(second_order_records(q, mu, nu, tols))
    product_records, product_skips = product_rule_records(rng, PRODUCT_DRAWS, tols)
    records.extend(product_records)
    chain_records, chain_skips = chain_rule_records(rng, CHAIN_DRAWS, tols)
    records.extend(chain_records)
    return SuiteResult(tuple(records), product_skips, chain_skips)
