"""Identity suite runner: record structure, determinism, overrides, and the
batched suite against its point-by-point oracle."""

import math
import warnings

import numpy as np
import pytest

from quatcalc import derivatives, identities, tables
from quatcalc.derivatives import (DegenerateAxisError, EvaluationError,
                                  ghr_from_partials, has_array_form,
                                  hr_from_partials, left_ghr, left_hr,
                                  real_partials, second_order,
                                  second_order_right, takes_arrays)
from quatcalc.filters import ExperimentConfig, run_experiment
from quatcalc.identities import (DEFAULT_TOLERANCES, IdentityRecord,
                                 SuiteResult, _stack, run_identity_suite)
from quatcalc.quaternion import I, ONE, QArray, Quaternion, rotate
from quatcalc.sampling import make_rng, random_quaternion

# --- point-by-point oracle ----------------------------------------------------
# The per-point record kinds and the product- and chain-rule draw loops as
# they ran before the suite was batched, on scalar Quaternions with the
# one-point checks: the batched suite must give these records bit for bit.

# The record kinds each tolerance judges, written here apart from the suite's
# own columns: a rule's kinds share the rule's tolerance.
TOLERANCE_KINDS = {
    "golden": ("dq_dq", "dqc_dq", "dq2_dq", "dmod2_dq"),
    "ghr_linear": ("ghr_identity_cols",),
    "ghr_reduction": ("ghr_mu_one_reduction",),
    "product_rule": ("product_rule", "product_rule_conj"),
    "chain_rule": ("chain_rule", "chain_rule_conj", "chain_rule_real"),
    "conjugation": ("conjugation",),
    "flavor_real": ("flavor_real",),
    "real_conjugate": ("real_conjugate",),
    "rotation_transport": ("rotation_transport",),
    "left_constant": ("left_constant",),
    "counter_example": ("counter_example_gap",),
    "counter_gap": ("traditional_rule_fails",),
    "reconstruction": ("reconstruction",),
    "laplacian": ("laplacian_mod2",),
    "second_order_conjugation": ("second_order_conjugation",),
    "second_order_left_right": ("second_order_left_right",),
    "mixed_noncommute": ("mixed_noncommute",),
}
ORACLE_TOLERANCE = {kind: name for name, kinds in TOLERANCE_KINDS.items() for kind in kinds}


def _record(kind, tols, residual, point=None, mu=None, nu=None):
    tol = tols[ORACLE_TOLERANCE[kind]]
    return IdentityRecord(kind, point, mu, nu, residual, tol, residual <= tol)


def f_sq(p):
    return p * p


def f_conj(p):
    return p.conjugate()


def f_mod2(p):
    return Quaternion.from_real(p.modulus_squared())


def f_cross(p):
    return Quaternion.from_real(p.b * p.c)


def golden_records(q, tols):
    golden = (("dq_dq", lambda p: p, ONE), ("dqc_dq", f_conj, ONE * -0.5),
              ("dq2_dq", f_sq, q + q.a), ("dmod2_dq", f_mod2, q.conjugate() * 0.5))
    return [_record(name, tols, abs(left_hr(f, q).wrt_q - expected), point=q)
            for name, f, expected in golden]


def ghr_linear_records(q, mu, tols):
    pair = left_ghr(lambda p: p, q, mu)
    res = max(abs(pair.d_mu * mu - Quaternion.from_real(mu.a)),
              abs(pair.d_mu_conj * mu + mu.conjugate() * 0.5))
    parts = real_partials(f_sq, q)
    reduction = abs(ghr_from_partials(parts, ONE, "left").d_mu
                    - hr_from_partials(parts, "left").wrt_q)
    return [_record("ghr_identity_cols", tols, res, point=q, mu=mu),
            _record("ghr_mu_one_reduction", tols, reduction, point=q)]


def structural_records(q, mu, nu, tols):
    out = [_record("conjugation", tols, derivatives.conjugation_relation(f_sq, q, mu),
                   point=q, mu=mu)]
    parts = real_partials(f_mod2, q)
    left = hr_from_partials(parts, "left")
    right = hr_from_partials(parts, "right")
    flavor = max(abs(left.wrt(ax, conj=c) - right.wrt(ax, conj=c))
                 for ax in ("1", "i", "j", "k") for c in (False, True))
    out.append(_record("flavor_real", tols, flavor, point=q))
    pair = ghr_from_partials(parts, mu, "left")
    out.append(_record("real_conjugate", tols,
                       abs(pair.d_mu.conjugate() - pair.d_mu_conj), point=q, mu=mu))
    d_sq = left_ghr(f_sq, q, mu).d_mu
    transported = rotate(d_sq, nu)
    direct = left_ghr(lambda p: rotate(f_sq(p), nu), q, nu * mu).d_mu
    out.append(_record("rotation_transport", tols, abs(transported - direct),
                       point=q, mu=mu, nu=nu))
    scaled = left_ghr(lambda p: nu * f_sq(p), q, mu).d_mu
    out.append(_record("left_constant", tols, abs(scaled - nu * d_sq),
                       point=q, mu=mu, nu=nu))
    return out


def counter_example_records(q, tols):
    gap = abs(q * 2.0 - (q + q.a))
    expected = q.vector_modulus()
    out = [_record("counter_example_gap", tols, abs(gap - expected), point=q)]
    if expected >= 1.0:
        out.append(_record("traditional_rule_fails", tols,
                           max(0.0, 0.5 - gap), point=q))
    return out


def reconstruction_record(q, dq, tols):
    e1 = derivatives.differential_consistency(f_sq, q, dq)
    e2 = derivatives.differential_consistency(f_sq, q, dq * 0.5)
    if e1 < 1e-12:
        return _record("reconstruction", tols, 0.0, point=q)
    ratio = e1 / max(e2, 1e-300)
    return _record("reconstruction", tols, max(0.0, 3.0 - ratio), point=q)


def second_order_records(q, mu, nu, tols):
    left = second_order(f_mod2, q, (mu, nu), (mu, nu))
    mixed = left[0][0].mu_nu_conj
    out = [_record("laplacian_mod2", tols,
                   abs(mixed * 16.0 - Quaternion.from_real(8.0)), point=q, mu=mu)]
    lhs = second_order(f_mod2, q, (mu,), (nu,), outer="right")[0][0].mu_nu
    rhs = left[0][1].mu_conj_nu_conj.conjugate()
    out.append(_record("second_order_conjugation", tols, abs(lhs - rhs),
                       point=q, mu=mu, nu=nu))
    rr = second_order_right(f_mod2, q, mu, nu).mu_nu
    ll = left[1][0].mu_nu
    out.append(_record("second_order_left_right", tols, abs(rr - ll),
                       point=q, mu=mu, nu=nu))
    cross = second_order(f_cross, q, (ONE, I), (ONE, I))
    gap = abs(cross[0][1].mu_nu - cross[1][0].mu_nu)
    out.append(_record("mixed_noncommute", tols, max(0.0, 0.15 - gap), point=q))
    return out


def scalar_product_rule_records(rng, draws, tols):
    records = []
    skips = 0
    while len(records) < draws:
        f_spec, g_spec = identities._sample_product_pair(rng)
        f_entry = f_spec.sample_entry(rng)
        g_entry = g_spec.sample_entry(rng)
        q = identities._admissible_point(f_spec, f_entry, g_spec, g_entry, rng)
        if q is None:
            skips += 1
            continue
        mu = random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
        conjugate = rng.random() < identities.PRODUCT_CONJUGATE_SHARE
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


def scalar_chain_rule_records(rng, draws, tols):
    specs = tables.catalogue()
    linear_specs = [s for s in specs if s.scale_class == "linear"]
    real_specs = [s for s in specs if s.real_valued]
    records = []
    skips = 0
    while len(records) < draws:
        if rng.random() < identities.CHAIN_REAL_SHARE:
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
        conjugate = rng.random() < identities.CHAIN_CONJUGATE_SHARE
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


def scalar_suite(points, seed, tolerances=None):
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(tolerances or {})
    rng = make_rng(seed)
    records = counter_example_records(Quaternion(1.0, 1.0, 1.0, 1.0), tols)
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
    product, product_skips = scalar_product_rule_records(rng, identities.PRODUCT_DRAWS, tols)
    chain, chain_skips = scalar_chain_rule_records(rng, identities.CHAIN_DRAWS, tols)
    return SuiteResult(tuple(records + product + chain), product_skips, chain_skips)


def _fields(record):
    """Every field of a record, floats by their bits."""
    bits = lambda q: None if q is None else tuple(x.hex() for x in q)
    return (record.identity, bits(record.point), bits(record.mu), bits(record.nu),
            record.residual.hex(), record.tol, record.passed)


def _assert_same_suite(batched, scalar):
    assert (batched.product_skips, batched.chain_skips) \
        == (scalar.product_skips, scalar.chain_skips)
    assert [_fields(r) for r in batched.records] == [_fields(r) for r in scalar.records]
    for record in batched.records:
        assert type(record.residual) is float and type(record.passed) is bool


@pytest.mark.parametrize("points", [1, 5, 37])
@pytest.mark.parametrize("seed", [20240501, 42, 7])
def test_batched_suite_matches_scalar_oracle(seed, points):
    _assert_same_suite(run_identity_suite(points=points, seed=seed),
                       scalar_suite(points, seed))


def test_batched_suite_matches_scalar_oracle_across_blocks(monkeypatch):
    # 37 points in blocks of 16: two full blocks and a partial one.
    monkeypatch.setattr(identities, "BLOCK", 16)
    _assert_same_suite(run_identity_suite(points=37, seed=7), scalar_suite(37, 7))


def test_batched_suite_matches_scalar_oracle_with_failing_records():
    tolerances = {"golden": 1e-12, "second_order_left_right": 1e-9,
                  "reconstruction": -1.0}
    batched = run_identity_suite(points=5, seed=42, tolerances=tolerances)
    failing = {r.identity for r in batched.records if not r.passed}
    assert {"dq2_dq", "second_order_left_right", "reconstruction"} <= failing
    _assert_same_suite(batched, scalar_suite(5, 42, tolerances))


def _draw_outcome(records_fn, rng, draws):
    """A rule's records and skips by their bits, or the error it raises."""
    try:
        records, skips = records_fn(rng, draws, dict(DEFAULT_TOLERANCES))
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    for record in records:
        assert type(record.residual) is float and type(record.passed) is bool
    return [_fields(r) for r in records], skips


RULE_LOOPS = [(identities.product_rule_records, scalar_product_rule_records, 3),
              (identities.chain_rule_records, scalar_chain_rule_records, 4)]


@pytest.mark.parametrize("seed", [20240501, 3, 11])
def test_rule_draws_match_scalar_oracle_at_acceptance_sizes(seed):
    # Criteria 03 and 04 check 500 product and 200 chain draws.
    for (batched, scalar, stream), draws in zip(RULE_LOOPS, (500, 200)):
        got = _draw_outcome(batched, make_rng(seed, stream=stream), draws)
        assert got == _draw_outcome(scalar, make_rng(seed, stream=stream), draws)
        assert len(got[0]) == draws


@pytest.mark.parametrize("seed", [20240501, 3, 11])
def test_rule_draws_skip_degenerate_draws_as_scalar_oracle(monkeypatch, seed):
    # At 1 many axes g(q) mu, mu and nu e are degenerate: the rule checks
    # skip those draws after their round and the next round tops up.  The
    # real chain corollary does not skip, so both chain loops raise instead
    # at seed 3.
    monkeypatch.setattr(derivatives, "DEGENERATE_AXIS", 1.0)
    monkeypatch.setattr(identities, "BLOCK", 16)
    outcomes = [_draw_outcome(batched, make_rng(seed, stream=stream), 100)
                for batched, _, stream in RULE_LOOPS]
    assert outcomes == [_draw_outcome(scalar, make_rng(seed, stream=stream), 100)
                        for _, scalar, stream in RULE_LOOPS]
    assert outcomes[0][1] > 0


def test_real_chain_corollary_squares_through_python_floats():
    # Where x * x and x ** 2 differ on this platform, the array form of
    # g(p)^2 must give the point form's x ** 2.
    sample = (make_rng(5).random(200_000) * 4.0 - 2.0).tolist()
    values = [x for x in sample if x * x != x ** 2] + sample[:50]
    square = identities._real_square(takes_arrays(lambda p: p))
    points = [Quaternion(x, 0.3, -0.2, 0.1) for x in values]
    got = square(_stack(points)).c
    expected = np.array([tuple(square(q)) for q in points]).T
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert [x ** 2 for x in values] == expected[0].tolist()


# --- the replay of a failed round of rule draws ------------------------------
# Draw 0's 30-term exponential f overflows at its point (q^n / n! passes
# 1e308); draw 2 is degenerate: its real-part g is 0 at its point, so the
# shifted axis g(q) mu vanishes, or its chain-rule axis mu is 0.

EXPONENTIAL = tables.TableEntry("exponential")
REAL_PART = tables.TableEntry("real_part")
SQUARE = tables.TableEntry("square")
IDENTITY = tables.TableEntry("linear", omega=ONE, nu=ONE,
                             lam=Quaternion(0.0, 0.0, 0.0, 0.0))
MU = Quaternion(0.5, 0.2, -0.4, 0.9)
NU = Quaternion(-0.3, 0.8, 0.1, 0.4)
OVERFLOWING = Quaternion(1e12, 0.0, 0.0, 0.0)
GOOD = Quaternion(0.4, 0.3, -0.2, 0.1)
REAL_ZERO = Quaternion(0.0, 0.3, -0.2, 0.1)


def _replay_draws(rule):
    """Three draws of one rule: the overflowing one, a good one, a degenerate one."""
    Draw = identities._Draw
    if rule == "product":
        return [Draw(EXPONENTIAL, SQUARE, OVERFLOWING, MU, None, False),
                Draw(SQUARE, SQUARE, GOOD, MU, None, True),
                Draw(SQUARE, REAL_PART, REAL_ZERO, MU, None, False)]
    return [Draw(EXPONENTIAL, IDENTITY, OVERFLOWING, MU, NU, False),
            Draw(SQUARE, IDENTITY, GOOD, MU, NU, True),
            Draw(SQUARE, IDENTITY, GOOD, Quaternion(0.0, 0.0, 0.0, 0.0), NU, False)]


def _one_point_check(draw):
    """The draw's residual from the one-point rule check, as a draw loop takes it."""
    f, g = tables.as_function(draw.f), tables.as_function(draw.g)
    if draw.nu is None:
        return derivatives.check_product_rule(f, g, draw.q, draw.mu, conjugate=draw.conjugate)
    return derivatives.check_chain_rule(f, g, draw.q, draw.mu, draw.nu,
                                        conjugate=draw.conjugate)


@pytest.mark.parametrize("rule", ["product", "chain"])
def test_rule_draws_raise_the_draw_loops_first_error(rule):
    draws = _replay_draws(rule)
    # The array pass meets the degenerate draw 2 first ...
    with pytest.raises(DegenerateAxisError):
        identities._check(*identities._batch_args(draws))
    # ... a loop over the draws meets draw 0's overflow, and so does the replay.
    with pytest.raises(EvaluationError) as expected:
        for draw in draws:
            _one_point_check(draw)
    with pytest.raises(EvaluationError) as caught:
        identities._residuals(draws)
    assert str(caught.value) == str(expected.value)
    assert tuple(caught.value.point) == tuple(expected.value.point)
    assert abs(expected.value.point - OVERFLOWING) < 1.5 * derivatives.DEFAULT_H


@pytest.mark.parametrize("rule", ["product", "chain"])
def test_a_degenerate_rule_draw_on_its_own_comes_back_none(rule):
    draws = _replay_draws(rule)[1:]
    residuals = identities._residuals(draws)
    assert residuals[1] is None
    assert residuals[0].hex() == _one_point_check(draws[0]).hex()
    # The real chain corollary does not skip a degenerate draw.
    corollary = identities._Draw(None, REAL_PART, GOOD, Quaternion(0.0, 0.0, 0.0, 0.0),
                                 None, False)
    with pytest.raises(DegenerateAxisError):
        identities._residuals([draws[0], corollary])


def test_rule_draws_overflow_silently_as_python_floats_do():
    # f g = q^3 passes 1e308 on the stencil: the residual is NaN, as the
    # one-point check on Python floats gives it, with no RuntimeWarning.
    # The shifted axis g(q) mu stays within a double's range.
    draws = [identities._Draw(SQUARE, IDENTITY, Quaternion(1e103, 1e103, 0.0, 0.0),
                              MU, None, False)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residuals = identities._residuals(draws)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _one_point_check(draws[0])
    assert math.isnan(expected)
    assert residuals[0].hex() == expected.hex()


def test_a_rule_draw_whose_shifted_axis_overflows_raises_as_one_point_checks_do():
    # g(q) = q^2 is about 1e200, so |g(q) mu|^2 overflows and the shifted
    # axis would rotate to NaN (a NaN residual before it was rejected): both
    # paths raise the ValueError naming that axis, with no RuntimeWarning.
    draws = [identities._Draw(SQUARE, SQUARE, Quaternion(1e100, 1e100, 0.0, 0.0),
                              MU, None, False)]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="must be finite") as expected:
        _one_point_check(draws[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            identities._residuals(draws)
    assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize("name,scalar", [("_f_sq", f_sq), ("_f_conj", f_conj),
                                         ("_f_mod2", f_mod2), ("_f_cross", f_cross)])
def test_suite_functions_take_arrays_bitwise(name, scalar):
    fn = getattr(identities, name)
    assert has_array_form(fn)
    rng = make_rng(11)
    points = [random_quaternion(rng, -2.0, 2.0) for _ in range(6)]
    out = fn(QArray(np.array(points).T))
    assert isinstance(out, QArray)
    expected = np.array([tuple(scalar(q)) for q in points]).T
    assert np.array_equal(out.c.view(np.uint64), expected.view(np.uint64))
    assert all(fn(q) == scalar(q) for q in points)



def test_suite_passes_with_defaults():
    result = run_identity_suite()
    assert len(result.records) >= 500
    assert all(r.passed for r in result.records)
    assert all(isinstance(r, IdentityRecord) for r in result.records)


def test_suite_is_deterministic():
    a = run_identity_suite(points=5, seed=42)
    b = run_identity_suite(points=5, seed=42)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb


def test_different_seeds_differ():
    a = run_identity_suite(points=5, seed=42)
    b = run_identity_suite(points=5, seed=43)
    assert any(ra.residual != rb.residual
               for ra, rb in zip(a.records, b.records))


def test_covers_every_tolerance_class():
    result = run_identity_suite(points=5)
    names = {r.identity for r in result.records}
    # the not-small checks are present alongside the residual checks
    assert "traditional_rule_fails" in names
    assert "mixed_noncommute" in names
    assert "product_rule" in names or "product_rule_conj" in names
    assert "chain_rule_real" in names


def test_records_respect_tolerances():
    result = run_identity_suite(points=5)
    for r in result.records:
        assert r.passed == (r.residual <= r.tol)


def test_tolerance_override_can_fail_records():
    result = run_identity_suite(points=5,
                                tolerances={"product_rule": 1e-15})
    assert not all(r.passed for r in result.records)
    failing = {r.identity for r in result.records if not r.passed}
    assert failing <= {"product_rule", "product_rule_conj"}


def test_unknown_tolerance_rejected():
    with pytest.raises(ValueError, match="unknown tolerance names"):
        run_identity_suite(points=2, tolerances={"nope": 1.0})


def test_invalid_points_rejected():
    with pytest.raises(ValueError, match="positive"):
        run_identity_suite(points=0)


@pytest.mark.parametrize("points", [2.5, 1.0, True])
def test_points_that_are_not_a_count_are_rejected(points):
    # range() raised a TypeError on a float, and True ran one point.
    with pytest.raises(ValueError, match="positive integer"):
        run_identity_suite(points=points)


def _filter_run(seed):
    return run_experiment(ExperimentConfig("qlms", taps=[[0.5, 0.1, -0.2, 0.3]], alpha=0.05,
                                           steps=8, snr_db=30.0, seed=seed))


SEEDED = {"suite": lambda seed: run_identity_suite(points=1, seed=seed),
          "filter": _filter_run,
          "make_rng": lambda seed: make_rng(seed, 1).random(4).tolist()}


@pytest.mark.parametrize("seed", [2.5, 1.0, True, False, -1, "7", None])
@pytest.mark.parametrize("caller", sorted(SEEDED))
def test_seeds_that_are_not_a_nonnegative_count_are_rejected(caller, seed):
    # numpy raised a TypeError on 2.5, and True silently ran seed 1.
    with pytest.raises(ValueError, match="seed must be a nonnegative integer") as info:
        SEEDED[caller](seed)
    assert repr(seed) in str(info.value)


@pytest.mark.parametrize("caller", sorted(SEEDED))
def test_a_numpy_integer_seed_runs_as_its_int(caller):
    assert SEEDED[caller](np.int64(7)) == SEEDED[caller](7)


@pytest.mark.parametrize("stream", [2.0, True, False, -1, -3, "1", None])
def test_streams_that_are_not_a_nonnegative_count_are_rejected(stream):
    # True silently ran stream 1; numpy raised an IndexError on -1, an
    # OverflowError on -3 and a TypeError on 2.0.
    with pytest.raises(ValueError, match="stream must be a nonnegative integer") as info:
        make_rng(7, stream)
    assert repr(stream) in str(info.value)


def test_a_numpy_integer_stream_runs_as_its_int():
    assert make_rng(7, np.int64(1)).random(4).tolist() == make_rng(7, 1).random(4).tolist()


def test_every_tolerance_judges_exactly_its_record_kinds():
    assert set(TOLERANCE_KINDS) == set(DEFAULT_TOLERANCES)
    base = run_identity_suite(points=2)
    assert {r.identity for r in base.records} == set(ORACLE_TOLERANCE)
    sentinel = 0.123456789
    assert sentinel not in DEFAULT_TOLERANCES.values()
    for name, kinds in TOLERANCE_KINDS.items():
        result = run_identity_suite(points=2, tolerances={name: sentinel})
        moved = {r.identity for r, b in zip(result.records, base.records) if r.tol != b.tol}
        assert moved == set(kinds), name
        assert all(r.tol == sentinel for r in result.records if r.identity in kinds)


def test_default_tolerances_immutable_by_runs():
    before = dict(DEFAULT_TOLERANCES)
    run_identity_suite(points=2, tolerances={"golden": 1e-3})
    assert DEFAULT_TOLERANCES == before
