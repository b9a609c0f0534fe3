"""Acceptance gate: one check per release criterion, one line per result.

Each test prints a [PASS]/[FAIL] line with the measured quantity next to its
threshold, on the real stdout so the lines survive pytest capture.
"""

import math
import sys

import numpy as np

from quatcalc.derivatives import conjugation_relation, left_hr, right_hr
from quatcalc.filters import ExperimentConfig, _step, run_experiment
from quatcalc.identities import (DEFAULT_TOLERANCES, chain_rule_records,
                                 product_rule_records)
from quatcalc.quaternion import (AXES, ONE, ZERO, Quaternion, involute,
                                 mu_basis, rotate)
from quatcalc.sampling import make_rng, random_quaternion
from quatcalc.tables import (TableEntry, as_function, catalogue,
                             conj_gradient, cross_validate)
from quatcalc.theorems import mvt_left, steepest_descent, taylor_remainder_slope
from test_quaternion import basis_matrix
from test_theorems import descent_direction_gap, mvt_error_bound_check

SEED = 20240501


def _report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", file=sys.__stdout__)
    assert ok, label


def _mod2(p: Quaternion) -> Quaternion:
    return Quaternion.from_real(p.modulus_squared())


def test_criterion_01_hr_golden_values():
    rng = make_rng(SEED)
    worst = 0.0
    for _ in range(100):
        q = random_quaternion(rng)
        worst = max(
            worst,
            abs(left_hr(lambda p: p, q).wrt_q - ONE),
            abs(left_hr(lambda p: p.conjugate(), q).wrt_q + ONE * 0.5),
            abs(left_hr(lambda p: p * p, q).wrt_q - (q + q.a)),
            abs(left_hr(_mod2, q).wrt_q - q.conjugate() * 0.5),
        )
    _report(worst <= 1e-6,
            f"criterion 01 HR golden values: max residual {worst:.2e} <= 1e-06 "
            "over 100 points")


def test_criterion_02_product_rule_counter_example():
    q = Quaternion(1.0, 1.0, 1.0, 1.0)
    gap = abs(q * 2.0 - (q + q.a))
    deviation = abs(gap - math.sqrt(3.0))
    _report(deviation <= 1e-10,
            f"criterion 02 traditional-rule gap at 1+i+j+k: |{gap:.12f} - "
            f"sqrt(3)| = {deviation:.2e} <= 1e-10")


def test_criterion_03_product_rule_catalogue():
    rng = make_rng(SEED, stream=3)
    records, skips = product_rule_records(rng, 500, dict(DEFAULT_TOLERANCES))
    passed = sum(1 for r in records if r.residual <= 1e-5)
    rate = passed / len(records)
    worst = max(r.residual for r in records)
    _report(len(records) >= 500 and rate >= 0.99,
            f"criterion 03 product rule: {passed}/{len(records)} draws within "
            f"1e-05 (worst {worst:.2e}, {skips} degenerate skips)")


def test_criterion_04_chain_rule_catalogue():
    rng = make_rng(SEED, stream=4)
    records, skips = chain_rule_records(rng, 200, dict(DEFAULT_TOLERANCES))
    worst = max(r.residual for r in records)
    real_draws = sum(1 for r in records if r.identity == "chain_rule_real")
    ok = len(records) >= 200 and worst <= 1e-5 and real_draws > 0
    _report(ok,
            f"criterion 04 chain rule: {len(records)} composites within 1e-05 "
            f"(worst {worst:.2e}, {real_draws} real-form, {skips} skips)")


def test_criterion_05_table_oracle_equivalence():
    rng = make_rng(SEED, stream=5)
    worst = 0.0
    families = catalogue()
    for spec in families:
        for _ in range(50):
            entry = spec.sample_entry(rng)
            q = spec.sample_point(entry, rng)
            mu = random_quaternion(rng, min_modulus=0.1)
            check = cross_validate(entry, q, mu)
            worst = max(worst, check.residual_mu, check.residual_mu_conj)
    _report(worst <= 1e-5,
            f"criterion 05 derivative table: {len(families)} families x 50 "
            f"points, worst relative residual {worst:.2e} <= 1e-05")


def test_criterion_06_flavor_relations():
    rng = make_rng(SEED, stream=6)
    exp_fn = as_function(TableEntry(family="exponential"))
    worst_conj = 0.0
    worst_real = 0.0
    for _ in range(50):
        q = random_quaternion(rng)
        mu = random_quaternion(rng, min_modulus=0.1)
        for fn in (lambda p: p * p, exp_fn, _mod2):
            worst_conj = max(worst_conj, conjugation_relation(fn, q, mu))
        left = left_hr(_mod2, q)
        right = right_hr(_mod2, q)
        for axis in AXES:
            for conj in (False, True):
                worst_real = max(worst_real,
                                 abs(left.wrt(axis, conj) - right.wrt(axis, conj)))
    ok = worst_conj <= 1e-6 and worst_real <= 1e-8
    _report(ok,
            f"criterion 06 flavor relations: conjugation {worst_conj:.2e} <= "
            f"1e-06, real-function left/right {worst_real:.2e} <= 1e-08")


MVT_Q0 = Quaternion(0.8, 0.37, -1.79, 1.71)
MVT_Q1 = Quaternion(0.72, 0.39, 0.05, 0.89)
MVT_FLOOR = 1e-9


def test_criterion_07_mean_value_quadrature():
    functions = (("square", lambda p: p * p),
                 ("modulus_squared", _mod2),
                 ("exponential",
                  as_function(TableEntry(family="exponential"))))
    worst_fine = 0.0
    refinement_ok = True
    for _, fn in functions:
        worst_fine = max(worst_fine,
                         mvt_left(fn, MVT_Q0, MVT_Q1, panels=(1000,))[0].residual)
        residuals = [check.residual
                     for check in mvt_left(fn, MVT_Q0, MVT_Q1, panels=(4, 16, 64, 256))]
        for coarse, fine in zip(residuals, residuals[1:]):
            if fine > max(coarse / 10.0, MVT_FLOOR):
                refinement_ok = False
    observed, bound, within = mvt_error_bound_check(
        lambda p: p * p, MVT_Q0, MVT_Q1, lipschitz=2.0)
    ok = worst_fine < 1e-7 and refinement_ok and within
    _report(ok,
            f"criterion 07 mean value: 1000-panel residual {worst_fine:.2e} < "
            f"1e-07, 10x refinement holds, first-order error {observed:.2e} "
            f"within bound {bound:.2e}")


def test_criterion_08_taylor_remainder_order():
    rng = make_rng(SEED, stream=8)
    q0 = random_quaternion(rng, -1.0, 1.0)
    direction = random_quaternion(rng, -1.0, 1.0, min_modulus=0.3)
    scales = (1e-1, 3.1622776601683795e-2, 1e-2, 3.1622776601683795e-3, 1e-3)
    cubic = taylor_remainder_slope(lambda p: p * p * p, q0, direction, scales)
    expo = taylor_remainder_slope(
        as_function(TableEntry(family="exponential")),
        q0, direction, scales)
    quad = taylor_remainder_slope(_mod2, q0, direction, scales)
    ok = (2.7 <= cubic.slope <= 3.3 and 2.7 <= expo.slope <= 3.3
          and quad.at_floor)
    _report(ok,
            f"criterion 08 second-order remainder: slopes {cubic.slope:.3f} "
            f"and {expo.slope:.3f} in [2.7, 3.3], quadratic exact to floor")


def test_criterion_09_steepest_descent():
    target = Quaternion(1.0, 2.0, 3.0, 4.0)
    entry = TableEntry(family="linear_modulus_squared", omega=ONE, nu=ONE,
                       lam=-target)
    objective = as_function(entry)
    trace = steepest_descent(objective, Quaternion(0.0, 0.0, 0.0, 0.0), 0.4,
                             max_iters=100, grad_tol=1e-7,
                             gradient=lambda p: conj_gradient(entry, p))
    distance = abs(trace.iterates[-1] - target)
    iters = len(trace.iterates) - 1
    rng = make_rng(SEED, stream=9)
    grad_row = left_hr(objective, Quaternion(0.0, 0.0, 0.0, 0.0)).wrt_q
    min_gap = math.inf
    for _ in range(1000):
        direction = random_quaternion(rng, min_modulus=0.1)
        min_gap = min(min_gap,
                      descent_direction_gap(grad_row, direction / abs(direction)))
    best = -grad_row.conjugate() / abs(grad_row)
    best_gap = descent_direction_gap(grad_row, best)
    ok = distance <= 1e-6 and iters <= 100 and min_gap >= -1e-12 \
        and abs(best_gap) <= 1e-9
    _report(ok,
            f"criterion 09 steepest descent: |q - c| = {distance:.2e} <= 1e-06 "
            f"in {iters} iterations, 1000-direction optimality gap >= "
            f"{min_gap:.2e}")


QLMS_CHANNEL = tuple(Quaternion(*row) for row in (
    [0.7, -0.3, 0.2, 0.1],
    [0.2, 0.5, -0.4, 0.3],
    [-0.1, 0.2, 0.6, -0.2],
    [0.3, -0.2, 0.1, 0.4],
))


def test_criterion_10_qlms_identification():
    config = ExperimentConfig(variant="qlms", taps=QLMS_CHANNEL, alpha=0.01,
                              steps=5000, snr_db=30.0, seed=7)
    result = run_experiment(config)
    rng = make_rng(SEED, stream=10)
    worst_step = 0.0
    for _ in range(10):
        w = tuple(random_quaternion(rng) for _ in range(4))
        x = tuple(random_quaternion(rng) for _ in range(4))
        d = random_quaternion(rng)
        # One QLMS step of the run's kernel, on (4, 1, taps) component arrays.
        stepped, _ = _step(np.array(w).T[:, None], np.array(x).T[:, None], np.array(d), 0.01)
        for m in range(4):
            def objective(wm, m=m):
                probe = tuple(wm if idx == m else w[idx] for idx in range(4))
                err = d - sum((p * q for p, q in zip(probe, x)), ZERO)
                return Quaternion.from_real(err.modulus_squared())

            grad = left_hr(objective, w[m]).wrt_qc
            move = Quaternion(*stepped[:, 0, m].tolist()) - w[m]
            worst_step = max(worst_step, abs(move - grad * (-2.0 * 0.01)))
    ok = result.final_weight_error < 1e-2 and worst_step <= 1e-6
    _report(ok,
            f"criterion 10 QLMS: final weight error "
            f"{result.final_weight_error:.2e} < 1e-02 at 30 dB, step vs "
            f"-2 alpha gradient {worst_step:.2e} <= 1e-06")


def test_criterion_11_qngd_identity_reduction():
    base = dict(taps=QLMS_CHANNEL, alpha=0.01, steps=2000, snr_db=30.0, seed=7)
    linear = run_experiment(ExperimentConfig(variant="qlms", **base))
    nonlin = run_experiment(ExperimentConfig(variant="qngd", **base))
    ok = (linear.mse_curve == nonlin.mse_curve
          and linear.weight_error_curve == nonlin.weight_error_curve)
    _report(ok,
            "criterion 11 QNGD with identity nonlinearity: traces bit-identical "
            "to QLMS over 2000 steps")


WL_CHANNEL = tuple(tuple(Quaternion(*row) for row in rows) for rows in (
    [[0.6, -0.2, 0.3, 0.1], [0.1, 0.4, -0.3, 0.2],
     [-0.2, 0.1, 0.5, -0.1], [0.2, -0.1, 0.1, 0.3]],
    [[0.3, 0.2, -0.1, 0.2], [-0.1, 0.3, 0.2, -0.2],
     [0.2, -0.2, 0.4, 0.1], [0.1, 0.1, -0.2, 0.3]],
    [[-0.2, 0.3, 0.1, -0.1], [0.3, -0.1, 0.2, 0.2],
     [0.1, 0.2, -0.3, 0.1], [-0.1, 0.2, 0.1, 0.2]],
    [[0.2, -0.1, 0.2, 0.3], [0.1, 0.2, -0.1, -0.3],
     [0.3, 0.1, 0.2, -0.1], [0.1, -0.3, 0.2, 0.1]],
))


def test_criterion_12_wl_qlms_identification():
    config = ExperimentConfig(variant="wl_qlms", taps=WL_CHANNEL, alpha=0.005,
                              steps=20000, snr_db=40.0, seed=7)
    result = run_experiment(config)
    _report(result.final_weight_error < 1e-2,
            f"criterion 12 WL-QLMS: final weight error "
            f"{result.final_weight_error:.2e} < 1e-02 at 40 dB over 20000 "
            "steps")


def test_criterion_13_algebra_suite():
    rng = make_rng(SEED, stream=13)
    worst = 0.0
    for _ in range(1000):
        p = random_quaternion(rng, min_modulus=0.3)
        q = random_quaternion(rng, min_modulus=0.3)
        mu = random_quaternion(rng, min_modulus=0.3)
        nu = random_quaternion(rng, min_modulus=0.3)
        worst = max(
            worst,
            abs((p * q).modulus() - p.modulus() * q.modulus()),
            abs((p * q).conjugate() - q.conjugate() * p.conjugate()),
            abs((p * q).inverse() - q.inverse() * p.inverse()),
            abs(rotate(rotate(q, nu), mu) - rotate(q, mu * nu)),
        )
        axis = ("1", "i", "j", "k")[int(rng.integers(4))]
        worst = max(worst, abs(involute(involute(q, axis), axis) - q))
        m = basis_matrix(mu_basis(mu))
        worst = max(worst, float(np.abs(m @ m.T - np.eye(3)).max()),
                    abs(float(np.linalg.det(m)) - 1.0))
    _report(worst <= 1e-12,
            f"criterion 13 algebra suite: worst residual {worst:.2e} <= 1e-12 "
            "over 1000 draws")
