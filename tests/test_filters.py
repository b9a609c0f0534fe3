"""Adaptive filter variants, signal generation and experiment harness."""

import math
from dataclasses import replace

import numpy as np
import pytest

from quatcalc import derivatives
from quatcalc.cli import _load_filter_config
from quatcalc.derivatives import left_hr
from quatcalc.filters import (AR1_COEFF, DIVERGENCE_NORM, NONLINEARITIES,
                              SIGNAL_KINDS, ExperimentConfig, FilterState,
                              QVector, _phi_derivatives, _signal_arrays,
                              _taps_array, generate_signal, phi_tanh,
                              qlms_state, qlms_step, qngd_state, qngd_step,
                              run_experiment, wl_qlms_state, wl_qlms_step)
from quatcalc.quaternion import AXES, ONE, Quaternion, involute
from quatcalc.sampling import make_rng, random_quaternion
from quatcalc.theorems import DivergenceError

SEED = 20240505

CHANNEL = QVector.from_components([
    [0.7, -0.3, 0.2, 0.1],
    [0.2, 0.5, -0.4, 0.3],
    [-0.1, 0.2, 0.6, -0.2],
    [0.3, -0.2, 0.1, 0.4],
])

WL_CHANNEL = tuple(QVector.from_components(rows) for rows in (
    [[0.6, -0.2, 0.3, 0.1], [0.1, 0.4, -0.3, 0.2], [-0.2, 0.1, 0.5, -0.1]],
    [[0.3, 0.2, -0.1, 0.2], [-0.1, 0.3, 0.2, -0.2], [0.2, -0.2, 0.4, 0.1]],
    [[-0.2, 0.3, 0.1, -0.1], [0.3, -0.1, 0.2, 0.2], [0.1, 0.2, -0.3, 0.1]],
    [[0.2, -0.1, 0.2, 0.3], [0.1, 0.2, -0.1, -0.3], [0.3, 0.1, 0.2, -0.1]],
))


def _random_qvector(rng, n):
    return QVector(random_quaternion(rng) for _ in range(n))


# The scalar recursions, one Quaternion at a time: the independent oracle
# that the array engine (and so every public step) must match bit for bit.


def _dot_t(w: QVector, x: QVector) -> Quaternion:
    """Transpose pairing sum w_m * x_m (order matters)."""
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for p, q in zip(w, x):
        total = total + p * q
    return total


def _dot_h(w: QVector, x: QVector) -> Quaternion:
    """Hermitian pairing sum w_m* * x_m."""
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for p, q in zip(w, x):
        total = total + p.conjugate() * q
    return total


def _involute_vector(x: QVector, axis: str) -> QVector:
    return QVector(involute(q, axis) for q in x)


def _norm_squared(w: QVector) -> float:
    return sum(q.modulus_squared() for q in w)


def _linear_update(w: QVector, x: QVector, e: Quaternion, alpha: float) -> QVector:
    return QVector([w_m + (e * x_m.conjugate()) * alpha for w_m, x_m in zip(w, x)])


def _oracle_qlms_step(state: FilterState, x: QVector, d: Quaternion):
    w = state.weights[0]
    e = d - _dot_t(w, x)
    new_w = _linear_update(w, x, e, state.alpha)
    return replace(state, weights=(new_w,), iteration=state.iteration + 1), e


def _oracle_wl_qlms_step(state: FilterState, x: QVector, d: Quaternion):
    h, g, u, v = state.weights
    branches = (x, _involute_vector(x, "i"), _involute_vector(x, "j"),
                _involute_vector(x, "k"))
    y = _dot_h(h, branches[0]) + _dot_h(g, branches[1]) \
        + _dot_h(u, branches[2]) + _dot_h(v, branches[3])
    e = d - y
    ec = e.conjugate()
    new_weights = tuple(
        QVector([w_m + (b_m * ec) * state.alpha for w_m, b_m in zip(w_vec, branch)])
        for w_vec, branch in zip((h, g, u, v), branches))
    return replace(state, weights=new_weights, iteration=state.iteration + 1), e


def _oracle_qngd_step(state: FilterState, x: QVector, d: Quaternion):
    """e_eff = sum over mu of e^mu * d Phi^(mu*)/ds*, each from its own left_hr."""
    w = state.weights[0]
    s = _dot_t(w, x)
    phi = state.nonlinearity
    if phi is None:
        e = e_eff = d - s
    else:
        e = d - phi(s)
        e_eff = Quaternion(0.0, 0.0, 0.0, 0.0)
        for mu in AXES:
            gamma = left_hr(lambda p, mu=mu: involute(phi(p), mu).conjugate(), s).wrt_qc
            e_eff = e_eff + involute(e, mu) * gamma
    new_w = _linear_update(w, x, e_eff, state.alpha)
    return replace(state, weights=(new_w,), iteration=state.iteration + 1), e


def test_qvector_basics():
    v = QVector.zeros(3)
    assert len(v) == 3
    assert all(q == Quaternion(0.0, 0.0, 0.0, 0.0) for q in v)
    w = QVector.from_components([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    assert w[1] == Quaternion(0.0, 1.0, 0.0, 0.0)



def test_qlms_scalar_oracle():
    # w = 0, x = 1, d = 1, alpha = 0.5: e = 1 and the update puts w at 0.5.
    state = qlms_state(taps=1, alpha=0.5)
    x = QVector([ONE])
    new_state, e = qlms_step(state, x, ONE)
    assert e == ONE
    assert new_state.weights[0][0] == Quaternion(0.5, 0.0, 0.0, 0.0)
    assert new_state.iteration == 1


def test_qlms_rejects_wrong_input_length():
    state = qlms_state(taps=3, alpha=0.1)
    with pytest.raises(ValueError):
        qlms_step(state, QVector([ONE]), ONE)


@pytest.mark.parametrize("step,state", [
    (wl_qlms_step, qlms_state(2, 0.1)),
    (wl_qlms_step, qngd_state(2, 0.1)),
    (qlms_step, wl_qlms_state(2, 0.1)),
    (qlms_step, qngd_state(2, 0.1)),
    (qngd_step, qlms_state(2, 0.1)),
    (qngd_step, wl_qlms_state(2, 0.1)),
    # The right variant with the wrong branch count.
    (qlms_step, replace(wl_qlms_state(2, 0.1), variant="qlms")),
    (wl_qlms_step, replace(qlms_state(2, 0.1), variant="wl_qlms")),
], ids=["wl_qlms-on-qlms", "wl_qlms-on-qngd", "qlms-on-wl_qlms", "qlms-on-qngd",
        "qngd-on-qlms", "qngd-on-wl_qlms", "qlms-four-branches", "wl_qlms-one-branch"])
def test_step_rejects_another_variants_state(step, state):
    x = QVector([ONE, ONE])
    with pytest.raises(ValueError, match="step needs a"):
        step(state, x, ONE)


def test_qlms_step_is_conjugate_gradient_descent():
    # The weight move alpha e x_m* equals -2 alpha times the conjugate
    # gradient of |e|^2 in that weight.
    rng = make_rng(SEED, stream=2)
    alpha = 0.01
    for _ in range(10):
        w = _random_qvector(rng, 3)
        x = _random_qvector(rng, 3)
        d = random_quaternion(rng)
        state = FilterState(variant="qlms", weights=(w,), alpha=alpha)
        new_state, _ = qlms_step(state, x, d)
        for m in range(3):
            def objective(wm, m=m):
                probe = QVector(wm if idx == m else w[idx] for idx in range(3))
                err = d - _dot_t(probe, x)
                return Quaternion.from_real(err.modulus_squared())

            grad = left_hr(objective, w[m]).wrt_qc
            move = new_state.weights[0][m] - w[m]
            assert abs(move - grad * (-2.0 * alpha)) < 1e-6


def test_signal_unit_variance():
    stream = generate_signal("white_circular", CHANNEL, 20000, math.inf, seed=11)
    power = sum(x[0].modulus_squared() for x, _ in stream) / len(stream)
    assert 3.8 < power < 4.2  # four unit-variance components


def test_signal_noise_free_output_matches_channel():
    stream = generate_signal("fir_channel", CHANNEL, 50, math.inf, seed=11)
    for x, d in stream:
        assert abs(d - _dot_t(CHANNEL, x)) == 0.0


def test_signal_kinds_share_stream():
    a = generate_signal("white_circular", CHANNEL, 64, 30.0, seed=11)
    b = generate_signal("fir_channel", CHANNEL, 64, 30.0, seed=11)
    for (xa, da), (xb, db) in zip(a, b):
        assert da == db
        assert all(p == q for p, q in zip(xa, xb))


def test_signal_snr_scaling():
    no_noise = generate_signal("fir_channel", CHANNEL, 5000, math.inf, seed=11)
    noisy = generate_signal("fir_channel", CHANNEL, 5000, 20.0, seed=11)
    signal_power = sum(d.modulus_squared() for _, d in no_noise) / 5000
    noise_power = sum((dn - d).modulus_squared()
                      for (_, d), (_, dn) in zip(no_noise, noisy)) / 5000
    assert noise_power / signal_power == pytest.approx(0.01, rel=0.1)


def test_signal_ar1_is_colored():
    stream = generate_signal("ar1", CHANNEL, 20000, math.inf, seed=11)
    xs = [x[0] for x, _ in stream]
    power = sum(q.modulus_squared() for q in xs) / len(xs)
    assert 3.8 < power < 4.2
    lag1 = sum((xs[t] * xs[t + 1].conjugate()).a
               for t in range(len(xs) - 1)) / (len(xs) - 1)
    assert lag1 / power == pytest.approx(AR1_COEFF, abs=0.05)


def test_signal_validation():
    with pytest.raises(ValueError, match="unknown signal kind"):
        generate_signal("pink", CHANNEL, 100, 30.0, seed=1)
    with pytest.raises(ValueError, match="exceed the tap count"):
        generate_signal("fir_channel", CHANNEL, 4, 30.0, seed=1)
    with pytest.raises(ValueError, match="snr_db"):
        generate_signal("fir_channel", CHANNEL, 100, math.nan, seed=1)
    with pytest.raises(ValueError, match="equal length"):
        generate_signal("fir_channel", WL_CHANNEL[:3] + (CHANNEL,), 100, 30.0, seed=1)


def test_qlms_identifies_channel():
    config = ExperimentConfig(variant="qlms", taps=CHANNEL, alpha=0.01,
                              steps=5000, snr_db=30.0, seed=7)
    result = run_experiment(config)
    assert result.final_weight_error < 1e-2
    # adaptation actually reduces both error measures
    assert result.weight_error_curve[-1] < 0.05 * result.weight_error_curve[0]
    head = sum(result.mse_curve[:100]) / 100
    tail = sum(result.mse_curve[-100:]) / 100
    assert tail < 0.05 * head


def test_qngd_identity_matches_qlms_bitwise():
    linear = ExperimentConfig(variant="qlms", taps=CHANNEL, alpha=0.01,
                              steps=2000, snr_db=30.0, seed=7)
    nonlinear = ExperimentConfig(variant="qngd", taps=CHANNEL, alpha=0.01,
                                 steps=2000, snr_db=30.0, seed=7)
    a = run_experiment(linear)
    b = run_experiment(nonlinear)
    assert a.mse_curve == b.mse_curve
    assert a.weight_error_curve == b.weight_error_curve


def test_qngd_tanh_matches_qlms_for_small_signals():
    # tanh is identity to first order, so tiny signals follow the linear path.
    rng = make_rng(SEED, stream=3)
    w = QVector(q * 0.01 for q in _random_qvector(rng, 3))
    x = QVector(q * 0.01 for q in _random_qvector(rng, 3))
    d = random_quaternion(rng) * 0.01
    lin_state = FilterState(variant="qlms", weights=(w,), alpha=0.01)
    tanh_state = FilterState(variant="qngd", weights=(w,), alpha=0.01,
                             nonlinearity=phi_tanh)
    lin_next, _ = qlms_step(lin_state, x, d)
    tanh_next, _ = qngd_step(tanh_state, x, d)
    for m in range(3):
        move_lin = lin_next.weights[0][m] - w[m]
        move_tanh = tanh_next.weights[0][m] - w[m]
        assert abs(move_tanh - move_lin) < 0.05 * abs(move_lin)


def test_phi_tanh_componentwise():
    s = Quaternion(0.5, -0.2, 0.0, 1.0)
    out = phi_tanh(s)
    assert out == Quaternion(math.tanh(0.5), math.tanh(-0.2), 0.0,
                             math.tanh(1.0))
    assert "tanh" in NONLINEARITIES


def test_wl_qlms_on_strictly_linear_channel():
    # A strictly linear channel leaves the three involution branches empty;
    # the Hermitian branch carries taps* because its output conjugates h.
    config = ExperimentConfig(variant="wl_qlms", taps=CHANNEL, alpha=0.005,
                              steps=8000, snr_db=40.0, seed=3)
    result = run_experiment(config)
    assert result.final_weight_error < 1e-2


def test_wl_qlms_involution_commutation():
    # Involving every weight, the regressor and the target by the same axis
    # commutes with one update exactly (sign flips are exact in floats).
    rng = make_rng(SEED, stream=4)
    weights = tuple(_random_qvector(rng, 3) for _ in range(4))
    x = _random_qvector(rng, 3)
    d = random_quaternion(rng)
    state = FilterState(variant="wl_qlms", weights=weights, alpha=0.01)
    for eta in ("i", "j", "k"):
        s1, e1 = wl_qlms_step(state, x, d)
        rot = FilterState(variant="wl_qlms",
                          weights=tuple(_involute_vector(w, eta) for w in weights),
                          alpha=0.01)
        s2, e2 = wl_qlms_step(rot, _involute_vector(x, eta), involute(d, eta))
        assert involute(e1, eta) == e2
        for w_a, w_b in zip(s1.weights, s2.weights):
            assert all(involute(qa, eta) == qb for qa, qb in zip(w_a, w_b))


def test_run_experiment_rejects_unknown_variant():
    config = ExperimentConfig(variant="rls", taps=CHANNEL, alpha=0.01,
                              steps=100, snr_db=30.0, seed=1)
    with pytest.raises(ValueError, match="unknown filter variant"):
        run_experiment(config)


def test_zero_step_size_freezes_weights():
    config = ExperimentConfig(variant="qlms", taps=CHANNEL, alpha=0.0,
                              steps=50, snr_db=30.0, seed=1)
    result = run_experiment(config)
    assert all(err == result.weight_error_curve[0]
               for err in result.weight_error_curve)


def test_large_step_size_diverges():
    config = ExperimentConfig(variant="qlms", taps=CHANNEL, alpha=0.5,
                              steps=2000, snr_db=30.0, seed=1)
    with pytest.raises(DivergenceError, match="diverged at step"):
        run_experiment(config)


def test_overflowing_tap_norm_diverges_without_warnings(recwarn):
    # The reference norm of 1e160 taps overflows; the run reports divergence.
    config = ExperimentConfig(variant="qlms", alpha=0.01, steps=50, snr_db=math.inf, seed=1,
                              taps=QVector.from_components([[1e160, 0, 0, 0], [0.1, 0, 0, 0]]))
    with pytest.raises(DivergenceError, match="diverged at step 0"):
        run_experiment(config)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_stability_envelope_at_large_alpha():
    # alpha = 0.05 stays stable over a long run, just with higher misadjustment.
    config = ExperimentConfig(variant="qlms", taps=CHANNEL, alpha=0.05,
                              steps=100000, snr_db=30.0, seed=7)
    result = run_experiment(config)
    assert result.final_weight_error < 0.1


def test_ar1_experiment_runs():
    config = ExperimentConfig(variant="qlms", taps=CHANNEL, alpha=0.01,
                              steps=3000, snr_db=30.0, seed=7, kind="ar1")
    result = run_experiment(config)
    assert result.final_weight_error < 0.1


@pytest.mark.parametrize("change,message", [
    ({"alpha": math.nan}, "alpha"),
    ({"alpha": math.inf}, "alpha"),
    ({"alpha": -0.01}, "alpha"),
    ({"snr_db": math.nan}, "snr_db"),
    ({"snr_db": -math.inf}, "snr_db"),
    ({"steps": 100.5}, "steps must be an integer"),
    ({"variant": "qngd", "nonlinearity": "relu"}, "unknown nonlinearity"),
    ({"taps": QVector.from_components([[math.nan, 0, 0, 0], [0.1, 0, 0, 0]])},
     "taps must be finite"),
    ({"taps": QVector.from_components([[math.inf, 0, 0, 0], [0.1, 0, 0, 0]])},
     "taps must be finite"),
    ({"taps": QVector.from_components([[1e308, 0, 0, 0], [0.1, 0, 0, 0]])},
     "desired signal is not finite"),
    ({"taps": QVector.from_components([[1e308, 0, 0, 0], [0.1, 0, 0, 0]]),
      "snr_db": math.inf}, "desired signal is not finite"),
    ({"snr_db": -4000.0}, "desired signal is not finite"),
])
def test_run_experiment_rejects_bad_config(change, message, recwarn):
    config = ExperimentConfig(**{**dict(variant="qlms", taps=CHANNEL, alpha=0.01,
                                        steps=100, snr_db=30.0, seed=1), **change})
    with pytest.raises(ValueError, match=message):
        run_experiment(config)
    # Rejected before numpy can warn about overflow.
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _scalar_weight_error(state: FilterState, taps) -> float:
    """Relative weight error, added up over Quaternion objects."""
    truth = (taps,) if isinstance(taps, QVector) else tuple(taps)
    if state.variant == "wl_qlms":
        current = state.weights
        if len(truth) == 1:
            zeros = QVector.zeros(len(truth[0]))
            truth = (QVector(q.conjugate() for q in truth[0]), zeros, zeros, zeros)
    else:
        current = (state.weights[0],)
    err = 0.0
    ref = 0.0
    for w_vec, t_vec in zip(current, truth):
        for w_m, t_m in zip(w_vec, t_vec):
            err += (w_m - t_m).modulus_squared()
            ref += t_m.modulus_squared()
    return math.sqrt(err / ref) if ref > 0.0 else math.sqrt(err)


def _scalar_run(config: ExperimentConfig):
    """run_experiment's curves from the scalar oracle over generate_signal."""
    taps = len(config.taps) if isinstance(config.taps, QVector) else len(config.taps[0])
    if config.variant == "qlms":
        state, step = qlms_state(taps, config.alpha), _oracle_qlms_step
    elif config.variant == "wl_qlms":
        state, step = wl_qlms_state(taps, config.alpha), _oracle_wl_qlms_step
    else:
        phi = NONLINEARITIES.get(config.nonlinearity)
        state, step = qngd_state(taps, config.alpha, nonlinearity=phi), _oracle_qngd_step
    mse, weight_errors = [], []
    stream = generate_signal(config.kind, config.taps, config.steps,
                             config.snr_db, config.seed)
    for idx, (x, d) in enumerate(stream):
        state, e = step(state, x, d)
        mse.append(e.modulus_squared())
        weight_errors.append(_scalar_weight_error(state, config.taps))
        total_norm = sum(_norm_squared(w) for w in state.weights)
        if not math.isfinite(total_norm) or total_norm > DIVERGENCE_NORM ** 2:
            raise DivergenceError(f"filter diverged at step {idx}")
    return tuple(mse), tuple(weight_errors)


FILTERS = {
    "qlms": dict(variant="qlms", taps=CHANNEL, alpha=0.02),
    "wl_qlms": dict(variant="wl_qlms", taps=WL_CHANNEL, alpha=0.01),
    "wl_qlms_strictly_linear": dict(variant="wl_qlms", taps=CHANNEL, alpha=0.01),
    "qngd_linear": dict(variant="qngd", taps=CHANNEL, alpha=0.02),
    "qngd_tanh": dict(variant="qngd", taps=CHANNEL, alpha=0.02, nonlinearity="tanh"),
}


@pytest.mark.parametrize("seed", [5, 1234])
@pytest.mark.parametrize("kind", SIGNAL_KINDS)
@pytest.mark.parametrize("name", sorted(FILTERS))
def test_array_engine_matches_scalar_steps_bitwise(name, kind, seed):
    config = ExperimentConfig(steps=300, snr_db=30.0, seed=seed, kind=kind,
                              **FILTERS[name])
    result = run_experiment(config)
    assert (result.mse_curve, result.weight_error_curve) == _scalar_run(config)


def test_array_engine_diverges_at_the_scalar_step():
    config = ExperimentConfig(variant="qlms", taps=CHANNEL, alpha=0.5,
                              steps=300, snr_db=30.0, seed=1)
    with pytest.raises(DivergenceError) as scalar:
        _scalar_run(config)
    with pytest.raises(DivergenceError) as array:
        run_experiment(config)
    assert str(array.value) == str(scalar.value)


def _bits(quaternions) -> tuple[str, ...]:
    return tuple(x.hex() for q in quaternions for x in q)


@pytest.mark.parametrize("step,oracle,start,taps", [
    (qlms_step, _oracle_qlms_step, qlms_state(4, 0.02), CHANNEL),
    (wl_qlms_step, _oracle_wl_qlms_step, wl_qlms_state(3, 0.01), WL_CHANNEL),
    (qngd_step, _oracle_qngd_step, qngd_state(4, 0.02, phi_tanh), CHANNEL),
    (qlms_step, _oracle_qlms_step,
     FilterState(variant="qlms", alpha=0.02, weights=(QVector.from_components(
         [[math.nan, 0, 0, 0], [0.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),)), CHANNEL),
], ids=["qlms", "wl_qlms", "qngd_tanh", "qlms_nan_weight"])
def test_public_steps_match_scalar_oracle_bitwise(step, oracle, start, taps):
    # The public steps are one-window calls into the array kernel.  They do
    # not police their state: a NaN weight spreads as the recursion spreads it.
    state = expected = start
    for x, d in generate_signal("ar1", taps, 50, 30.0, seed=17):
        state, e = step(state, x, d)
        expected, e_expected = oracle(expected, x, d)
        assert _bits([e]) == _bits([e_expected])
        assert [_bits(w) for w in state.weights] == [_bits(w) for w in expected.weights]
        assert state.iteration == expected.iteration


def test_phi_derivatives_share_one_set_of_partials(monkeypatch):
    # Each conj(Phi^mu) partial is a sign flip of Phi's partial, so one set
    # of partials reproduces the four separate HR derivatives exactly.
    rng = make_rng(SEED, stream=5)
    for _ in range(20):
        s = random_quaternion(rng)
        separate = [left_hr(lambda p, mu=mu: involute(phi_tanh(p), mu).conjugate(), s).wrt_qc
                    for mu in AXES]
        assert _bits(_phi_derivatives(phi_tanh, s)) == _bits(separate)

    calls = []
    evaluate = derivatives._evaluate
    monkeypatch.setattr(derivatives, "_evaluate",
                        lambda f, p: calls.append(p) or evaluate(f, p))
    run_experiment(ExperimentConfig(steps=50, snr_db=30.0, seed=1,
                                    **FILTERS["qngd_tanh"]))
    assert len(calls) == 8 * 50


def test_wl_qlms_is_real_lms_with_four_times_the_step():
    # Every real-linear map H^N -> H is widely linear, and summing
    # (x^b)* y^b over the four involutions gives 4 Re(x* y), so WL-QLMS is
    # plain real LMS on a 4 x 4N matrix with step 4 alpha.
    config, _ = _load_filter_config("wl_qlms")
    config = replace(config, steps=2000)
    result = run_experiment(config)
    windows, desired = _signal_arrays(config.kind, _taps_array(config.taps),
                                      config.steps, config.snr_db, config.seed)
    regressors = windows.reshape(config.steps, -1)
    matrix = np.zeros((4, regressors.shape[1]))
    sq_error = []
    for x, d in zip(regressors, desired):
        e = d - matrix @ x
        matrix += 4.0 * config.alpha * np.outer(e, x)
        sq_error.append(float(e @ e))
    assert np.max(np.abs(np.array(result.mse_curve) - sq_error)) <= 1e-12
