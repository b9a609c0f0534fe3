"""Adaptive filter variants, signal generation and experiment harness."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quatcalc import derivatives, filters, tables
from quatcalc.cli import _load_filter_config
from quatcalc.derivatives import EvaluationError, left_hr, real_partials, takes_arrays
from quatcalc.filters import (AR1_BURN_IN, AR1_COEFF, DIVERGENCE_NORM, NONLINEARITIES,
                              SIGNAL_KINDS, ExperimentConfig, FilterState,
                              _qngd_errors, _signal_arrays,
                              _taps_array, generate_signal, phi_tanh,
                              qlms_state, qlms_step, qngd_state, qngd_step,
                              run_experiment, wl_qlms_state, wl_qlms_step)
from quatcalc.quaternion import AXES, ONE, I, J, K, Quaternion, involute
from quatcalc.sampling import make_rng, random_quaternion
from quatcalc.theorems import DivergenceError

SEED = 20240505

CHANNEL_ROWS = [
    [0.7, -0.3, 0.2, 0.1],
    [0.2, 0.5, -0.4, 0.3],
    [-0.1, 0.2, 0.6, -0.2],
    [0.3, -0.2, 0.1, 0.4],
]
CHANNEL = tuple(Quaternion(*row) for row in CHANNEL_ROWS)

WL_CHANNEL_ROWS = [
    [[0.6, -0.2, 0.3, 0.1], [0.1, 0.4, -0.3, 0.2], [-0.2, 0.1, 0.5, -0.1]],
    [[0.3, 0.2, -0.1, 0.2], [-0.1, 0.3, 0.2, -0.2], [0.2, -0.2, 0.4, 0.1]],
    [[-0.2, 0.3, 0.1, -0.1], [0.3, -0.1, 0.2, 0.2], [0.1, 0.2, -0.3, 0.1]],
    [[0.2, -0.1, 0.2, 0.3], [0.1, 0.2, -0.1, -0.3], [0.3, 0.1, 0.2, -0.1]],
]
WL_CHANNEL = tuple(tuple(Quaternion(*row) for row in rows) for rows in WL_CHANNEL_ROWS)


def _random_qvector(rng, n):
    return tuple(random_quaternion(rng) for _ in range(n))


# The scalar recursions, one Quaternion at a time: the independent oracle
# that the QLMS engine (and so qlms_step) must match bit for bit, and that
# QNGD and WL-QLMS meet within rounding.


def _dot_t(w, x) -> Quaternion:
    """Transpose pairing sum w_m * x_m (order matters)."""
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for p, q in zip(w, x):
        total = total + p * q
    return total


def _dot_h(w, x) -> Quaternion:
    """Hermitian pairing sum w_m* * x_m."""
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for p, q in zip(w, x):
        total = total + p.conjugate() * q
    return total


def _involute_vector(x, axis: str):
    return tuple(involute(q, axis) for q in x)


def _norm_squared(w) -> float:
    return sum(q.modulus_squared() for q in w)


def _linear_update(w, x, e: Quaternion, alpha: float):
    return tuple(w_m + (e * x_m.conjugate()) * alpha for w_m, x_m in zip(w, x))


def _oracle_qlms_step(state: FilterState, x, d: Quaternion):
    w = state.weights[0]
    e = d - _dot_t(w, x)
    new_w = _linear_update(w, x, e, state.alpha)
    return state._replace(weights=(new_w,), iteration=state.iteration + 1), e


def _oracle_wl_qlms_step(state: FilterState, x, d: Quaternion):
    h, g, u, v = state.weights
    branches = (x, _involute_vector(x, "i"), _involute_vector(x, "j"),
                _involute_vector(x, "k"))
    y = _dot_h(h, branches[0]) + _dot_h(g, branches[1]) \
        + _dot_h(u, branches[2]) + _dot_h(v, branches[3])
    e = d - y
    ec = e.conjugate()
    new_weights = tuple(
        tuple(w_m + (b_m * ec) * state.alpha for w_m, b_m in zip(w_vec, branch))
        for w_vec, branch in zip((h, g, u, v), branches))
    return state._replace(weights=new_weights, iteration=state.iteration + 1), e


def _ghr_effective_error(phi, s: Quaternion, e: Quaternion) -> Quaternion:
    """The sum over mu of e^mu * d Phi^(mu*)/ds*, each from its own left_hr."""
    e_eff = Quaternion(0.0, 0.0, 0.0, 0.0)
    for mu in AXES:
        gamma = left_hr(lambda p, mu=mu: involute(phi(p), mu).conjugate(), s).wrt_qc
        e_eff = e_eff + involute(e, mu) * gamma
    return e_eff


def _jacobian_effective_error(phi, s: Quaternion, e: Quaternion) -> Quaternion:
    """J^T e by the real chain rule: component r is <d Phi/ds_r, e>, the
    products added from 0.0 in component order."""
    return Quaternion(*(_sum(partial[c] * e[c] for c in range(4))
                        for partial in real_partials(phi, s)))


def _qngd_oracle(effective_error):
    """The scalar QNGD step whose move takes effective_error(phi, s, e)."""
    def step(state: FilterState, x, d: Quaternion):
        w = state.weights[0]
        s = _dot_t(w, x)
        phi = state.nonlinearity
        if phi is None:
            e = e_eff = d - s
        else:
            e = d - phi(s)
            e_eff = effective_error(phi, s, e)
        new_w = _linear_update(w, x, e_eff, state.alpha)
        return state._replace(weights=(new_w,), iteration=state.iteration + 1), e
    return step


# The GHR recursion through four projected HR derivatives, which the engine
# meets within rounding, and the real-Jacobian loop it matches bit for bit.
_oracle_qngd_step = _qngd_oracle(_ghr_effective_error)
_oracle_qngd_jacobian_step = _qngd_oracle(_jacobian_effective_error)


# WL-QLMS as the real LMS it is, in plain loops: the oracle that the engine
# (and so wl_qlms_step) must match bit for bit.  Its matrix M, a list of
# four rows, holds at [r][c * taps + m] the weight of component c of x_m in
# component r of the output.  The map A from the four branch vectors to M
# comes from Quaternion arithmetic alone: w^mu_k enters (w^mu)* x^mu, times
# x_c, through component r of conj(e_k) * (e_c)^mu.
BASIS = (ONE, I, J, K)
WL_COEFFICIENTS = [[[[(BASIS[k].conjugate() * involute(BASIS[c], mu))[r] for k in range(4)]
                     for mu in AXES] for c in range(4)] for r in range(4)]


def _sum(terms) -> float:
    """The terms added left to right from 0.0."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _oracle_matrix(branches) -> list[list[float]]:
    """A w: the real matrix of four branch vectors of Quaternions."""
    taps = len(branches[0])
    return [[_sum(coeff * branches[mu][m][k] for mu in range(4) for k in range(4)
                  if (coeff := WL_COEFFICIENTS[r][c][mu][k]))
             for c in range(4) for m in range(taps)] for r in range(4)]


def _oracle_branches(matrix, taps: int):
    """A^T M / 4: the four branch vectors of a real matrix."""
    return tuple(tuple(Quaternion(*(
        _sum(coeff * matrix[r][c * taps + m] for r in range(4) for c in range(4)
             if (coeff := WL_COEFFICIENTS[r][c][mu][k])) * 0.25 for k in range(4)))
        for m in range(taps)) for mu in range(4))


def _real_components(x) -> list[float]:
    """A window's real components, component-major: x_m's c at c * taps + m."""
    return [q[c] for c in range(4) for q in x]


def _oracle_real_lms_step(matrix, x, d, step: float):
    """e = d - M x row by row, then M + (step e) x^T."""
    e = [d_r - _sum(w * v for w, v in zip(row, x)) for d_r, row in zip(d, matrix)]
    return [[w + (e_r * step) * v for w, v in zip(row, x)] for e_r, row in zip(e, matrix)], e


def _oracle_wl_qlms_real_step(state: FilterState, x, d: Quaternion):
    """The branch vectors mapped to M, one real LMS step with step 4 alpha,
    and the matrix mapped back."""
    matrix, e = _oracle_real_lms_step(_oracle_matrix(state.weights), _real_components(x), d,
                                      4.0 * state.alpha)
    return (state._replace(weights=_oracle_branches(matrix, len(x)),
                           iteration=state.iteration + 1), Quaternion(*e))


def test_qlms_scalar_oracle():
    # w = 0, x = 1, d = 1, alpha = 0.5: e = 1 and the update puts w at 0.5.
    state = qlms_state(taps=1, alpha=0.5)
    assert state.weights == ((Quaternion(0.0, 0.0, 0.0, 0.0),),)
    x = (ONE,)
    new_state, e = qlms_step(state, x, ONE)
    assert e == ONE
    assert new_state.weights[0][0] == Quaternion(0.5, 0.0, 0.0, 0.0)
    assert new_state.iteration == 1


def test_qlms_rejects_wrong_input_length():
    state = qlms_state(taps=3, alpha=0.1)
    with pytest.raises(ValueError):
        qlms_step(state, (ONE,), ONE)


@pytest.mark.parametrize("step,state", [
    (wl_qlms_step, qlms_state(2, 0.1)),
    (wl_qlms_step, qngd_state(2, 0.1)),
    (qlms_step, wl_qlms_state(2, 0.1)),
    (qlms_step, qngd_state(2, 0.1)),
    (qngd_step, qlms_state(2, 0.1)),
    (qngd_step, wl_qlms_state(2, 0.1)),
    # The right variant with the wrong branch count.
    (qlms_step, wl_qlms_state(2, 0.1)._replace(variant="qlms")),
    (wl_qlms_step, qlms_state(2, 0.1)._replace(variant="wl_qlms")),
], ids=["wl_qlms-on-qlms", "wl_qlms-on-qngd", "qlms-on-wl_qlms", "qlms-on-qngd",
        "qngd-on-qlms", "qngd-on-wl_qlms", "qlms-four-branches", "wl_qlms-one-branch"])
def test_step_rejects_another_variants_state(step, state):
    x = (ONE, ONE)
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
                probe = tuple(wm if idx == m else w[idx] for idx in range(3))
                err = d - _dot_t(probe, x)
                return Quaternion.from_real(err.modulus_squared())

            grad = left_hr(objective, w[m]).wrt_qc
            move = new_state.weights[0][m] - w[m]
            assert abs(move - grad * (-2.0 * alpha)) < 1e-6


def _output(weights, x, phi):
    """The filter output of Quaternion weight vectors: Phi(w^T x) for one
    branch (w^T x with no Phi), sum over mu of (w^mu)^H x^mu for four."""
    if len(weights) == 1:
        s = _dot_t(weights[0], x)
        return s if phi is None else phi(s)
    y = Quaternion(0.0, 0.0, 0.0, 0.0)
    for w, axis in zip(weights, AXES):
        y = y + _dot_h(w, _involute_vector(x, axis))
    return y


def _gradient_misfit(name: str, part: str) -> float:
    """The largest |move + 2 alpha dJ/dw| over every weight and step of a
    short seeded run through filters._step, the per-window kernel.  J is
    the step's |e|^2 as a function of one weight, and dJ/dw is the ``part``
    ("wrt_qc" or "wrt_q") of its left HR derivatives."""
    spec = FILTERS[name]
    phi = NONLINEARITIES.get(spec.get("nonlinearity"))
    alpha = spec["alpha"]
    stream = generate_signal("ar1", spec["taps"], 12, 30.0, seed=SEED)
    taps = len(stream[0][0])
    rng = make_rng(SEED, stream=9)
    branches = 4 if spec["variant"] == "wl_qlms" else 1
    start = [[random_quaternion(rng, -0.5, 0.5) for _ in range(taps)] for _ in range(branches)]
    weights = np.array(start).transpose(2, 0, 1)
    worst = 0.0
    for x, d in stream:
        new, _ = filters._step(weights, _taps_array(x), np.array(d), alpha, phi)
        current = [[Quaternion(*q) for q in branch] for branch in weights.transpose(1, 2, 0).tolist()]
        for b, m in itertools.product(range(branches), range(taps)):
            def objective(q, b=b, m=m):
                probe = [list(branch) for branch in current]
                probe[b][m] = q
                return Quaternion.from_real((d - _output(probe, x, phi)).modulus_squared())

            grad = getattr(left_hr(objective, current[b][m]), part)
            move = Quaternion(*(new[:, b, m] - weights[:, b, m]).tolist())
            worst = max(worst, abs(move + grad * (2.0 * alpha)))
        weights = new
    return worst


@pytest.mark.parametrize("name", ["qlms", "wl_qlms", "qngd_tanh"])
def test_every_filter_step_is_conjugate_gradient_descent_on_the_kernel(name):
    # The paper derives each update as a step along -d|e|^2/dw*, the GHR
    # conjugate gradient: every weight of every branch moves by -2 alpha
    # times it.  The derivative with respect to w, not w*, misses the bound.
    assert _gradient_misfit(name, "wrt_qc") <= 1e-10
    assert _gradient_misfit(name, "wrt_q") > 1e-10


def test_signal_unit_variance():
    stream = generate_signal("white_circular", CHANNEL, 20000, math.inf, seed=11)
    power = sum(x[0].modulus_squared() for x, _ in stream) / len(stream)
    assert 3.8 < power < 4.2  # four unit-variance components


def test_signal_noise_free_output_matches_channel():
    stream = generate_signal("fir_channel", CHANNEL, 50, math.inf, seed=11)
    for x, d in stream:
        assert abs(d - _dot_t(CHANNEL, x)) == 0.0


def test_signal_noise_free_widely_linear_output_is_its_real_matrix_times_x():
    # A four-branch channel outputs M x as WL-QLMS does, and the sum of its
    # Hermitian branch outputs within rounding.
    matrix = _oracle_matrix(WL_CHANNEL)
    for x, d in generate_signal("fir_channel", WL_CHANNEL, 50, math.inf, seed=11):
        x_real = _real_components(x)
        assert _bits([d]) == _bits([[_sum(w * v for w, v in zip(row, x_real)) for row in matrix]])
        assert abs(d - _output(WL_CHANNEL, x, None)) <= 1e-13


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
    # snr_db=True ran at 1 dB, and "5" raised a TypeError from math.isnan.
    for snr_db in (True, False, "5"):
        with pytest.raises(ValueError, match=f"snr_db must be a real number, got {snr_db!r}"):
            generate_signal("fir_channel", CHANNEL, 100, snr_db, seed=1)
    with pytest.raises(ValueError, match="steps must be an integer, got True"):
        generate_signal("fir_channel", CHANNEL, True, 30.0, seed=1)


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
    w = tuple(q * 0.01 for q in _random_qvector(rng, 3))
    x = tuple(q * 0.01 for q in _random_qvector(rng, 3))
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
                              taps=[[1e160, 0, 0, 0], [0.1, 0, 0, 0]])
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
    ({"taps": [[math.nan, 0, 0, 0], [0.1, 0, 0, 0]]},
     "taps must be finite"),
    ({"taps": [[math.inf, 0, 0, 0], [0.1, 0, 0, 0]]},
     "taps must be finite"),
    ({"taps": [[1e308, 0, 0, 0], [0.1, 0, 0, 0]]},
     "desired signal is not finite"),
    ({"taps": [[1e308, 0, 0, 0], [0.1, 0, 0, 0]],
      "snr_db": math.inf}, "desired signal is not finite"),
    ({"snr_db": -4000.0}, "desired signal is not finite"),
    ({"nonlinearity": "relu"}, "unknown nonlinearity"),
    ({"nonlinearity": "tanh"}, "nonlinearity applies to qngd only"),
    ({"variant": "wl_qlms", "nonlinearity": "tanh"}, "nonlinearity applies to qngd only"),
    ({"alpha": True}, "alpha must be a real number, got True"),
    ({"alpha": "0.1"}, "alpha must be a real number"),
    ({"snr_db": True}, "snr_db must be a real number, got True"),
    ({"snr_db": False}, "snr_db must be a real number, got False"),
    ({"alpha": 10 ** 400}, "alpha must be a real number within a double's range"),
    ({"snr_db": -10 ** 400}, "snr_db must be a real number within a double's range"),
    ({"steps": True}, "steps must be an integer, got True"),
])
def test_run_experiment_rejects_bad_config(change, message, recwarn):
    config = ExperimentConfig(**{**dict(variant="qlms", taps=CHANNEL, alpha=0.01,
                                        steps=100, snr_db=30.0, seed=1), **change})
    with pytest.raises(ValueError, match=message):
        run_experiment(config)
    # Rejected before numpy can warn about overflow.
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("taps", [
    [],
    [[]],
    CHANNEL[0],
    [[0.5, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0]],
    [[0.5, 0.0, 0.0]],
    [[0.5, 0.0, 0.0, 0.0, 0.0]],
    [["x", 0.0, 0.0, 0.0]],
    [["0.5", "0", "0", "0"]],
    [{"a": 1}],
    WL_CHANNEL[:2],
    WL_CHANNEL[:3],
    WL_CHANNEL[:3] + (CHANNEL,),
    [WL_CHANNEL],
], ids=["empty", "empty-vector", "one-quaternion", "ragged", "three-numbers",
        "five-numbers", "non-numeric", "numeric-strings", "dict", "two-branches", "three-branches",
        "unequal-branches", "four-dimensional"])
def test_malformed_taps_are_rejected(taps):
    config = ExperimentConfig(variant="qlms", taps=taps, alpha=0.01, steps=100,
                              snr_db=30.0, seed=1)
    with pytest.raises(ValueError, match="four branches"):
        run_experiment(config)
    with pytest.raises(ValueError, match="four branches"):
        generate_signal("fir_channel", taps, 100, 30.0, seed=1)


@pytest.mark.parametrize("forms", [
    (CHANNEL, list(CHANNEL), CHANNEL_ROWS),
    (WL_CHANNEL, [list(branch) for branch in WL_CHANNEL], WL_CHANNEL_ROWS),
], ids=["one-branch", "four-branches"])
@pytest.mark.parametrize("variant", ["qlms", "wl_qlms"])
def test_taps_forms_give_identical_runs(forms, variant):
    # Quaternions are tuples, so a tuple or a list of them and the JSON rows
    # [[a, b, c, d], ...] are the same taps.
    runs = []
    for taps in forms:
        result = run_experiment(ExperimentConfig(variant=variant, taps=taps, alpha=0.01,
                                                 steps=300, snr_db=30.0, seed=5))
        stream = generate_signal("ar1", taps, 50, 30.0, seed=5)
        runs.append((tuple(x.hex() for x in result.mse_curve + result.weight_error_curve),
                     [(_bits(x), _bits([d])) for x, d in stream]))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("variant", ["qlms", "qngd"])
def test_one_branch_filter_on_widely_linear_taps_is_held_against_conjugate(variant):
    # The channel (h, 0, 0, 0) outputs h^H x = sum h_m* x_m, which the
    # strictly linear filter reproduces with w = h*.
    zeros = (Quaternion(0.0, 0.0, 0.0, 0.0),) * 2
    config = ExperimentConfig(variant=variant, taps=(CHANNEL[:2], zeros, zeros, zeros),
                              alpha=0.02, steps=5000, snr_db=60.0, seed=1)
    result = run_experiment(config)
    assert sum(result.mse_curve[-100:]) / 100 < 1e-4
    assert result.final_weight_error < 1e-2


def _reference(variant: str, taps):
    """The branch vectors that run_experiment holds a variant's weights against."""
    truth = (taps,) if np.ndim(taps) == 2 else taps
    if variant == "wl_qlms" and len(truth) == 1:
        zeros = (Quaternion(0.0, 0.0, 0.0, 0.0),) * len(truth[0])
        truth = (tuple(q.conjugate() for q in truth[0]), zeros, zeros, zeros)
    elif variant != "wl_qlms" and len(truth) == 4:
        truth = (tuple(q.conjugate() for q in truth[0]),)
    return truth


def _scalar_weight_error(state: FilterState, taps) -> float:
    """Relative weight error, added up over Quaternion objects."""
    truth = _reference(state.variant, taps)
    err = 0.0
    ref = 0.0
    for w_vec, t_vec in zip(state.weights, truth):
        for w_m, t_m in zip(w_vec, t_vec):
            err += (w_m - t_m).modulus_squared()
            ref += t_m.modulus_squared()
    return math.sqrt(err / ref) if ref > 0.0 else math.sqrt(err)


def _scalar_run(config: ExperimentConfig, bound: float = DIVERGENCE_NORM,
                qngd_oracle=_oracle_qngd_jacobian_step):
    """run_experiment's curves from the scalar oracle over generate_signal,
    which diverges when the weight norm passes ``bound``.  QNGD steps
    through ``qngd_oracle``: the real-Jacobian loop unless told otherwise."""
    taps = np.shape(config.taps)[-2]
    if config.variant == "qlms":
        state, step = qlms_state(taps, config.alpha), _oracle_qlms_step
    elif config.variant == "wl_qlms":
        state, step = wl_qlms_state(taps, config.alpha), _oracle_wl_qlms_step
    else:
        phi = NONLINEARITIES.get(config.nonlinearity)
        state, step = qngd_state(taps, config.alpha, nonlinearity=phi), qngd_oracle
    mse, weight_errors = [], []
    stream = generate_signal(config.kind, config.taps, config.steps,
                             config.snr_db, config.seed)
    for idx, (x, d) in enumerate(stream):
        state, e = step(state, x, d)
        mse.append(e.modulus_squared())
        weight_errors.append(_scalar_weight_error(state, config.taps))
        total_norm = sum(_norm_squared(w) for w in state.weights)
        if not math.isfinite(total_norm) or total_norm > bound ** 2:
            raise DivergenceError(f"filter diverged at step {idx}")
    return tuple(mse), tuple(weight_errors)


def _squares(matrix) -> float:
    """The squared norm of a real matrix as run_experiment adds it: each
    column's a^2 + b^2 + c^2 + d^2 over its four rows, left to right."""
    return _sum(a * a + b * b + c * c + d * d for a, b, c, d in zip(*matrix))


def _real_lms_steps(config: ExperimentConfig):
    """The matrix and the error after each step of the real LMS loop over
    generate_signal, from M = 0."""
    stream = generate_signal(config.kind, config.taps, config.steps, config.snr_db, config.seed)
    matrix = [[0.0] * (4 * len(stream[0][0]))] * 4
    for x, d in stream:
        matrix, e = _oracle_real_lms_step(matrix, _real_components(x), d, 4.0 * config.alpha)
        yield matrix, e


def _real_lms_run(config: ExperimentConfig, bound: float = DIVERGENCE_NORM):
    """run_experiment's WL-QLMS curves from the real LMS loop.  |A w|^2 is
    4 |w|^2, so M diverges where its squared norm passes 4 bound^2."""
    reference = _oracle_matrix(_reference("wl_qlms", config.taps))
    ref = _squares(reference)
    mse, weight_errors = [], []
    for idx, (matrix, e) in enumerate(_real_lms_steps(config)):
        mse.append(Quaternion(*e).modulus_squared())
        err = _squares([[w - t for w, t in zip(row, ref_row)]
                        for row, ref_row in zip(matrix, reference)])
        weight_errors.append(math.sqrt(err / ref if ref > 0.0 else err))
        norm = _squares(matrix)
        if not math.isfinite(norm) or norm > 4.0 * bound ** 2:
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
    # QLMS against the Quaternion recursion, QNGD against the scalar loop
    # whose effective error is J^T e, WL-QLMS against the real LMS loop.
    config = ExperimentConfig(steps=300, snr_db=30.0, seed=seed, kind=kind,
                              **FILTERS[name])
    result = run_experiment(config)
    oracle = _real_lms_run if config.variant == "wl_qlms" else _scalar_run
    assert (result.mse_curve, result.weight_error_curve) == oracle(config)


WL_FILTERS = ["wl_qlms", "wl_qlms_strictly_linear"]


@pytest.mark.parametrize("seed", [5, 1234])
@pytest.mark.parametrize("kind", SIGNAL_KINDS)
@pytest.mark.parametrize("name", WL_FILTERS)
def test_wl_qlms_engine_meets_the_quaternion_recursion_within_rounding(name, kind, seed):
    # The real LMS takes the quaternion recursion's steps with its sums in
    # another order: both curves stay within 1e-11 of the recursion's,
    # relative to the curve's largest value.
    config = ExperimentConfig(steps=300, snr_db=30.0, seed=seed, kind=kind,
                              **FILTERS[name])
    result = run_experiment(config)
    for got, expected in zip((result.mse_curve, result.weight_error_curve),
                             _scalar_run(config)):
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-11 * max(expected)


@pytest.mark.parametrize("seed", [5, 1234])
@pytest.mark.parametrize("kind", SIGNAL_KINDS)
def test_qngd_engine_meets_the_ghr_recursion_within_rounding(kind, seed):
    # J^T e is the GHR sum over four projected HR derivatives in exact
    # arithmetic.  In floats the two differ in the last ulps, and central
    # differences with h = 1e-6 amplify a 1-ulp change of the output up to
    # about 2e-10 relative in a partial: both curves stay within 1e-9 of the
    # recursion's, relative to the curve's largest value.
    config = ExperimentConfig(steps=300, snr_db=30.0, seed=seed, kind=kind,
                              **FILTERS["qngd_tanh"])
    result = run_experiment(config)
    for got, expected in zip((result.mse_curve, result.weight_error_curve),
                             _scalar_run(config, qngd_oracle=_oracle_qngd_step)):
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-9 * max(expected)


@pytest.mark.parametrize("name", WL_FILTERS)
def test_wl_qlms_weight_error_is_the_branch_weights_error(name):
    # A^T A = 4 I: the relative error of M is that of its branch weights
    # A^T M / 4, up to rounding.
    config = ExperimentConfig(steps=300, snr_db=30.0, seed=5, kind="ar1", **FILTERS[name])
    curve = run_experiment(config).weight_error_curve
    for (matrix, _), engine in zip(_real_lms_steps(config), curve):
        state = FilterState(variant="wl_qlms", alpha=config.alpha,
                            weights=_oracle_branches(matrix, len(matrix[0]) // 4))
        assert engine == pytest.approx(_scalar_weight_error(state, config.taps), rel=1e-13)


def test_wl_map_is_twice_an_orthogonal_map():
    # A, from filters' tables: row r * 4 + c of M takes component
    # k = _MUL_INDEX[r, c] of branch mu, column mu * 4 + k, with its sign.
    a = np.zeros((16, 16))
    for mu, r, c in itertools.product(range(4), repeat=3):
        a[r * 4 + c, mu * 4 + filters._MUL_INDEX[r, c]] = filters._WL_SIGNS[mu, r, c]
    assert set(np.abs(a).ravel()) == {0.0, 1.0}
    assert (np.count_nonzero(a, axis=0) == 4).all() and (np.count_nonzero(a, axis=1) == 4).all()
    assert (a.T @ a == 4.0 * np.eye(16)).all()
    # It is the coefficient map of Quaternion arithmetic, and what
    # _wl_matrix applies to a tap's branch weights and _wl_branches,
    # as A^T / 4, to a tap's matrix.
    assert (a == np.reshape(WL_COEFFICIENTS, (16, 16))).all()
    for index in range(16):
        unit = np.zeros(16)
        unit[index] = 1.0
        assert (filters._wl_matrix(unit.reshape(4, 4).T[:, :, None]).ravel()
                == a[:, index]).all()
        assert (filters._wl_branches(unit.reshape(4, 4))[:, :, 0].T.ravel()
                == 0.25 * a[index]).all()


@pytest.mark.parametrize("name,alpha,steps,step", [
    ("qlms", 0.5, 300, 11),
    ("wl_qlms", 0.1, 300, 31),
    # Step 0 overflows weights to infinity, so step 1's output and Phi
    # partials are NaN and raise EvaluationError in mid-block.  The engine
    # then checks the steps before it and reports step 0's divergence, as
    # the scalar loop, checking every step, does.
    ("qngd_tanh", 1e308, 300, 0),
    # Linear steps are checked once per block: the first bad step must be
    # reported from the middle of a block past the first 256 steps.
    ("qlms", 0.13, 400, 260),
], ids=["qlms", "wl_qlms", "qngd_tanh", "qlms_mid_block"])
def test_array_engine_diverges_at_the_scalar_step(name, alpha, steps, step):
    config = ExperimentConfig(steps=steps, snr_db=30.0, seed=1,
                              **{**FILTERS[name], "alpha": alpha})
    with pytest.raises(DivergenceError) as scalar:
        _scalar_run(config)
    with pytest.raises(DivergenceError) as array:
        run_experiment(config)
    assert str(array.value) == str(scalar.value) == f"filter diverged at step {step}"


def test_qngd_divergence_in_mid_block_is_the_scalar_step(monkeypatch):
    # tanh saturates, so a QNGD tanh filter passes a norm of 1e6 in its first
    # step or never.  Under a bound of 1.6 its adapting weights first pass
    # the bound at step 147, inside the second block; no EvaluationError
    # stops that block early, so only the per-block check can report it.
    monkeypatch.setattr(filters, "DIVERGENCE_NORM", 1.6)
    config = ExperimentConfig(steps=300, snr_db=30.0, seed=1, **FILTERS["qngd_tanh"])
    with pytest.raises(DivergenceError) as scalar:
        _scalar_run(config, bound=1.6)
    with pytest.raises(DivergenceError) as array:
        run_experiment(config)
    assert str(array.value) == str(scalar.value) == "filter diverged at step 147"


def test_wl_qlms_divergence_under_a_small_bound_is_the_oracles_step(monkeypatch):
    # Under a bound of 1.2 the adapting branch weights (truth norm 1.64)
    # first pass it at step 21.  The engine holds |M|^2 = 4 |w|^2 against
    # 4 bound^2, and reports the real loop's and the quaternion recursion's step.
    monkeypatch.setattr(filters, "DIVERGENCE_NORM", 1.2)
    config = ExperimentConfig(steps=300, snr_db=30.0, seed=1, **FILTERS["wl_qlms"])
    messages = []
    for run in (run_experiment, lambda c: _real_lms_run(c, bound=1.2),
                lambda c: _scalar_run(c, bound=1.2)):
        with pytest.raises(DivergenceError) as diverged:
            run(config)
        messages.append(str(diverged.value))
    assert messages == ["filter diverged at step 21"] * 3


def _bits(quaternions) -> tuple[str, ...]:
    return tuple(x.hex() for q in quaternions for x in q)


@takes_arrays
def _phi_square(s):
    """s * s: unlike tanh, its Jacobian and conjugate derivatives are not
    diagonal, so J e in place of J^T e shows."""
    return s * s


@pytest.mark.parametrize("step,oracle,start,taps", [
    (qlms_step, _oracle_qlms_step, qlms_state(4, 0.02), CHANNEL),
    (wl_qlms_step, _oracle_wl_qlms_real_step, wl_qlms_state(3, 0.01), WL_CHANNEL),
    (qngd_step, _oracle_qngd_jacobian_step, qngd_state(4, 0.02, phi_tanh), CHANNEL),
    (qngd_step, _oracle_qngd_jacobian_step, FilterState(
        variant="qngd", alpha=0.002, weights=(CHANNEL,), nonlinearity=_phi_square), CHANNEL),
    (qlms_step, _oracle_qlms_step,
     FilterState(variant="qlms", alpha=0.02, weights=(tuple(Quaternion(*row) for row in (
         [math.nan, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4)),)), CHANNEL),
], ids=["qlms", "wl_qlms", "qngd_tanh", "qngd_square", "qlms_nan_weight"])
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


# Components that stress the kernel's shortcuts: signed zeros (a sum that
# starts from its first term rather than 0.0 can end at -0.0), subnormals,
# small integers whose products cancel exactly, and magnitudes whose
# products and sums overflow to inf and then NaN.
ZERO = st.sampled_from([0.0, -0.0])
EXTREME = st.one_of(
    ZERO,
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0,
                     2.0, -0.5, 1e154, -1e200, 1e308, -1.7976931348623157e308]),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(allow_nan=False, allow_infinity=False))
QUATERNIONS = st.one_of(st.builds(Quaternion, ZERO, ZERO, ZERO, ZERO),
                        st.builds(Quaternion, EXTREME, EXTREME, EXTREME, EXTREME))


@takes_arrays
def _phi_cliff(s):
    """tanh(1e12 s) * 1e308 by components: finite values that jump by 2e308
    where a component crosses 0, so a central difference there is inf."""
    return phi_tanh(s * 1e12) * 1e308


def _outcome(step, state, x, d):
    """The step's error and weights as float.hex strings, or its EvaluationError."""
    try:
        state, e = step(state, x, d)
    except EvaluationError as exc:
        return str(exc)
    return _bits([e]), [_bits(w) for w in state.weights]


STEPS = {
    "qlms": (qlms_step, _oracle_qlms_step, "qlms", 1, None),
    "wl_qlms": (wl_qlms_step, _oracle_wl_qlms_real_step, "wl_qlms", 4, None),
    "qngd_linear": (qngd_step, _oracle_qngd_jacobian_step, "qngd", 1, None),
    "qngd_tanh": (qngd_step, _oracle_qngd_jacobian_step, "qngd", 1, phi_tanh),
    "qngd_square": (qngd_step, _oracle_qngd_jacobian_step, "qngd", 1, _phi_square),
}


@pytest.mark.parametrize("name", sorted(STEPS))
@given(data=st.data())
def test_one_kernel_step_matches_scalar_oracle_on_extreme_values(name, data):
    # Every + 0.0 the kernel left out and every sign it folded into a factor
    # must leave each bit of the error and the new weights, NaN and the sign
    # of zero included, as the Quaternion recursion leaves it.
    step, oracle, variant, branches, phi = STEPS[name]
    taps = data.draw(st.integers(1, 3))
    weights = tuple(data.draw(st.tuples(*[QUATERNIONS] * taps)) for _ in range(branches))
    x = data.draw(st.tuples(*[QUATERNIONS] * taps))
    alpha = data.draw(st.one_of(st.sampled_from([0.0, 0.02, 1.0, 1e300]),
                                st.floats(min_value=0.0, max_value=10.0)))
    state = FilterState(variant=variant, weights=weights, alpha=alpha, nonlinearity=phi)
    d = data.draw(QUATERNIONS)
    assert _outcome(step, state, x, d) == _outcome(oracle, state, x, d)


@pytest.mark.parametrize("name", sorted(STEPS))
@pytest.mark.parametrize("component", range(4))
def test_one_kernel_step_on_a_negative_zero_output(name, component):
    # Zero weights whose product with the window is -0.0 in one component.
    # The scalar output, summed from 0.0, is +0.0 there; a kernel sum that
    # starts from its first term is -0.0 until the + 0.0 after it, and d - s
    # tells the two apart at d = -0.0.  A one-branch filter pairs w x, and a
    # signed zero w makes w * 0 negative in the component.  WL-QLMS's zero
    # branch weights map to M = +0.0, whose products with a -0.0 window are
    # -0.0 in every row.
    step, oracle, variant, branches, phi = STEPS[name]
    zero = Quaternion(0.0, 0.0, 0.0, 0.0)
    if branches == 4:
        weights, x = ((zero,),) * 4, (Quaternion(-0.0, -0.0, -0.0, -0.0),)
    else:
        signed_zeros = [Quaternion(*signs) for signs in itertools.product([0.0, -0.0], repeat=4)]
        weights = ((next(w for w in signed_zeros
                         if math.copysign(1.0, (w * zero)[component]) < 0.0),),)
        x = (zero,)
    state = FilterState(variant=variant, weights=weights, alpha=0.02, nonlinearity=phi)
    d = Quaternion(-0.0, -0.0, -0.0, -0.0)
    assert _outcome(step, state, x, d) == _outcome(oracle, state, x, d)


@pytest.mark.parametrize("phi", [phi_tanh, _phi_square, _phi_cliff],
                         ids=["tanh", "square", "cliff"])
@given(s=QUATERNIONS, d=QUATERNIONS)
@example(s=Quaternion(1e200, 0.0, -0.0, 1.0), d=Quaternion(0.0, 0.0, 0.0, 0.0))
def test_phi_derivatives_match_separate_derivatives_on_extreme_values(phi, s, d):
    # value_and_jacobian's one call of Phi on nine points against Phi(s)
    # and real_partials' own stencil, and the kernel's errors from it: where
    # a component of s is 0, _phi_cliff's partial along it is inf, and inf
    # times a zero error is NaN.  Near 1e200 s * s overflows, so the
    # stencil is not finite and both raise real_partials' EvaluationError.
    def outcome(run):
        try:
            return _bits(run())
        except EvaluationError as exc:
            return str(exc)

    def jacobian():
        value, columns = derivatives.value_and_jacobian(phi, np.array(s))
        return [Quaternion(*value.tolist()), *(Quaternion(*c) for c in columns.T.tolist())]

    def separate():
        e = d - phi(s)
        return [e, _jacobian_effective_error(phi, s, e)]

    with np.errstate(over="ignore", invalid="ignore"):
        shared = outcome(lambda: (Quaternion(*v.tolist())
                                  for v in _qngd_errors(phi, np.array(s), np.array(d))))
        assert outcome(jacobian) == outcome(lambda: [phi(s), *real_partials(phi, s)])
    assert shared == outcome(separate)
    if phi is _phi_square and s.a == 1e200:
        assert shared.startswith("function evaluation is not finite")


def test_jacobian_of_finite_values_may_overflow_without_an_error():
    # Phi's values at s +- h e_1 are +-1e308, finite, so no EvaluationError;
    # their difference overflows, which sends value_and_jacobian to the
    # exact check of the stencil, and that check passes.
    @takes_arrays
    def steep(p):
        return type(p).from_real(p.a * 1e300 * 1e14)

    s = np.zeros(4)
    with np.errstate(over="ignore"):
        value, columns = derivatives.value_and_jacobian(steep, s)
    assert value.tolist() == [0.0] * 4
    assert columns[0, 0] == math.inf
    assert np.isfinite(np.delete(columns.ravel(), 0)).all()


def test_effective_error_sums_from_zero_where_every_product_is_negative_zero():
    # At s = 0 with d = -0.0, tanh gives e = -0.0 - 0.0 = -0.0 in every
    # component, and each partial of tanh there is positive or +0.0, so
    # every product J[c, r] e[c] is -0.0.  The scalar sum from 0.0 ends at
    # +0.0, a sum from the first product at -0.0: the row of 0.0 ahead of
    # the kernel's products tells the two apart.
    s = Quaternion(0.0, 0.0, 0.0, 0.0)
    d = Quaternion(-0.0, -0.0, -0.0, -0.0)
    e = d - phi_tanh(s)
    products = [partial[c] * e[c] for partial in real_partials(phi_tanh, s) for c in range(4)]
    assert all(math.copysign(1.0, product) < 0.0 for product in products)
    expected = _jacobian_effective_error(phi_tanh, s, e)
    assert all(math.copysign(1.0, x) > 0.0 for x in expected)
    shared = _qngd_errors(phi_tanh, np.array(s), np.array(d))
    assert _bits(Quaternion(*v.tolist()) for v in shared) == _bits([e, expected])


def test_phi_derivatives_share_one_set_of_partials(monkeypatch):
    # Phi(s) and the partials come from one set of values, which match
    # Phi(s) and real_partials bit for bit.
    rng = make_rng(SEED, stream=5)
    for _ in range(20):
        s, d = random_quaternion(rng), random_quaternion(rng)
        e = d - phi_tanh(s)
        shared = _qngd_errors(phi_tanh, np.array(s), np.array(d))
        assert (_bits(Quaternion(*v.tolist()) for v in shared)
                == _bits([e, _jacobian_effective_error(phi_tanh, s, e)]))

    # Each step calls Phi once, on nine points, and evaluates nothing else.
    shapes, stencils = [], []

    @takes_arrays
    def counted(s):
        shapes.append(s.c.shape)
        return phi_tanh(s)

    monkeypatch.setitem(filters.NONLINEARITIES, "tanh", counted)
    monkeypatch.setattr(derivatives, "_evaluate_stencil", lambda *args: stencils.append(args))
    run_experiment(ExperimentConfig(steps=50, snr_db=30.0, seed=1,
                                    **FILTERS["qngd_tanh"]))
    assert shapes == [(4, 9)] * 50
    assert stencils == []


@pytest.mark.parametrize("phi", [
    phi_tanh, _phi_square, tables.as_function(tables.TableEntry("exponential")),
], ids=["tanh", "square", "exponential"])
def test_ghr_effective_error_is_the_real_jacobian_transpose(phi):
    # The GHR chain rule: the sum over mu of e^mu * d Phi^(mu*)/ds* is the
    # conjugate gradient of |e|^2 pushed back through Phi, and |e|^2 is real,
    # so it is the real chain rule's J^T e.  Both are taken from the same
    # central differences; they differ by rounding alone.
    rng = make_rng(SEED, stream=6)
    for _ in range(50):
        s, e = random_quaternion(rng), random_quaternion(rng)
        jacobian = _jacobian_effective_error(phi, s, e)
        assert abs(_ghr_effective_error(phi, s, e) - jacobian) <= 1e-13 * abs(jacobian)


def test_qngd_step_rejects_a_phi_without_an_array_form():
    # The kernel evaluates Phi on a QArray of nine points.
    state = qngd_state(2, 0.1, nonlinearity=lambda s: s * s)
    with pytest.raises(ValueError, match="takes_arrays"):
        qngd_step(state, (ONE, ONE), ONE)


def _ar1_rows(raw: np.ndarray) -> np.ndarray:
    """The AR(1) input from raw normal rows, one numpy row at a time."""
    drive = math.sqrt(1.0 - AR1_COEFF ** 2)
    colored = np.empty_like(raw)
    colored[0] = raw[0]
    for t in range(1, len(raw)):
        colored[t] = AR1_COEFF * colored[t - 1] + drive * raw[t]
    return colored[AR1_BURN_IN:]


@pytest.mark.parametrize("seed,taps", [(1, CHANNEL), (7, CHANNEL[:1]), (20240505, CHANNEL[:3])])
def test_ar1_input_is_the_per_row_recursion_bitwise(seed, taps):
    # The windows hold every input sample: the oldest taps - 1 in window 0,
    # then the newest sample of each window.
    n = 1200
    windows, _ = _signal_arrays("ar1", _taps_array(taps), n, 30.0, seed)
    sample_ss, _ = np.random.SeedSequence(seed).spawn(2)
    raw = np.random.Generator(np.random.Philox(sample_ss)).normal(
        size=(n + len(taps) - 1 + AR1_BURN_IN, 4))
    samples = np.concatenate([windows[0, :, :0:-1].T, windows[:, :, 0]])
    assert samples.tobytes() == _ar1_rows(raw).tobytes()


def test_wl_qlms_is_real_lms_with_four_times_the_step():
    # Every real-linear map H^N -> H is widely linear, and summing
    # (x^b)* y^b over the four involutions gives 4 Re(x* y), so WL-QLMS is
    # plain real LMS on a 4 x 4N matrix with step 4 alpha.
    config, _ = _load_filter_config("wl_qlms")
    config = config._replace(steps=2000)
    result = run_experiment(config)
    windows, desired = _signal_arrays(config.kind, _taps_array(config.taps),
                                      config.steps, config.snr_db, config.seed)
    matrix = [[0.0] * (4 * windows.shape[2])] * 4
    sq_error = []
    for x, d in zip(windows.reshape(config.steps, -1).tolist(), desired.tolist()):
        matrix, e = _oracle_real_lms_step(matrix, x, d, 4.0 * config.alpha)
        sq_error.append(Quaternion(*e).modulus_squared())
    assert result.mse_curve == tuple(sq_error)
