"""Quaternion adaptive filters derived from the GHR gradient.

Three variants share the same error-power objective |e(n)|^2:

* QLMS        strictly linear,  y = w^T x, update w += alpha e x*
* WL-QLMS     widely linear over the involution regressors x, x^i, x^j, x^k
              with Hermitian branch outputs h^H x + g^H x^i + u^H x^j + v^H x^k
* QNGD        nonlinear output y = Phi(w^T x); the update sums the four
              involution error terms e^mu weighted by the conjugate
              derivatives of Phi^(mu*)

The step directions are exactly the negative conjugate GHR gradients of the
objective (up to the constant absorbed into alpha), which the test suite
verifies numerically.

One recursion, ``_step``, updates (4, branches, taps) component arrays by
one window: ``run_experiment`` calls it once per step, and the per-sample
``*_step`` functions call it once on their converted QVector state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .derivatives import left_conj_from_partials, real_partials
from .quaternion import AXES, Quaternion, hamilton, involute
from .theorems import DivergenceError

DIVERGENCE_NORM = 1e6


class QVector:
    """Immutable vector of quaternions: filter taps, weights or a window."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = tuple(elements)

    @classmethod
    def zeros(cls, n: int) -> "QVector":
        return cls([Quaternion(0.0, 0.0, 0.0, 0.0)] * n)

    @classmethod
    def from_components(cls, rows) -> "QVector":
        return cls([Quaternion.from_components(row) for row in rows])

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, idx) -> Quaternion:
        return self.elements[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, QVector) and self.elements == other.elements

    def __repr__(self) -> str:
        return f"QVector({list(self.elements)!r})"


PhiFunction = Callable[[Quaternion], Quaternion]


@dataclass(frozen=True)
class FilterState:
    """State of one adaptive filter between samples.

    ``weights`` holds one vector for qlms/qngd and the four branch vectors
    (h, g, u, v) for wl_qlms.  ``nonlinearity`` only applies to qngd; when it
    is None the output stays linear and qngd degenerates to qlms exactly.
    """

    variant: str
    weights: tuple[QVector, ...]
    alpha: float
    nonlinearity: Optional[PhiFunction] = None
    iteration: int = 0


def qlms_state(taps: int, alpha: float) -> FilterState:
    return FilterState(variant="qlms", weights=(QVector.zeros(taps),), alpha=alpha)


def wl_qlms_state(taps: int, alpha: float) -> FilterState:
    return FilterState(variant="wl_qlms",
                       weights=tuple(QVector.zeros(taps) for _ in range(4)),
                       alpha=alpha)


def qngd_state(taps: int, alpha: float,
               nonlinearity: Optional[PhiFunction] = None) -> FilterState:
    return FilterState(variant="qngd", weights=(QVector.zeros(taps),), alpha=alpha,
                       nonlinearity=nonlinearity)


def _sample_step(variant: str, state: FilterState, x: QVector, d: Quaternion,
                 phi: Optional[PhiFunction] = None) -> tuple[FilterState, Quaternion]:
    """One-window call into _step: QVector weights and window in and out.

    _step picks the update from the branch count alone, so the state must be
    the variant's own: one weight vector for qlms and qngd, four for wl_qlms.
    """
    branches = 4 if variant == "wl_qlms" else 1
    if state.variant != variant or len(state.weights) != branches:
        raise ValueError(f"{variant} step needs a {variant} state with {branches} "
                         f"weight vector(s), got {state.variant!r} with "
                         f"{len(state.weights)}")
    weights = _taps_array(state.weights)
    if len(x) != weights.shape[2]:
        raise ValueError("regressor length does not match filter taps")
    with np.errstate(over="ignore", invalid="ignore"):
        new, e = _step(weights, _taps_array(x), np.array(d, dtype=float), state.alpha, phi)
    branches = tuple(QVector(Quaternion(*q) for q in branch)
                     for branch in new.transpose(1, 2, 0).tolist())
    return (replace(state, weights=branches, iteration=state.iteration + 1),
            Quaternion(*e.tolist()))


def qlms_step(state: FilterState, x: QVector,
              d: Quaternion) -> tuple[FilterState, Quaternion]:
    """One QLMS update; returns the new state and the a priori error."""
    return _sample_step("qlms", state, x, d)


def wl_qlms_step(state: FilterState, x: QVector,
                 d: Quaternion) -> tuple[FilterState, Quaternion]:
    """One widely linear QLMS update over the four involution branches."""
    return _sample_step("wl_qlms", state, x, d)


def qngd_step(state: FilterState, x: QVector,
              d: Quaternion) -> tuple[FilterState, Quaternion]:
    """One QNGD update; with no nonlinearity it is qlms_step's, bit for bit."""
    return _sample_step("qngd", state, x, d, state.nonlinearity)


def _phi_derivatives(phi: PhiFunction, s: Quaternion) -> tuple[Quaternion, ...]:
    """Conjugate derivatives of the four conjugate involutions of Phi at s.

    Returns (d Phi^(1*)/ds*, d Phi^(i*)/ds*, d Phi^(j*)/ds*, d Phi^(k*)/ds*).
    Phi^(mu*) only flips signs of Phi's components, and a central difference
    commutes exactly with a sign flip, so one set of real partials of Phi
    (eight evaluations) serves all four, bit for bit.
    """
    parts = real_partials(phi, s)
    return tuple(left_conj_from_partials([involute(p, mu).conjugate() for p in parts])
                 for mu in AXES)


def phi_tanh(s: Quaternion) -> Quaternion:
    """Componentwise tanh, the usual bounded quaternion activation."""
    return Quaternion(math.tanh(s.a), math.tanh(s.b), math.tanh(s.c), math.tanh(s.d))


NONLINEARITIES: dict[str, PhiFunction] = {"tanh": phi_tanh}

SIGNAL_KINDS = ("white_circular", "ar1", "fir_channel")

AR1_COEFF = 0.5
AR1_BURN_IN = 100

Taps = Union[QVector, Sequence[QVector]]

VARIANTS = ("qlms", "wl_qlms", "qngd")

# The array engine keeps quaternion components on axis 0: weights are
# (4, branches, taps), a block of m regressor windows is (4, m, taps).
# Component signs of the conjugate, and of q, q^i, q^j, q^k (one column per
# widely linear branch); multiplying by -1.0 is exact negation.
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
_INVOLUTIONS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0],
                         [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])

# Steps per block.  Clean outputs and the error curves are computed a block
# at a time, which bounds the temporaries (the clean-output product terms
# are (4, 4, branches, block, taps)) instead of spanning the whole stream.
_BLOCK = 256


def _taps_array(taps: Taps) -> np.ndarray:
    """Ground-truth taps as a (4, branches, taps) array, one or four branches."""
    vectors = (taps,) if isinstance(taps, QVector) else tuple(taps)
    if len(vectors) not in (1, 4) or len({len(vec) for vec in vectors}) != 1:
        raise ValueError("taps must be one vector or four branch vectors of equal length")
    return np.array([[tuple(q) for q in vec] for vec in vectors]).transpose(2, 0, 1)


def _modulus_squared(comps: np.ndarray) -> np.ndarray:
    """Quaternion.modulus_squared over the components on axis 0."""
    squares = comps * comps
    return squares[0] + squares[1] + squares[2] + squares[3]


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right from zero as the scalar loops add.

    accumulate adds strictly in order.  Starting from x0 rather than 0.0 + x0
    can only change the sign of a zero total, which the final + 0.0 undoes.
    """
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


def _outputs(weights: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Outputs (4, m) of (4, branches, taps) weights over (4, m, taps) windows.

    One branch is the strictly linear w^T x; four are the widely linear
    h^H x + g^H x^i + u^H x^j + v^H x^k, added in that order.
    """
    if weights.shape[1] == 1:
        return _ordered_sum(hamilton(weights, windows))
    conj = weights * _CONJ[:, None, None]
    regressors = windows[:, None] * _INVOLUTIONS[:, :, None, None]
    per_branch = _ordered_sum(hamilton(conj[:, :, None], regressors))
    return per_branch[:, 0] + per_branch[:, 1] + per_branch[:, 2] + per_branch[:, 3]


def _step(weights: np.ndarray, x: np.ndarray, d: np.ndarray, alpha: float,
          phi: Optional[PhiFunction] = None) -> tuple[np.ndarray, np.ndarray]:
    """New (4, branches, taps) weights and a priori error (4,) for one window.

    Four branches run WL-QLMS, h^mu += alpha x^mu e*.  One branch runs QLMS,
    w += alpha e x*, or QNGD if phi is given: e becomes the effective error,
    the sum over mu of e^mu * d Phi^(mu*)/ds*.
    """
    if weights.shape[1] == 4:
        e = d - _outputs(weights, x)[:, 0]
        move = hamilton(x * _INVOLUTIONS[:, :, None], (e * _CONJ)[:, None, None])
    else:
        s = _outputs(weights, x)[:, 0]
        if phi is None:
            e = e_eff = d - s
        else:
            s = Quaternion(*s.tolist())
            err = Quaternion(*d.tolist()) - phi(s)
            e_eff = Quaternion(0.0, 0.0, 0.0, 0.0)
            for mu, gamma in zip(AXES, _phi_derivatives(phi, s)):
                e_eff = e_eff + involute(err, mu) * gamma
            e, e_eff = np.array(err), np.array(e_eff)
        move = hamilton(e_eff[:, None, None], x * _CONJ[:, None, None])
    return weights + move * alpha, e


def _signal_arrays(kind: str, truth: np.ndarray, n: int, snr_db: float,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 4, taps) regressor windows and (n, 4) desired outputs."""
    if kind not in SIGNAL_KINDS:
        raise ValueError(f"unknown signal kind {kind!r}")
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number of dB or +inf, got {snr_db!r}")
    if not np.isfinite(truth).all():
        raise ValueError("taps must be finite")
    taps_len = truth.shape[2]
    if n <= taps_len:
        raise ValueError("stream length must exceed the tap count")
    root = np.random.SeedSequence(seed)
    sample_ss, noise_ss = root.spawn(2)
    sample_rng = np.random.Generator(np.random.Philox(sample_ss))
    noise_rng = np.random.Generator(np.random.Philox(noise_ss))

    total = n + taps_len - 1
    if kind == "ar1":
        raw = sample_rng.normal(size=(total + AR1_BURN_IN, 4))
        drive = math.sqrt(1.0 - AR1_COEFF ** 2)
        colored = np.empty_like(raw)
        colored[0] = raw[0]
        for t in range(1, len(raw)):
            colored[t] = AR1_COEFF * colored[t - 1] + drive * raw[t]
        raw = colored[AR1_BURN_IN:]
    else:
        raw = sample_rng.normal(size=(total, 4))

    # Window t holds the samples t + taps - 1 down to t, newest first.
    windows = np.empty((n, 4, taps_len))
    for m in range(taps_len):
        windows[:, :, m] = raw[taps_len - 1 - m:taps_len - 1 - m + n]
    with np.errstate(over="ignore", invalid="ignore"):
        clean = np.empty((n, 4))
        for lo in range(0, n, _BLOCK):
            block = windows[lo:lo + _BLOCK].transpose(1, 0, 2)
            clean[lo:lo + _BLOCK] = _outputs(truth, block).T
        desired = clean
        if not math.isinf(snr_db):
            signal_power = sum(_modulus_squared(clean.T).tolist()) / n
            try:
                noise_power = signal_power * 10.0 ** (-snr_db / 10.0)
            except OverflowError:
                noise_power = math.inf
            sigma = math.sqrt(noise_power / 4.0)
            noise = noise_rng.normal(scale=sigma, size=(n, 4)) if sigma > 0.0 else 0.0
            desired = clean + noise
    if not np.isfinite(desired).all():
        raise ValueError("desired signal is not finite: taps or noise level too large")
    return windows, desired


def generate_signal(kind: str, taps: Taps, n: int, snr_db: float,
                    seed: int) -> list[tuple[QVector, Quaternion]]:
    """Deterministic (regressor window, desired output) stream.

    The raw input is circular white Gaussian with unit-variance components;
    ``ar1`` colors it with a unit-variance AR(1) recursion instead.  The
    desired output pushes the input through the ground-truth taps (a single
    vector for a strictly linear channel, four vectors for a widely linear
    one) and adds white quaternion noise scaled to the requested SNR, with
    powers measured as mean squared modulus.  ``white_circular`` and
    ``fir_channel`` name the same experiment from either end; they produce
    identical streams.
    """
    windows, desired = _signal_arrays(kind, _taps_array(taps), n, snr_db, seed)
    return [(QVector(Quaternion(*x) for x in window.T.tolist()), Quaternion(*d))
            for window, d in zip(windows, desired.tolist())]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one adaptation run."""

    variant: str
    taps: Taps
    alpha: float
    steps: int
    snr_db: float
    seed: int
    kind: str = "fir_channel"
    nonlinearity: Optional[str] = None


@dataclass(frozen=True)
class ExperimentResult:
    mse_curve: tuple[float, ...]
    weight_error_curve: tuple[float, ...]
    final_weight_error: float
    steps: int
    seed: int


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Stream a generated signal through the chosen filter and record errors.

    The weight error is the relative distance between the adapted weights
    and the ground truth.  A strictly linear channel d = sum taps_m x_m seen
    by the widely linear filter is reproduced by the Hermitian branch with
    h = taps*, so that is the reference the four-branch weights are held
    against.

    Each step is one call of _step, the kernel the per-sample *_step
    functions share.  It reproduces the scalar Quaternion recursions (the
    test suite's oracle) bit for bit: products are elementwise, and every
    sum keeps the scalar order.
    """
    if config.variant not in VARIANTS:
        raise ValueError(f"unknown filter variant {config.variant!r}")
    if config.nonlinearity not in (None, *NONLINEARITIES):
        raise ValueError(f"unknown nonlinearity {config.nonlinearity!r}")
    if not (math.isfinite(config.alpha) and config.alpha >= 0.0):
        raise ValueError(f"alpha must be finite and non-negative, got {config.alpha!r}")
    if not isinstance(config.steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {config.steps!r}")
    truth = _taps_array(config.taps)
    windows, desired = _signal_arrays(config.kind, truth, config.steps,
                                      config.snr_db, config.seed)
    reference = truth[:, :1]
    if config.variant == "wl_qlms":
        reference = truth if truth.shape[1] == 4 else np.concatenate(
            [truth * _CONJ[:, None, None], np.zeros((4, 3, truth.shape[2]))], axis=1)
    weights = np.zeros(reference.shape)
    phi = NONLINEARITIES.get(config.nonlinearity) if config.variant == "qngd" else None

    alpha = config.alpha
    mse = []
    weight_errors = []
    errors = np.empty((_BLOCK, 4))
    history = np.empty((_BLOCK,) + weights.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = float(_ordered_sum(_modulus_squared(reference).ravel()))
        for start in range(0, config.steps, _BLOCK):
            count = min(_BLOCK, config.steps - start)
            for slot in range(count):
                weights, e = _step(weights, windows[start + slot][:, None],
                                   desired[start + slot], alpha, phi)
                errors[slot] = e
                history[slot] = weights
                total_norm = sum(sum(branch) for branch in _modulus_squared(weights).tolist())
                if not math.isfinite(total_norm) or total_norm > DIVERGENCE_NORM ** 2:
                    raise DivergenceError(f"filter diverged at step {start + slot}")
            mse.extend(_modulus_squared(errors[:count].T).tolist())
            err = _ordered_sum(_modulus_squared(
                (history[:count] - reference).swapaxes(0, 1)).reshape(count, -1))
            weight_errors.extend(np.sqrt(err / ref if ref > 0.0 else err).tolist())
    return ExperimentResult(mse_curve=tuple(mse),
                            weight_error_curve=tuple(weight_errors),
                            final_weight_error=weight_errors[-1],
                            steps=config.steps, seed=config.seed)
