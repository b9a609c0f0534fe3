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

One recursion, ``_advance``, updates (4, branches, taps) component arrays
by one window.  A step's two Hamilton products (the output and the move)
take their regressor-side factors ready made: for each block of ``_BLOCK``
windows ``run_experiment`` gathers them in one array pass, so a step is an
elementwise product and the scalar recursion's sums in its order.  The
per-sample ``*_step`` functions go through ``_step``, which gathers the
factors of its one window.  QNGD's Phi path runs on arrays too: Phi's eight
stencil values come from one call of Phi on a QArray, and the four
conjugate-involution derivatives and the effective error from precomputed
gathers and sign patterns.  Every variant is checked for divergence once
per block, at its first bad step.  Outside the engine a quaternion vector
(taps, one weight branch, a regressor window) is a plain tuple of
Quaternions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import derivatives
from .derivatives import DEFAULT_H, EvaluationError, takes_arrays
from .quaternion import (_MUL_INDEX, _MUL_SIGN, _SIGNED_INDEX, ZERO, I, J, K, QArray,
                         Quaternion, _add_terms, _by_floats)
from .theorems import DivergenceError

DIVERGENCE_NORM = 1e6


# Phi maps a Quaternion, and a QArray element by element (takes_arrays):
# QNGD evaluates it on arrays.
PhiFunction = Callable[[Quaternion], Quaternion]


@dataclass(frozen=True)
class FilterState:
    """State of one adaptive filter between samples.

    ``weights`` holds one vector for qlms/qngd and the four branch vectors
    (h, g, u, v) for wl_qlms.  ``nonlinearity`` only applies to qngd; when it
    is None the output stays linear and qngd degenerates to qlms exactly.
    """

    variant: str
    weights: tuple[tuple[Quaternion, ...], ...]
    alpha: float
    nonlinearity: Optional[PhiFunction] = None
    iteration: int = 0


def qlms_state(taps: int, alpha: float) -> FilterState:
    return FilterState(variant="qlms", weights=((ZERO,) * taps,), alpha=alpha)


def wl_qlms_state(taps: int, alpha: float) -> FilterState:
    return FilterState(variant="wl_qlms", weights=((ZERO,) * taps,) * 4, alpha=alpha)


def qngd_state(taps: int, alpha: float,
               nonlinearity: Optional[PhiFunction] = None) -> FilterState:
    return FilterState(variant="qngd", weights=((ZERO,) * taps,), alpha=alpha,
                       nonlinearity=nonlinearity)


def _sample_step(variant: str, state: FilterState, x: Sequence[Quaternion], d: Quaternion,
                 phi: Optional[PhiFunction] = None) -> tuple[FilterState, Quaternion]:
    """One-window call into _step: tuples of Quaternions in and out.

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
    branches = tuple(tuple(Quaternion(*q) for q in branch)
                     for branch in new.transpose(1, 2, 0).tolist())
    return (replace(state, weights=branches, iteration=state.iteration + 1),
            Quaternion(*e.tolist()))


def qlms_step(state: FilterState, x: Sequence[Quaternion],
              d: Quaternion) -> tuple[FilterState, Quaternion]:
    """One QLMS update; returns the new state and the a priori error."""
    return _sample_step("qlms", state, x, d)


def wl_qlms_step(state: FilterState, x: Sequence[Quaternion],
                 d: Quaternion) -> tuple[FilterState, Quaternion]:
    """One widely linear QLMS update over the four involution branches."""
    return _sample_step("wl_qlms", state, x, d)


def qngd_step(state: FilterState, x: Sequence[Quaternion],
              d: Quaternion) -> tuple[FilterState, Quaternion]:
    """One QNGD update; with no nonlinearity it is qlms_step's, bit for bit."""
    return _sample_step("qngd", state, x, d, state.nonlinearity)


def _phi_derivatives(phi: PhiFunction, s: np.ndarray) -> np.ndarray:
    """Conjugate derivatives of the four conjugate involutions of Phi at s.

    Column mu of the (4, 4) result holds d Phi^(mu*)/ds* for mu in 1, i, j, k.
    Phi^(mu*) only flips signs of Phi's components, and a central difference
    commutes exactly with a sign flip, so one set of real partials of Phi
    (eight evaluations, in one call of phi) serves all four, bit for bit.
    Each is projected as derivatives.left_hr projects d f/dq*:
    (f_a + (f_b i + f_c j + f_d k)) / 4, with every term of the three unit
    products kept, zeros too: an infinite partial times zero is NaN there.
    """
    values = derivatives._evaluate_stencil(phi, derivatives._stencil_array(s, DEFAULT_H), 1)
    partials = (values[:, :, 0] - values[:, :, 1]) * _INV_2H  # [component, axis]
    terms = partials.take(_UNIT_INDEX) * _UNIT_FACTORS
    mixed = _add_terms(*terms)  # [e, r, mu] for e in b, c, d
    return (partials[:, :1] * _PHI_SIGNS + (mixed[0] + mixed[1] + mixed[2])) * 0.25


def _effective_error(phi: PhiFunction, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The sum over mu of e^mu * d Phi^(mu*)/ds*, added from zero in the
    order 1, i, j, k, each product in hamilton's order."""
    terms = _phi_derivatives(phi, s).take(_EFFECTIVE_INDEX) * _EFFECTIVE_SIGNS
    terms *= e[:, None, None]
    return _ordered_sum(_add_terms(*terms))  # products [r, mu]


@takes_arrays
def phi_tanh(s):
    """Componentwise tanh, the usual bounded quaternion activation.

    s may be a Quaternion or a QArray.  math.tanh runs on every component as
    a Python float either way, through quaternion._by_floats: numpy's
    vectorised tanh may differ from it in the last ulp.
    """
    if isinstance(s, QArray):
        return QArray(_by_floats(math.tanh, s.c))
    return Quaternion(*map(math.tanh, s))


NONLINEARITIES: dict[str, PhiFunction] = {"tanh": phi_tanh}

SIGNAL_KINDS = ("white_circular", "ar1", "fir_channel")

AR1_COEFF = 0.5
AR1_BURN_IN = 100

Taps = Sequence  # one vector of Quaternions or [a, b, c, d] rows, or four such vectors

VARIANTS = ("qlms", "wl_qlms", "qngd")

# The array engine keeps quaternion components on axis 0: weights are
# (4, branches, taps), a block of m regressor windows is (m, 4, taps).
# Component signs of the conjugate, and of q, q^i, q^j, q^k (one column per
# widely linear branch); multiplying by -1.0 is exact negation.
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
_INVOLUTIONS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0],
                         [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])

# A step makes two Hamilton products: the output (w^T x, or the Hermitian
# branch outputs (w^mu)* x^mu) and the move (e x*, or x^mu e*).  Their
# regressor-side factor is hamilton's gather of x, indexed [term k,
# component r, branch], with every +/-1 factor (_MUL_SIGN, the conjugate,
# the branch involution) folded in.  Multiplying by +/-1 is exact, so
# w[k] * factor[k, r] added over k in order is hamilton's product bit for
# bit.  A factor is gathered from the components of x and -x stacked, so an
# index c + 4 picks -x[c], as in hamilton, whose _SIGNED_INDEX is the
# one-branch output factor.
_K = np.repeat(np.arange(4)[:, None], 4, axis=1)  # [k, r] -> k
_MOVE_SIGNS = _MUL_SIGN * _CONJ[_MUL_INDEX]


class _Factors(NamedTuple):
    out: np.ndarray    # [k, r, branch] index of the output factor: w^T x or (w^mu)* x^mu
    move: np.ndarray   # [k, r, branch] index of the move factor: x* (after e) or x^mu
    # The component of e each move term [k, r] takes (the conjugate's signs
    # are in the move factor): e[k] for one branch, a broadcast view, and
    # e[_MUL_INDEX[k, r]] for four, a gather.
    error: object


def _signed(index: np.ndarray, signs: np.ndarray) -> np.ndarray:
    return index + 4 * (signs < 0.0)


_FACTORS = {
    1: _Factors(_SIGNED_INDEX[:, :, None],
                _signed(_MUL_INDEX[:, :, None], _MOVE_SIGNS[:, :, None]),
                np.s_[:, None, None, None]),
    4: _Factors(_signed(_MUL_INDEX[:, :, None], _MUL_SIGN[:, :, None]
                        * _CONJ[:, None, None] * _INVOLUTIONS[_MUL_INDEX]),
                _signed(_K[:, :, None], _MOVE_SIGNS[:, :, None] * _INVOLUTIONS[:, None]),
                _MUL_INDEX[:, :, None, None]),
}

# The four conjugate-involution sign patterns of Phi's components, one
# column per mu.
_PHI_SIGNS = _CONJ[:, None] * _INVOLUTIONS

# Steps per block.  Clean outputs, step factors and the error curves are
# computed a block at a time, which bounds the temporaries (a block's output
# and move factors are (block, 4, 4, branches, taps) each) instead of
# spanning the whole stream.
_BLOCK = 128


def _taps_array(taps: Taps) -> np.ndarray:
    """Taps as a (4, branches, taps) array: a (taps, 4) vector is one branch."""
    try:
        array = np.asarray(taps)  # raises on ragged taps
    except (TypeError, ValueError):
        array = np.empty(0)
    # float() would take the strings "0.5" or "nan"; JSON gives numbers.
    array = array.astype(float) if array.dtype.kind in "iuf" else np.empty(0)
    if array.ndim == 2:
        array = array[None]
    if array.ndim != 3 or array.shape[0] not in (1, 4) or array.shape[2] != 4 or not array.size:
        raise ValueError("taps must be one non-empty vector of [a, b, c, d] quaternions "
                         "or four branches of vectors of equal length")
    return array.transpose(2, 0, 1)


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right from zero as the scalar loops add.

    accumulate adds strictly in order.  Starting from x0 rather than 0.0 + x0
    can only change the sign of a zero total, which the final + 0.0 undoes.
    """
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


def _factors(windows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Factors (m, 4, 4, branches, taps) of (m, 4, taps) windows: element
    [k, r, branch] is x[c] for index[k, r, branch] == c, and -x[c] for c + 4."""
    return np.concatenate([windows, -windows], axis=1).take(index, axis=1)


# The units i, j, k as right factors of a one-branch output, (4, 4, 1, 3):
# f_e * unit_e for e in b, c, d is hamilton's product of a partial and a unit.
_IJK = _factors(np.array([I, J, K]).T[None], _FACTORS[1].out)[0]
# Projection terms [k, e, r, mu] for e in b, c, d: the partial f_e[k], at
# _UNIT_INDEX in the (4, 4) [component, axis] partials, times _IJK with the
# sign patterns of the four Phi^(mu*) folded in.  (+/-f) u equals f (+/-u)
# exactly, zeros and infinities included.
_UNIT_INDEX = np.broadcast_to(np.arange(4)[:, None, None, None] * 4
                              + np.arange(1, 4)[:, None, None], (4, 3, 4, 4))
_UNIT_FACTORS = _IJK.transpose(0, 3, 1, 2) * _PHI_SIGNS[:, None, None]
_INV_2H = derivatives._STEPS[DEFAULT_H][1]

# QNGD's effective error as hamilton(e^mu, d Phi^(mu*)/ds*) for each mu:
# term [k, r, mu] takes the derivative's component _MUL_INDEX[k, r] in column
# mu, and e[k] with the signs of the product and of the involution.
_EFFECTIVE_INDEX = _MUL_INDEX[:, :, None] * 4 + np.arange(4)
_EFFECTIVE_SIGNS = _MUL_SIGN[:, :, None] * _INVOLUTIONS[:, None]


def _outputs(sums: np.ndarray) -> np.ndarray:
    """Outputs (..., 4) from the Hamilton sums (..., 4, branches, taps) of
    the output product.

    One branch is the strictly linear w^T x; four are the widely linear
    h^H x + g^H x^i + u^H x^j + v^H x^k.  Taps, then branches are added in
    the scalar order.  Each scalar sum starts from 0.0 and so never ends at
    -0.0; accumulate starts from the first term instead, which can only turn
    a zero sum into -0.0.  Such a sum changes no later sum but in the sign of
    a zero, so one + 0.0 after the last sum serves every level.
    """
    taps = np.add.accumulate(sums, axis=-1)[..., -1]
    if taps.shape[-1] == 1:
        return taps[..., 0] + 0.0
    return _ordered_sum(taps)


class _Scratch:
    """Work arrays of _advance for (4, branches, taps) weights, made once per
    run: the (4, 4, branches, taps) Hamilton terms [k, r] of a step's
    products, their views by term k, and their (4, branches, taps) sum."""

    def __init__(self, shape: tuple[int, ...]):
        self.terms = np.empty((4,) + shape)
        self.by_term = tuple(self.terms)
        self.sum = np.empty(shape)

    def term_sum(self) -> np.ndarray:
        return _add_terms(*self.by_term, self.sum)


def _advance(weights: np.ndarray, out: np.ndarray, move: np.ndarray, d: np.ndarray,
             alpha: float, phi: Optional[PhiFunction], new: np.ndarray,
             scratch: _Scratch) -> np.ndarray:
    """Write the weights after one window to ``new`` and return the a priori
    error (4,).

    ``weights`` and ``new`` are (4, branches, taps).  The window comes as its
    (4, 4, branches, taps) output and move factors.  Four branches run
    WL-QLMS, h^mu += alpha x^mu e*.  One branch runs QLMS, w += alpha e x*,
    or QNGD if phi is given: e becomes the effective error, the sum over mu
    of e^mu * d Phi^(mu*)/ds*.
    """
    np.multiply(out, weights[:, None], scratch.terms)
    s = _outputs(scratch.term_sum())
    if phi is None:
        e = e_eff = d - s
    else:
        e = d - phi(QArray(s)).c
        e_eff = _effective_error(phi, s, e)
    np.multiply(move, e_eff[_FACTORS[weights.shape[1]].error], scratch.terms)
    step = scratch.term_sum()
    step *= alpha
    np.add(weights, step, new)
    return e


def _step(weights: np.ndarray, x: np.ndarray, d: np.ndarray, alpha: float,
          phi: Optional[PhiFunction] = None) -> tuple[np.ndarray, np.ndarray]:
    """_advance on one (4, 1, taps) window: the new weights and the error."""
    window = x.transpose(1, 0, 2)
    factors = _FACTORS[weights.shape[1]]
    new = np.empty_like(weights)
    e = _advance(weights, _factors(window, factors.out)[0], _factors(window, factors.move)[0],
                 d, alpha, phi, new, _Scratch(weights.shape))
    return new, e


def _bounded(weights: np.ndarray) -> np.ndarray:
    """Whether (4, ..., branches, taps) weights have a squared norm of at most
    DIVERGENCE_NORM ** 2, added over taps, then branches, as the scalar loops
    add it.  A NaN norm fails the comparison too."""
    norms = _ordered_sum(_ordered_sum(QArray(weights).modulus_squared()))
    return norms <= DIVERGENCE_NORM ** 2


def _check_bounded(history: np.ndarray, start: int) -> None:
    """Raise the DivergenceError of the first unbounded weights in a block's
    history, whose first step is ``start``."""
    bad = np.flatnonzero(~_bounded(history.swapaxes(0, 1)))
    if bad.size:
        raise DivergenceError(f"filter diverged at step {start + bad[0]}")


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
            out = _factors(windows[lo:lo + _BLOCK], _FACTORS[truth.shape[1]].out)
            clean[lo:lo + _BLOCK] = _outputs(_add_terms(*(truth[:, None] * out).swapaxes(0, 1)))
        desired = clean
        if not math.isinf(snr_db):
            signal_power = sum(QArray(clean.T).modulus_squared().tolist()) / n
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
                    seed: int) -> list[tuple[tuple[Quaternion, ...], Quaternion]]:
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
    return [(tuple(Quaternion(*x) for x in window.T.tolist()), Quaternion(*d))
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
    and the ground truth.  The widely linear branch outputs are Hermitian,
    h^H x = sum h_m* x_m, so the two filter shapes meet a channel of the
    other shape through a conjugate: a strictly linear channel
    d = sum taps_m x_m is reproduced by the four-branch filter with h = taps*
    (and g = u = v = 0), and the strictly linear part h^H x of a widely
    linear channel by the one-branch filter with w = h*.  Those are the
    references the weights are held against.

    Each block's output and move factors are gathered once, and each step
    is one call of _advance, the kernel the per-sample *_step functions
    share.  It reproduces the scalar Quaternion recursions (the test suite's
    oracle) bit for bit: products are elementwise, factors of +/-1 are
    exact, and every sum keeps the scalar order.
    """
    if config.variant not in VARIANTS:
        raise ValueError(f"unknown filter variant {config.variant!r}")
    if config.nonlinearity not in (None, *NONLINEARITIES):
        raise ValueError(f"unknown nonlinearity {config.nonlinearity!r}")
    if config.nonlinearity is not None and config.variant != "qngd":
        raise ValueError(f"nonlinearity applies to qngd only, not {config.variant}")
    if not (math.isfinite(config.alpha) and config.alpha >= 0.0):
        raise ValueError(f"alpha must be finite and non-negative, got {config.alpha!r}")
    if not isinstance(config.steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {config.steps!r}")
    truth = _taps_array(config.taps)
    windows, desired = _signal_arrays(config.kind, truth, config.steps,
                                      config.snr_db, config.seed)
    reference = truth
    if config.variant == "wl_qlms" and truth.shape[1] == 1:
        reference = np.concatenate(
            [truth * _CONJ[:, None, None], np.zeros((4, 3, truth.shape[2]))], axis=1)
    elif config.variant != "wl_qlms" and truth.shape[1] == 4:
        reference = truth[:, :1] * _CONJ[:, None, None]
    weights = np.zeros(reference.shape)
    phi = NONLINEARITIES.get(config.nonlinearity)

    alpha = config.alpha
    factors = _FACTORS[weights.shape[1]]
    mse = []
    weight_errors = []
    errors = np.empty((_BLOCK, 4))
    history = np.empty((_BLOCK,) + weights.shape)
    scratch = _Scratch(weights.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = float(_ordered_sum(QArray(reference).modulus_squared().ravel()))
        for start in range(0, config.steps, _BLOCK):
            count = min(_BLOCK, config.steps - start)
            block = windows[start:start + count]
            out, move = _factors(block, factors.out), _factors(block, factors.move)
            steps = zip(out, move, desired[start:start + count], history)
            slot = 0
            try:
                for slot, (step_out, step_move, d, new) in enumerate(steps):
                    errors[slot] = _advance(weights, step_out, step_move, d, alpha, phi, new,
                                            scratch)
                    weights = new
            except EvaluationError:
                # The Phi partials of a diverged QNGD filter are not finite.
                # The scalar loop, checking every step, reports an earlier
                # unbounded step first.
                _check_bounded(history[:slot], start)
                raise
            _check_bounded(history[:count], start)
            mse.extend(QArray(errors[:count].T).modulus_squared().tolist())
            err = _ordered_sum(QArray((history[:count] - reference).swapaxes(0, 1))
                               .modulus_squared().reshape(count, -1))
            weight_errors.extend(np.sqrt(err / ref if ref > 0.0 else err).tolist())
    return ExperimentResult(mse_curve=tuple(mse),
                            weight_error_curve=tuple(weight_errors),
                            final_weight_error=weight_errors[-1],
                            steps=config.steps, seed=config.seed)
