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

QLMS and QNGD run on (4, taps) component arrays.  A step's output w^T x
and move e x* share one regressor-side factor X, gathered for a block of
``_BLOCK`` windows in one array pass: the move, the conjugate gradient of
|e|^2, is X^T e.  So a step is elementwise products and the scalar
Quaternion recursion's sums in its order, which QLMS reproduces bit for
bit.  |e|^2 is real, so QNGD's GHR sum over mu is the real chain rule's
J^T e, with Phi(s) and J from derivatives.value_and_jacobian: bit for bit
a scalar J^T e loop, and the GHR recursion within rounding.

WL-QLMS runs as the real LMS it is (Via, Ramirez & Santamaria 2010; Took &
Mandic 2010): summed over the four involutions, its conjugate gradient step
is M += 4 alpha e x^T on the (4, 4 taps) matrix M of the real-linear map
from a window's components to the output.  Its ordered sums reproduce a
plain real LMS loop bit for bit, and the quaternion recursion within
rounding.  The branch vectors map to M through a fixed A of +/-1 entries
with A^T A = 4 I, and back through A^T / 4.

A stream's samples and noise come from sampling.make_rng's substreams 0
and 1, and the kernels' gather and sign patterns from quaternion.  A
config value is checked where it is read: alpha by run_experiment, snr_db
and steps by _signal_arrays (so generate_signal too), seed by make_rng.

The per-sample ``*_step`` functions run the same kernels on one window.
Outside the engine a quaternion vector (taps, one weight branch, a
regressor window) is a plain tuple of Quaternions.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import derivatives
from .derivatives import EvaluationError, takes_arrays
from .quaternion import (_MUL_INDEX, _MUL_SIGN, AXES, ZERO, QArray, Quaternion, _add_terms,
                         _by_floats, _signed, integer, involute, ordered_sum, real_number)
from .sampling import make_rng
from .theorems import DivergenceError

DIVERGENCE_NORM = 1e6


# Phi maps a Quaternion, and a QArray element by element (takes_arrays):
# QNGD evaluates it on arrays.
PhiFunction = Callable[[Quaternion], Quaternion]


class FilterState(NamedTuple):
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
    if phi is not None and not derivatives.has_array_form(phi):
        raise ValueError("qngd needs a nonlinearity with an array form: mark Phi "
                         "with derivatives.takes_arrays")
    weights = _taps_array(state.weights)
    if len(x) != weights.shape[2]:
        raise ValueError("regressor length does not match filter taps")
    with np.errstate(over="ignore", invalid="ignore"):
        new, e = _step(weights, _taps_array(x), np.array(d, dtype=float), state.alpha, phi)
    branches = tuple(tuple(Quaternion(*q) for q in branch)
                     for branch in new.transpose(1, 2, 0).tolist())
    return (state._replace(weights=branches, iteration=state.iteration + 1),
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

# The Hamilton engine keeps quaternion components on axis 0: weights are
# (4, taps), a block of m regressor windows is (m, 4, taps).  Component
# signs of the conjugate, and of q, q^i, q^j, q^k (one row per involution),
# as quaternion's conjugate and involute flip them; multiplying by -1.0 is
# exact negation.
_ONES = Quaternion(1.0, 1.0, 1.0, 1.0)
_CONJ = np.array(_ONES.conjugate())
_INVOLUTIONS = np.array([involute(_ONES, axis) for axis in AXES])

# A QLMS or QNGD step makes two Hamilton products: the output w^T x and the
# move e x*.  Their regressor-side factor X[k, r] is quaternion._signed on
# the windows' component axis, every +/-1 folded in exactly, so w[k] *
# X[k, r] added over k in order is hamilton's product bit for bit.
# X is the real matrix of w -> w^T x, and e x*, the conjugate gradient of
# |e|^2, is X^T e term by term: the move's factor is X with its first two
# axes swapped.

# WL-QLMS's matrix M holds, at [r, c * taps + m], the weight of component c
# of x_m in component r of the output.  Summed over the branches mu,
# (w^mu)* x^mu puts there component k = _MUL_INDEX[r, c] of w^mu_m, times
# _WL_SIGNS[mu, r, c]: hamilton's sign, the conjugate's and the involution's
# of x^mu.  _WL_BACK_SIGNS[r, k, mu] is the same sign where M's row r meets
# weight component k, at column c = _MUL_INDEX[r, k], for the map back.
_ROWS = np.arange(4)[:, None]
_WL_SIGNS = _MUL_SIGN[_MUL_INDEX, _ROWS] * _CONJ[_MUL_INDEX] * _INVOLUTIONS[:, None]
_WL_BACK_SIGNS = _WL_SIGNS[:, _ROWS, _MUL_INDEX].transpose(1, 2, 0)[..., None]

# Steps per block.  Clean outputs, step factors and the error curves are
# computed a block at a time, which bounds the temporaries (a block's
# factors are (block, 4, 4, taps) each) instead of spanning the stream.
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


def _wl_matrix(branches: np.ndarray) -> np.ndarray:
    """The (4, 4 taps) matrix M = A w of (4, 4, taps) branch weights: each
    entry a sum over the branches mu, in order.  The sign of a zero entry
    reaches no output, as every sum of M's products starts from zero."""
    terms = branches[_MUL_INDEX].transpose(2, 0, 1, 3) * _WL_SIGNS[..., None]
    return _add_terms(*terms).reshape(4, -1)


def _wl_branches(matrix: np.ndarray) -> np.ndarray:
    """The (4, 4, taps) branch weights A^T M / 4 of a (4, 4 taps) matrix:
    each a sum over M's rows, in order from zero, times 0.25."""
    gathered = matrix.reshape(4, 4, -1)[_ROWS, _MUL_INDEX]  # [r, k, tap]
    return ordered_sum(np.moveaxis(gathered[:, :, None] * _WL_BACK_SIGNS, 0, -1)) * 0.25


def _step(weights: np.ndarray, x: np.ndarray, d: np.ndarray, alpha: float,
          phi: Optional[PhiFunction] = None) -> tuple[np.ndarray, np.ndarray]:
    """One (4, 1, taps) window through the run's kernels: the new
    (4, branches, taps) weights and the error.  Four branches take the real
    LMS step on their matrix and are mapped back."""
    window, d = x.transpose(1, 0, 2), d[None]
    if weights.shape[1] == 4:
        new = np.empty((1, 4, x.size))
        e = next(_lms_steps(_wl_matrix(weights), window, d, 4.0 * alpha, new))
        return _wl_branches(new[0]), e
    new = np.empty((1, 4, x.shape[2]))
    e = next(_hamilton_steps(weights[:, 0], window, d, alpha, phi, new))
    return new[0][:, None], e


def _squared_norms(weights: np.ndarray) -> np.ndarray:
    """Squared norms of (m, 4, columns) weights: each column's a^2 + b^2 +
    c^2 + d^2 (a tap's squared modulus), added left to right."""
    return ordered_sum(QArray(weights.swapaxes(0, 1)).modulus_squared())


def _check_bounded(history: np.ndarray, limit: float, start: int) -> None:
    """Raise the DivergenceError of the first weights in a block's history
    (from step ``start``) whose squared norm is past ``limit`` or NaN."""
    bad = np.flatnonzero(~(_squared_norms(history) <= limit))
    if bad.size:
        raise DivergenceError(f"filter diverged at step {start + bad[0]}")


def _signal_arrays(kind: str, truth: np.ndarray, n: int, snr_db: float,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 4, taps) regressor windows and (n, 4) desired outputs."""
    if kind not in SIGNAL_KINDS:
        raise ValueError(f"unknown signal kind {kind!r}")
    snr_db = real_number("snr_db", snr_db)
    integer("steps", n)
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number of dB or +inf, got {snr_db!r}")
    if not np.isfinite(truth).all():
        raise ValueError("taps must be finite")
    taps_len = truth.shape[2]
    if n <= taps_len:
        raise ValueError("stream length must exceed the tap count")
    sample_rng, noise_rng = make_rng(seed, 0), make_rng(seed, 1)

    total = n + taps_len - 1
    if kind == "ar1":
        raw = sample_rng.normal(size=(total + AR1_BURN_IN, 4))
        # On Python floats, a component at a time: the bits of numpy rows.
        driven = (math.sqrt(1.0 - AR1_COEFF ** 2) * raw[1:]).T.tolist()
        colored = [list(itertools.accumulate(u, lambda c, u_t: AR1_COEFF * c + u_t,
                                             initial=first))
                   for first, u in zip(raw[0].tolist(), driven)]
        raw = np.array(colored).T[AR1_BURN_IN:]
    else:
        raw = sample_rng.normal(size=(total, 4))

    # Window t holds the samples t + taps - 1 down to t, newest first.
    windows = np.empty((n, 4, taps_len))
    for m in range(taps_len):
        windows[:, :, m] = raw[taps_len - 1 - m:taps_len - 1 - m + n]
    with np.errstate(over="ignore", invalid="ignore"):
        # A widely linear truth outputs through its real matrix, as WL-QLMS.
        matrix = _wl_matrix(truth) if truth.shape[1] == 4 else None
        clean = np.empty((n, 4))
        for lo in range(0, n, _BLOCK):
            block = windows[lo:lo + _BLOCK]
            if matrix is None:
                out = _signed(block, axis=1)
                terms = _add_terms(*(truth[:, 0, None] * out).swapaxes(0, 1))
            else:
                terms = matrix * block.reshape(len(block), 1, -1)
            clean[lo:lo + _BLOCK] = ordered_sum(terms)
        desired = clean
        if not math.isinf(snr_db):
            signal_power = float(ordered_sum(QArray(clean.T).modulus_squared())) / n
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


class ExperimentConfig(NamedTuple):
    """Everything needed to reproduce one adaptation run."""

    variant: str
    taps: Taps
    alpha: float
    steps: int
    snr_db: float
    seed: int
    kind: str = "fir_channel"
    nonlinearity: Optional[str] = None


class ExperimentResult(NamedTuple):
    mse_curve: tuple[float, ...]
    weight_error_curve: tuple[float, ...]
    final_weight_error: float
    steps: int


def _qngd_errors(phi: PhiFunction, s: np.ndarray,
                 d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QNGD's error e = d - Phi(s) and effective error at output s, from
    one call of phi on s and the stencil of real_partials.

    By the GHR chain rule the effective error, the sum over mu of
    e^mu d Phi^(mu*)/ds*, is the conjugate gradient of |e|^2 pushed back
    through Phi; |e|^2 is real, so it is J^T e: component r is
    <d Phi/ds_r, e>, the products J[c, r] e[c] added in order from zero.
    """
    value, jacobian = derivatives.value_and_jacobian(phi, s)
    e = d - value
    return e, ordered_sum(jacobian.T * e)


def _hamilton_steps(weights: np.ndarray, windows: np.ndarray, desired: np.ndarray,
                    alpha: float, phi: Optional[PhiFunction],
                    history: np.ndarray) -> Iterator[np.ndarray]:
    """QLMS from (4, taps) ``weights``: each step's a priori error e in
    turn, with w + alpha e x* written to history[t % _BLOCK] after step t.
    ``terms`` holds a product's terms [term, component]: w[k] X[k, r] for
    the output, e[r] X[k, r] for the move X^T e.

    With phi it is QNGD, whose move takes _qngd_errors' effective error
    in place of e = d - Phi(s)."""
    terms = np.empty((4, 4) + weights.shape[1:])
    by_term, total = tuple(terms), np.empty(weights.shape)
    for lo in range(0, len(windows), _BLOCK):
        factors = _signed(windows[lo:lo + _BLOCK], axis=1)
        for out, move, d, new in zip(factors, factors.swapaxes(1, 2), desired[lo:lo + _BLOCK],
                                     history):
            np.multiply(out, weights[:, None], terms)
            s = ordered_sum(_add_terms(*by_term, total))
            if phi is None:
                e = e_eff = d - s
            else:
                e, e_eff = _qngd_errors(phi, s, d)
            np.multiply(move, e_eff[:, None, None], terms)
            step = _add_terms(*by_term, total)
            step *= alpha
            np.add(weights, step, new)
            yield e
            weights = new


def _lms_steps(matrix: np.ndarray, windows: np.ndarray, desired: np.ndarray,
               step: float, history: np.ndarray) -> Iterator[np.ndarray]:
    """WL-QLMS from its (4, 4 taps) ``matrix``: each step's a priori error
    e = d - M x in turn, with M + (step e) x^T (step = 4 alpha) written to
    history[t % _BLOCK] after step t.  x is a window's components,
    component-major.  Column 0 of ``terms`` stays 0.0 ahead of the products
    M * x, so each row's accumulate adds from zero, as a scalar loop adds."""
    terms = np.zeros((4, matrix.shape[1] + 1))
    products, sums, scaled = terms[:, 1:], np.empty_like(terms), np.empty((4, 1))
    outputs, scaled_e = sums[:, -1], scaled[:, 0]
    for x, d, new in zip(windows.reshape(len(windows), -1), desired, itertools.cycle(history)):
        np.multiply(matrix, x, products)
        np.add.accumulate(terms, axis=1, out=sums)
        e = d - outputs
        np.multiply(e, step, scaled_e)
        np.multiply(scaled, x, new)
        new += matrix
        yield e
        matrix = new


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

    Every step is checked for divergence once per block, and the first
    unbounded one is reported.  WL-QLMS's matrix is held against A applied
    to the branch reference: with A^T A = 4 I, its relative error is that
    of the branch weights, and it diverges where |M|^2 passes
    4 DIVERGENCE_NORM^2.

    QNGD moves along J^T e from one call of Phi per step: its curves are a
    scalar J^T e loop's bit for bit, the GHR recursion's within rounding.
    """
    if config.variant not in VARIANTS:
        raise ValueError(f"unknown filter variant {config.variant!r}")
    if config.nonlinearity not in (None, *NONLINEARITIES):
        raise ValueError(f"unknown nonlinearity {config.nonlinearity!r}")
    if config.nonlinearity is not None and config.variant != "qngd":
        raise ValueError(f"nonlinearity applies to qngd only, not {config.variant}")
    alpha = real_number("alpha", config.alpha)
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and non-negative, got {config.alpha!r}")
    truth = _taps_array(config.taps)
    windows, desired = _signal_arrays(config.kind, truth, config.steps,
                                      config.snr_db, config.seed)
    if config.variant != "wl_qlms":
        reference = truth[:, 0] * (_CONJ[:, None] if truth.shape[1] == 4 else 1.0)
        history = np.empty((_BLOCK,) + reference.shape)
        steps = _hamilton_steps(np.zeros(reference.shape), windows, desired, alpha,
                                NONLINEARITIES.get(config.nonlinearity), history)
        limit = DIVERGENCE_NORM ** 2
    else:
        if truth.shape[1] == 1:
            truth = np.concatenate([truth * _CONJ[:, None, None],
                                    np.zeros((4, 3, truth.shape[2]))], axis=1)
        reference = _wl_matrix(truth)
        history = np.empty((_BLOCK,) + reference.shape)
        steps = _lms_steps(np.zeros(reference.shape), windows, desired, 4.0 * alpha,
                           history)
        limit = 4.0 * DIVERGENCE_NORM ** 2  # |A w|^2 = 4 |w|^2
    mse, weight_errors, errors = [], [], np.empty((_BLOCK, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        ref = float(_squared_norms(reference[None])[0])
        for start in range(0, config.steps, _BLOCK):
            count = min(_BLOCK, config.steps - start)
            slot = -1
            try:
                for slot, e in enumerate(itertools.islice(steps, count)):
                    errors[slot] = e
            except EvaluationError:
                # The Phi partials of a diverged QNGD filter are not finite.
                # The scalar loop, checking every step, reports an earlier
                # unbounded step first.
                _check_bounded(history[:slot + 1], limit, start)
                raise
            _check_bounded(history[:count], limit, start)
            mse.extend(QArray(errors[:count].T).modulus_squared().tolist())
            err = _squared_norms(history[:count] - reference)
            weight_errors.extend(np.sqrt(err / ref if ref > 0.0 else err).tolist())
    return ExperimentResult(mse_curve=tuple(mse),
                            weight_error_curve=tuple(weight_errors),
                            final_weight_error=weight_errors[-1], steps=config.steps)
