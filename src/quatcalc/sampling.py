"""Seeded random draws used by the verification suites and experiments.

Every random quantity in the package flows from a single integer seed through
numpy's counter-based Philox generator, and make_rng is the one place that
checks a seed and builds a generator.  Independent substreams are derived
with SeedSequence.spawn, so runs are reproducible and streams never overlap.
"""

from __future__ import annotations

import math

import numpy as np

from .quaternion import Quaternion, integer


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for substream ``stream`` of the run seeded by ``seed``, both
    nonnegative integers (numpy's too): numpy takes True as seed 1."""
    for name, value in (("seed", seed), ("stream", stream)):
        integer(name, value, 0, "a nonnegative integer")
    root = np.random.SeedSequence(seed)
    children = root.spawn(stream + 1)
    return np.random.Generator(np.random.Philox(children[stream]))


# Rejection budget of every redrawing sampler (random_quaternion and
# FamilySpec.sample_point); an unreachable bound must fail, not loop forever.
MAX_DRAWS = 1000


def random_quaternion(rng: np.random.Generator, lo: float = -2.0, hi: float = 2.0,
                      min_modulus: float = 0.0) -> Quaternion:
    """Uniform components in [lo, hi], rejecting draws with |q| < min_modulus.
    Each is lo + (hi - lo) * rng.random(), as rng.uniform computes it."""
    lo, span = float(lo), float(hi) - float(lo)
    if not math.isfinite(span):
        raise OverflowError("Range exceeds valid bounds")
    for _ in range(MAX_DRAWS):
        a, b, c, d = rng.random(4).tolist()
        q = Quaternion(lo + span * a, lo + span * b, lo + span * c, lo + span * d)
        if q.modulus() >= min_modulus:
            return q
    raise ValueError(f"no draw from [{lo}, {hi}]^4 reached modulus {min_modulus} "
                     f"in {MAX_DRAWS} tries")


def uniform_rows(rng: np.random.Generator, count: int, ranges, keep, redraw) -> np.ndarray:
    """count rows of redraw(rng), bit for bit, leaving rng where they would.

    redraw draws a row as random_quaternion does, a quaternion per (lo, hi)
    in ranges, redrawing what it rejects.  Philox gives the same doubles in
    one call as in many, so the rows come from one rng.random call, and
    keep(rows) says which ones redraw keeps on its first try.  At the first
    it rejects, rng is rewound to just past the rows before it, that row is
    drawn with redraw, and the bulk draw goes on.  The package's one rewind.
    """
    lo, span = np.repeat([(lo, hi - lo) for lo, hi in ranges], 4, axis=0).T
    width = len(lo)
    rows = np.empty((count, width))
    done = 0
    while done < count:
        state = rng.bit_generator.state
        drawn = lo + span * rng.random((count - done, width))
        kept = keep(drawn)
        accepted = len(drawn) if kept.all() else int(np.argmin(kept))
        rows[done:done + accepted] = drawn[:accepted]
        done += accepted
        if done < count:
            rng.bit_generator.state = state
            rng.random(accepted * width)
            rows[done] = redraw(rng)
            done += 1
    return rows
