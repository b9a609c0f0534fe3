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

