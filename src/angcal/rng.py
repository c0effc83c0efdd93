"""Seeded random-number streams.

All randomness in the package flows through Philox, a counter-based
generator whose output is identical across platforms for a given key.
Each logical stream (design matrix, true weight, labels, per-trial
holdouts, ...) derives its own 128-bit key by hashing the master seed
together with a tuple of string/int tags, so streams never overlap and
adding a new stream cannot shift an existing one.

Tag hashing uses BLAKE2b, which ships with CPython and is stable across
versions; the derivation is therefore bit-reproducible everywhere.
"""

from __future__ import annotations

import hashlib
import math
import numbers

import numpy as np

from .errors import ContractError

#: Entry distributions accepted by the samplers. All are mean zero, unit
#: variance: rademacher takes values in {-1, +1} equiprobably, uniform is
#: supported on [-sqrt(3), +sqrt(3)].
ENTRY_DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")

_UNIFORM_HALF_WIDTH = math.sqrt(3.0)


def substream(master_seed: int, *tags) -> np.random.Generator:
    """Return a Generator for the stream identified by (master_seed, tags).

    The Philox key is BLAKE2b-128 of the seed's 8 little-endian bytes
    followed by the repr of each tag, '/'-separated. Same inputs always
    give the same stream; any tag difference gives an unrelated stream.
    """
    if isinstance(master_seed, bool) or not isinstance(master_seed, numbers.Integral) or not 0 <= master_seed < 2**64:
        raise ContractError(f"seed must be an unsigned 64-bit integer, got {master_seed!r}")
    digest = hashlib.blake2b(digest_size=16)
    digest.update(int(master_seed).to_bytes(8, "little"))
    for tag in tags:
        digest.update(b"/")
        digest.update(repr(tag).encode("utf-8"))
    key = int.from_bytes(digest.digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def sample_entries(rng: np.random.Generator, shape, dist: str) -> np.ndarray:
    """Draw an array of iid zero-mean unit-variance entries from `dist`."""
    if dist == "gaussian":
        return rng.standard_normal(shape)
    if dist == "rademacher":
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    if dist == "uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=shape)
    raise ContractError(f"unknown entry distribution {dist!r}; expected one of {ENTRY_DISTRIBUTIONS}")


def bernoulli(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Draw one 0/1 label per probability, as a float vector."""
    probs = np.asarray(probs, dtype=np.float64)
    return (rng.random(probs.shape) < probs).astype(np.float64)
