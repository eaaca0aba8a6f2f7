"""Counter-based random number streams.

Every stochastic component draws from a stream keyed by (seed, *indices)
so that results are reproducible regardless of evaluation order or
thread count.  Streams with distinct keys are statistically independent,
except that a trailing zero index does not change a key of at most four
32-bit words: numpy's SeedSequence pads its four-word entropy pool with
zeros, so stream(s, i) is stream(s, i, 0).
"""

import numpy as np

__all__ = [
    "stream",
    "child_seed",
    "SPECTRUM_STREAM",
    "BASIS_STREAM",
    "AMPLITUDE_STREAM",
    "TRACE_PRODUCT_STREAM",
    "INNER_PRODUCT_STREAM",
    "QMC_STREAM",
    "HADAMARD_STREAM",
    "PROBE_STREAM",
    "SVE_STREAM",
]

_MASK63 = 0x7FFFFFFFFFFFFFFF

# The fixed first index of each stochastic component's stream (seed, index, ...).
SPECTRUM_STREAM = 0  # generate_spd's interior eigenvalues
BASIS_STREAM = 1  # generate_spd's Haar eigenbasis
AMPLITUDE_STREAM = 0xA  # amplitude estimation
TRACE_PRODUCT_STREAM = 0xB  # product-trace estimation, one key per repetition
INNER_PRODUCT_STREAM = 0xC  # inner-product estimation, one key per repetition
QMC_STREAM = 0xD  # quantum Monte Carlo mean estimation
# 0xE is retired: it keyed the block-encoding perturbations of earlier versions.
HADAMARD_STREAM = 23  # Hadamard-test sampling
PROBE_STREAM = 29  # the classical baselines' probe ensemble
SVE_STREAM = 0x5E  # stochastic singular-value estimation, one draw per value


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Return a Generator keyed by a seed plus an index tuple.

    Args:
        seed (int): Base seed for the experiment or estimator.
        *indices (int): Sub-stream indices (one of the fixed indices
            above, a repetition index, ...).

    Returns:
        np.random.Generator: Independent generator for this key.
    """
    key = [int(seed) & _MASK63, *(int(i) & _MASK63 for i in indices)]
    return np.random.default_rng(np.random.SeedSequence(key))


def child_seed(seed: int, k: int) -> int:
    """The seed of child k of a seed (one repetition), in 31 bits."""
    return (seed * 1000003 + k) & 0x7FFFFFFF
