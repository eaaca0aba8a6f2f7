"""Counter-based random number streams.

Every stochastic component draws from a stream keyed by (seed, *indices)
so that results are reproducible regardless of evaluation order or
thread count.  Streams with distinct keys are statistically independent.

`stream` builds one numpy Generator per key.  `rademacher_block` draws
the Rademacher signs of many consecutive keys (seed, index, start), ...,
(seed, index, stop - 1) at once: column j of its block is, bit for bit,
``2.0 * stream(seed, index, start + j).integers(0, 2, size=n) - 1.0``.
It reproduces numpy's pipeline in integer arithmetic over the columns:
the SeedSequence hash of each key, PCG64 seeding, a jump of the 128-bit
LCG to every output the draw reads, and the XSL-RR output function.
``integers(0, 2)`` takes the top bit of each ``next_uint32``, and PCG64
serves the low then the high half of each 64-bit output, so entries 2t
and 2t + 1 are bits 31 and 63 of output t.
"""

import functools

import numpy as np

__all__ = ["stream", "child_seed", "rademacher_block"]

_MASK63 = 0x7FFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence: a pool of four 32-bit words mixed by multiply-xorshift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Entries computed per pass: bounds the working set of the uint64 limb
# arrays whatever the block shape.
_CHUNK = 8192


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Return a Generator keyed by a seed plus an index tuple.

    Args:
        seed (int): Base seed for the experiment or estimator.
        *indices (int): Sub-stream indices (call index, repetition
            index, probe index, ...).

    Returns:
        np.random.Generator: Independent generator for this key.
    """
    key = [int(seed) & _MASK63, *(int(i) & _MASK63 for i in indices)]
    return np.random.default_rng(np.random.SeedSequence(key))


def child_seed(seed: int, k: int) -> int:
    """The seed of child k of a seed (a derived encoding or one repetition), in 31 bits."""
    return (seed * 1000003 + k) & 0x7FFFFFFF


def _words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a masked key entry."""
    value = int(value) & _MASK63
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before and after each of `calls` hashmix calls.

    SeedSequence multiplies its hash constant by mult at every call,
    whatever the data, so the constants are fixed in advance.
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32).reshape(-1, 1)


# A key (seed, index, probe) has at most four entropy words, which fill the
# pool; mixing it makes 4 + 4 * 3 hashmix calls.
_CONSTS_A = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_CONSTS_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(value, consts, first: int, calls: int):
    """SeedSequence's hashmix calls first .. first + calls - 1, one per row.

    value is a (calls, k) array, or a (k,) row hashed by every call.
    """
    value = value ^ consts[first:first + calls]
    value *= consts[first + 1:first + 1 + calls]
    value ^= value >> 16
    return value


def _mix(x, y):
    result = x * _MIX_MULT_L
    result -= y * _MIX_MULT_R
    result ^= result >> 16
    return result


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(8, uint32), one column per key.

    entropy is a (words, k) uint32 array holding each key's entropy
    words, at most four.  Row r of the result is word r of the state.
    """
    words, k = entropy.shape
    pool = np.zeros((_POOL_SIZE, k), np.uint32)
    pool[:words] = entropy
    pool = _hashmix(pool, _CONSTS_A, 0, _POOL_SIZE)
    calls = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(pool[src], _CONSTS_A, calls, len(dst))
        pool[dst] = _mix(pool[dst], hashed)
        calls += len(dst)
    return _hashmix(np.tile(pool, (2, 1)), _CONSTS_B, 0, 2 * _POOL_SIZE)


def _limbs(value: int) -> tuple[int, int]:
    """High and low 64-bit limbs of a 128-bit integer."""
    return value >> 64 & _MASK64, value & _MASK64


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of uint64 operands."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)


def _signs(x, shift, out):
    """out = +-1.0 from bit (shift mod 64) of x."""
    shift &= 63
    np.multiply((x >> shift) & 1, 2.0, out=out)
    out -= 1.0


@functools.lru_cache(maxsize=16)
def _jumps(length: int) -> tuple[np.ndarray, np.ndarray]:
    """G_m = sum_{j<m} MULT^j mod 2^128 for m = 2 .. length + 1.

    Output t of a freshly seeded PCG64 is read from the state 2 + t LCG
    steps past inc + initstate (one step belongs to the seeding).  Returns
    the high and low limbs as read-only (length, 1) uint64 columns.
    """
    g, power, rows = 0, 1, []
    for m in range(length + 2):
        if m >= 2:
            rows.append(_limbs(g))
        g = (g + power) % (1 << 128)
        power = power * _PCG_MULT % (1 << 128)
    out = tuple(np.array(col, np.uint64).reshape(-1, 1) for col in zip(*rows))
    for arr in out:
        arr.setflags(write=False)
    return out


def rademacher_block(n: int, seed: int, index: int, start: int, stop: int) -> np.ndarray:
    """The n x k block of Rademacher probes from streams start .. stop - 1.

    Column j equals ``2.0 * stream(seed, index, start + j).integers(0, 2,
    size=n) - 1.0`` bit for bit, without building a Generator per stream.

    Args:
        n: Entries per probe.
        seed: Base seed, as passed to `stream`.
        index: Sub-stream index shared by every column.
        start, stop: Stream indices of the first and one past the last
            column.

    index and every stream index must lie in [0, 2^32), so that each is
    a single SeedSequence entropy word and a key fills the entropy pool.

    Returns:
        C-contiguous float64 array of shape (n, stop - start).

    Raises:
        ValueError: If index or the stream range leaves [0, 2^32).
    """
    if not (0 <= index < 1 << 32 and 0 <= start <= stop <= 1 << 32):
        raise ValueError("sub-stream and stream indices must lie in [0, 2^32), "
                         f"got {index} and {start}..{stop - 1}")
    k = stop - start
    out = np.empty((n, k))
    if n == 0 or k == 0:
        return out
    prefix = _words(seed) + [index]
    entropy = np.empty((len(prefix) + 1, k), np.uint32)
    entropy[:-1] = np.array(prefix, np.uint32).reshape(-1, 1)
    entropy[-1] = np.arange(start, stop, dtype=np.uint64)
    state = _seed_state(entropy).astype(np.uint64)
    w = state[0::2] | state[1::2] << 32
    # Seeding: initstate = (w0 << 64) | w1, inc = 2 ((w2 << 64) | w3) + 1,
    # state s = inc + initstate.
    inc_hi = w[2] << 1 | w[3] >> 63
    inc_lo = w[3] << 1 | 1
    s_lo = inc_lo + w[1]
    s_hi = inc_hi + w[0] + (s_lo < inc_lo)
    # MULT^m = 1 + (MULT - 1) G_m, so the state m steps past s is s + G_m u
    # with u = (MULT - 1) s + inc.
    c_hi, c_lo = (np.uint64(limb) for limb in _limbs(_PCG_MULT - 1))
    u_lo = c_lo * s_lo + inc_lo
    u_hi = c_hi * s_lo + c_lo * s_hi + _mulhi(c_lo, s_lo) + inc_hi + (u_lo < inc_lo)
    # (1, k) rows; the jump limbs are (T, 1) columns.
    s_hi, s_lo, u_hi, u_lo = (a.reshape(1, -1) for a in (s_hi, s_lo, u_hi, u_lo))

    outputs = (n + 1) // 2
    g_hi, g_lo = _jumps(outputs)
    rows = max(1, _CHUNK // k)
    for t0 in range(0, outputs, rows):
        t1 = min(t0 + rows, outputs)
        gh, gl = g_hi[t0:t1], g_lo[t0:t1]
        # The 128-bit state s + G u, low limb then high limb.
        lo = gl * u_lo
        lo += s_lo
        hi = _mulhi(gl, u_lo)
        hi += lo < s_lo
        hi += s_hi
        hi += gh * u_lo
        hi += gl * u_hi
        # XSL-RR: bit b of the output is bit (b + rot) mod 64 of hi ^ lo.
        rot = hi >> 58
        lo ^= hi
        _signs(lo, rot + 31, out[2 * t0:2 * t1:2])
        odd = n // 2 - t0
        _signs(lo[:odd], rot[:odd] + 63, out[2 * t0 + 1:2 * t1:2])
    return out
