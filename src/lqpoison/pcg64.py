"""numpy's PCG64 stream, computed without importing numpy's ``random`` package.

The excitation is the stream of numpy's ``Generator(PCG64(seed))`` bit for
bit, but importing numpy's ``random`` package loads all its bit generators
and, through ``secrets``, OpenSSL's hash library, for a few thousand draws.
This module computes the same numbers from their published definitions:

- the seed goes through numpy's ``SeedSequence`` (a pool of four 32-bit
  words mixed by multiply-xorshift hashes, O'Neill's ``seed_seq_fe``
  design), here on Python ints, giving PCG64's 128-bit state and increment;
- the generator is O'Neill's PCG XSL-RR 128/64 (PCG tech report,
  HMC-CS-2014-0905): the 128-bit LCG s <- a*s + inc mod 2^128 steps, then
  outputs rotr64(hi(s) ^ lo(s), s >> 122).

The LCG is evaluated ``ROW`` states at a time by jump constants:
s_{b+j} = a^j s_b + c_j with c_j = (1 + a + ... + a^{j-1}) inc, j = 1..ROW
(``jump_constants``; a^j and the sums, which no seed changes, are computed
once, at import). A block is up to ``ROW`` rows: a Python loop steps s_b by
ROW states per row, and one broadcast product gives the block's states. A
128-bit product mod 2^128 needs only its low words' full 128-bit product,
whose high word comes from 32-bit limbs in uint64 arrays; the rest wraps in
uint64 as numpy integer arrays do. Each draw allocates its output before it
computes a jump constant or runs a Python loop, so a size numpy cannot
allocate is refused at once, and fills it block by block, so its working
memory does not grow with the output.
"""

from __future__ import annotations

import math

import numpy as np

MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier
ROW = 64  # states per row; a block is up to ROW rows, 32 kB per uint64 temporary
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# as uint64 scalars, which numpy applies faster than Python ints
_32, _L32 = np.uint64(32), np.uint64(_M32)


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit multiply-xorshift hash, its constant stepping by ``mult``."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _hashed(seed: int) -> list[int]:
    """The eight 32-bit words ``SeedSequence(seed).generate_state(8)`` gives."""
    # the seed's 32-bit words, least significant first; [0] for 0
    entropy = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hashmix, pool = _hasher(0x43B0D7E5, 0x931E8875), 4

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    mixer = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(pool)]
    for src in range(pool):
        for dst in range(pool):
            if src != dst:
                mixer[dst] = mix(mixer[dst], hashmix(mixer[src]))
    for word in entropy[pool:]:
        for dst in range(pool):
            mixer[dst] = mix(mixer[dst], hashmix(word))
    output = _hasher(0x8B51F9DD, 0x58F38DED)
    return [output(mixer[i % pool]) for i in range(8)]


def _start(seed: int) -> tuple[int, int]:
    """PCG64(seed)'s (state, increment) before its first output."""
    w = _hashed(seed)
    # generate_state(4, uint64) pairs the words little-endian; the first two
    # 64-bit words give the initial state, high first, the last two the stream
    u = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
    inc = (u[2] << 65 | u[3] << 1 | 1) & _M128
    state = (inc + (u[0] << 64 | u[1])) * MULT + inc  # srandom: step from 0, add, step
    return state & _M128, inc


def _mul_add(x, y, c):
    """x*y + c mod 2^128, each a (hi, lo) pair of uint64 arrays or scalars, broadcast.

    Only lo(x)*lo(y) needs its full 128 bits; the cross products land in the
    high word, where uint64 wraps.
    """
    (x_hi, x_lo), (y_hi, y_lo), (c_hi, c_lo) = x, y, c
    x0, x1, y0, y1 = x_lo & _L32, x_lo >> _32, y_lo & _L32, y_lo >> _32
    t0, t1, t2 = x0 * y0, x1 * y0, x0 * y1
    mid = t0 >> _32
    mid += t1 & _L32
    mid += t2 & _L32
    hi = x1 * y1
    hi += t1 >> _32
    hi += t2 >> _32
    hi += mid >> _32
    hi += x_hi * y_lo
    hi += x_lo * y_hi
    hi += c_hi
    lo = x_lo * y_lo
    lo += c_lo
    hi += lo < c_lo  # the carry out of the low word
    return hi, lo


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as (hi, lo) uint64 arrays."""
    words = b"".join([v.to_bytes(16, "little") for v in values])
    w = np.frombuffer(words, dtype="<u8").reshape(-1, 2)
    return w[:, 1], w[:, 0]


def _powers() -> tuple[list[int], list[int]]:
    """[a^j] and [1 + a + ... + a^(j-1)] for j = 1..ROW, mod 2^128."""
    powers, sums = [MULT], [1]
    for _ in range(ROW - 1):
        sums.append((sums[-1] + powers[-1]) & _M128)
        powers.append(powers[-1] * MULT & _M128)
    return powers, sums


# the seed-independent part of the jump constants, computed once
_POWERS, _SUMS = _powers()
_POWER_ROW = _halves(_POWERS)  # read-only: views of an immutable bytes object


def jump_constants(inc: int) -> list[int]:
    """[c_j] for j = 1..ROW: s_{b+j} = a^j s_b + c_j mod 2^128 for increment inc."""
    return [s * inc & _M128 for s in _SUMS]


def _raw_blocks(seed: int, count: int):
    """Yield (start, outputs) for PCG64(seed)'s first ``count`` uint64 outputs, in blocks."""
    state, inc = _start(seed)
    c = jump_constants(inc)
    c_row = _halves(c)
    rows = math.ceil(count / ROW)
    for first in range(0, rows, ROW):
        starts = []  # the state before each row of the block
        for _ in range(min(ROW, rows - first)):
            starts.append(state)
            state = (_POWERS[-1] * state + c[-1]) & _M128
        hi, lo = _mul_add([h[:, None] for h in _halves(starts)], _POWER_ROW, c_row)
        rot = hi >> 58
        lo ^= hi  # XSL-RR: rotate hi ^ lo right by the state's top 6 bits
        r = ((lo >> rot) | (lo << (-rot & 63))).reshape(-1)
        start = first * ROW
        yield start, r[: count - start]


def uniform(seed: int, low: float, high: float, shape) -> np.ndarray:
    """``Generator(PCG64(seed)).uniform(low, high, shape)``, bit for bit.

    Each value is low + (high - low) * ((r >> 11) * 2^-53) for the next
    output r, as numpy computes it.
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    width = high - low
    for start, r in _raw_blocks(seed, flat.size):
        piece = flat[start : start + len(r)]
        np.multiply(r >> 11, 2.0**-53, out=piece)
        piece *= width
        piece += low
    return out


def bits(seed: int, shape) -> np.ndarray:
    """``Generator(PCG64(seed)).integers(0, 2, shape)``, bit for bit.

    numpy draws a range-2 integer as the top bit of a 32-bit draw, and takes
    its 32-bit draws from each 64-bit output low half first, so output r
    gives two values: bit 31 of r, then bit 63.
    """
    out = np.empty(shape, dtype=np.int64)
    flat = out.reshape(-1)
    for start, r in _raw_blocks(seed, math.ceil(flat.size / 2)):
        piece = flat[2 * start : 2 * (start + len(r))]
        piece[0::2] = (r >> 31) & 1
        piece[1::2] = r[: len(piece) // 2] >> 63
    return out
