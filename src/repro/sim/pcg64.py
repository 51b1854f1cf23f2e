"""numpy's default random stream, in plain Python ints: ``Pcg64(seed)``
draws exactly what ``numpy.random.default_rng(seed)`` draws, so the
simulator's seeded streams (fault verdicts, stamp loss, latency jitter)
never import numpy.  ``tests/test_pcg64.py`` holds it to numpy."""

from __future__ import annotations

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier


def _hasher(const: int, mult: int):
    # SeedSequence's ``hashmix`` (numpy/random/bit_generator.pyx): the
    # hash constant advances on every call.
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


class Pcg64:
    """One seeded uniform stream: ``numpy.random.default_rng(seed)``'s."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: "int | tuple") -> None:
        # SeedSequence(seed): every int as little-endian uint32 words (0 is
        # [0]), mixed into a pool of 4, expanded by generate_state(4, uint64).
        entropy = []
        for n in seed if isinstance(seed, tuple) else (seed,):
            if n < 0:
                raise ValueError(f"expected non-negative integer seed, got {n}")
            entropy.append(n & _M32)
            while n := n >> 32:
                entropy.append(n & _M32)
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        def mix(dst: int, value: int) -> None:  # MIX_MULT_L, MIX_MULT_R
            result = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(value)) & _M32
            pool[dst] = result ^ result >> 16
        for src, dst in [(s, d) for s in range(4) for d in range(4) if s != d]:
            mix(dst, pool[src])
        for word in entropy[4:]:
            for dst in range(4):
                mix(dst, word)
        generate = _hasher(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
        w = [generate(pool[i % 4]) for i in range(8)]
        u0, u1, u2, u3 = [w[i] | w[i + 1] << 32 for i in (0, 2, 4, 6)]
        # pcg_setseq_128_srandom_r(initstate = u0:u1, initseq = u2:u3):
        # from state 0, step, add initstate, step.
        self._inc = inc = ((u2 << 64 | u3) << 1 | 1) & _M128
        self._state = ((inc + (u0 << 64 | u1)) * _MULT + inc) & _M128

    def random(self) -> float:
        """The next double in ``[0, 1)``: one XSL-RR output's top 53 bits."""
        self._state = state = (self._state * _MULT + self._inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        return ((((x >> rot) | (x << (64 - rot))) & _M64) >> 11) * 2.0 ** -53
