"""Deterministic, portable pseudo-random number generator.

The instance generators must produce bit-identical graphs for a given seed
on every platform and Python build, so this module implements its own
generator instead of relying on library RNGs whose streams are not pinned.

The exact algorithm, so that the streams can be reproduced independently:

Seeding (splitmix64). Starting from ``state = seed & (2**64 - 1)``, each
call to splitmix64 does::

    state = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output z XOR (z >> 31)

The first four outputs become the xoshiro256** state ``s0..s3`` (in call
order).  If all four happen to be zero, ``s0`` is set to 1.

Stream (xoshiro256**).  Each 64-bit draw::

    result = rotl64(s1 * 5, 7) * 9            (all mod 2**64)
    t  = (s1 << 17) mod 2**64
    s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3
    s2 ^= t
    s3  = rotl64(s3, 45)

Floats in [0, 1) take the top 53 bits: ``(draw >> 11) * 2.0**-53``.

Batched threshold draws (``Xoshiro256.below``).  ``below(count, p)``
returns, in increasing order, the offsets k in [0, count) for which the
k-th of the next ``count`` calls to ``random()`` would return a float
``< p``, and leaves the stream exactly where those ``count`` calls would.
It compares the raw draws with one integer threshold instead of building
floats.  The float of a draw d is ``m * 2**-53`` with ``m = d >> 11``, an
integer below 2**53, and that product is exact.  So ``float < p`` holds iff
``m < p * 2**53``, iff ``m < ceil(p * 2**53)`` (m is an integer), iff
``d < ceil(p * 2**53) << 11``.  The ceiling is taken in integer arithmetic
from ``p.as_integer_ratio()``, so a float, int, ``Fraction`` or ``Decimal``
p selects exactly the draws that ``random() < p`` selects, with no
rounding anywhere.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl64(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256:
    """xoshiro256** stream seeded through splitmix64.

    Any Python int is accepted as seed; it is reduced mod 2**64 first.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        state = seed & _MASK64
        state, s0 = _splitmix64(state)
        state, s1 = _splitmix64(state)
        state, s2 = _splitmix64(state)
        state, s3 = _splitmix64(state)
        if s0 == s1 == s2 == s3 == 0:
            s0 = 1
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3

    def next_u64(self) -> int:
        """Next 64-bit draw of the stream."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl64((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl64(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def below(self, count: int, p) -> list[int]:
        """Offsets k in [0, count), increasing, whose float draw is < p.

        Same result and same end state as `count` calls to `random()`;
        the module docstring gives the exactness argument.  p is any
        finite real with `as_integer_ratio()`.
        """
        num, den = p.as_integer_ratio()
        threshold = -((-num << 53) // den) << 11
        mask = _MASK64
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        hits = []
        append = hits.append
        for k in range(count):
            x = (s1 * 5) & mask
            if ((x << 7 | x >> 57) * 9) & mask < threshold:
                append(k)
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << 45 | s3 >> 19) & mask
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return hits

    def randrange(self, bound: int) -> int:
        """Uniform int in [0, bound) by rejection on the top bits."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # Rejection sampling keeps the distribution exactly uniform.
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % bound
