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

Lanes.  From ``_LANE_CROSSOVER`` draws on, ``below`` runs L = ``_LANES``
chunks of C = count // L draws side by side, and the count - L*C draws left
over one at a time after them.  Each of s0..s3 is then one packed Python int
in which lane i takes the 72-bit slot at bit 72*i: 64 state bits and 8 guard
bits above them.  The guard bits absorb the products: s1*5 is below 2**67
and rotl64(., 7)*9 below 2**68, so neither carries into the next lane before
it is masked back to 64 bits.  Every shift and rotate masks each slot to the
bits that stay inside it *before* shifting (``(s1 & low47) << 17``, not
``(s1 << 17) & low64``): a left shift of unmasked slots pushes bits into the
next lane's low bits and a right shift pulls the next lane's bits down, and
no mask afterwards can tell them from the lane's own.  The test d < T adds
2**65 - T to each slot and reads bit 65: d + 2**65 - T lies in [0, 2**66),
below 2**65 exactly when d < T, and this holds for every T in [0, 2**64],
p = 1 (T = 2**64) included.  A hit of lane i at step k is offset i*C + k;
the hits are sorted, and the stream ends at the last lane's end state,
which is where L*C draws from the start leave it.

Jump-ahead.  The state update (without the output scrambler) is linear
over GF(2): one step is s -> A s for a fixed 256 x 256 bit matrix A.  By
Cayley-Hamilton its characteristic polynomial P (degree 256) has P(A) = 0,
so A**k = (x**k mod P)(A) and k steps cost one polynomial power mod P
and one Horner pass of at most 256 steps, whatever k is (Blackman and
Vigna, "Scrambled linear pseudorandom number generators", ACM TOMS 47(4),
2021; Haramoto et al., "Efficient jump ahead for F2-linear random number
generators", INFORMS J. Computing 20(3), 2008).  P is stored as the literal
``_CHARPOLY``; Berlekamp-Massey on a bit sequence of the state yields it,
and the tests check that jumping k steps equals k single steps.  Lane i
starts i*C steps ahead; lanes [0, w) are jumped w*C steps at once into
lanes [w, 2w), so L lanes take ceil(log2 L) Horner passes.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

# characteristic polynomial P of the xoshiro256 linear engine, bit j the
# coefficient of x**j (degree 256; see the module docstring)
_CHARPOLY = 0x10003C03C3F3ECB1904B4EDCF26259F850280002BCEFD1A5E9D116F2BB0F0F001
# lanes of the packed kernel, the bits each lane takes in a packed int, and
# the draw count from which `Xoshiro256.below` uses it
_LANES = 16
_SLOT = 72
_LANE_CROSSOVER = 4096


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
        the module docstring gives the exactness argument and the lane
        layout used from `_LANE_CROSSOVER` draws on.  p is any finite real
        with `as_integer_ratio()`.
        """
        num, den = p.as_integer_ratio()
        threshold = -((-num << 53) // den) << 11
        state = (self._s0, self._s1, self._s2, self._s3)
        if count >= _LANE_CROSSOVER:
            hits, state = _below_lanes(state, count, threshold, _LANES)
        else:
            hits = []
            state = _below_scalar(state, 0, count, threshold, hits)
        self._s0, self._s1, self._s2, self._s3 = state
        return hits


def _below_scalar(state, start: int, stop: int, threshold: int, hits: list) -> tuple:
    """Draws start..stop-1 one at a time from `state`: append each offset
    whose draw is below `threshold` to `hits` and return the end state."""
    s0, s1, s2, s3 = state
    mask = _MASK64
    append = hits.append
    for k in range(start, stop):
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
    return s0, s1, s2, s3


def _jump_poly(k: int) -> int:
    """x**k mod P over GF(2), bit j the coefficient of x**j."""
    r = 1
    for bit in format(k, "b"):
        # squaring over GF(2) moves coefficient j to 2j
        r = int("0".join(format(r, "b")), 2)
        if bit == "1":
            r <<= 1
        while r.bit_length() > 256:
            r ^= _CHARPOLY << (r.bit_length() - 257)
    return r


def _apply_poly(poly: int, state, rep: int) -> tuple:
    """poly(A) applied to each lane of a packed state, where A is one step
    of the linear engine and `rep` has bit 0 of every lane set.  Horner's
    rule from the top coefficient down: acc = A acc, then acc ^= state
    where the coefficient is 1."""
    lo47, lo19 = ((1 << 47) - 1) * rep, ((1 << 19) - 1) * rep
    hi45 = _MASK64 * rep ^ lo19
    s0, s1, s2, s3 = state
    a0 = a1 = a2 = a3 = 0
    for j in range(poly.bit_length() - 1, -1, -1):
        t = (a1 & lo47) << 17
        a2 ^= a0
        a3 ^= a1
        a1 ^= a2
        a0 ^= a3
        a2 ^= t
        a3 = (a3 & lo19) << 45 | (a3 & hi45) >> 19
        if poly >> j & 1:
            a0 ^= s0
            a1 ^= s1
            a2 ^= s2
            a3 ^= s3
    return a0, a1, a2, a3


def _below_lanes(state, count: int, threshold: int, lanes: int) -> tuple[list[int], tuple]:
    """`_below_scalar(state, 0, count, ...)` with the first lanes * C draws,
    C = count // lanes, run as `lanes` chunks of C side by side.

    Returns (hits, end state).  Lane i starts i * C steps ahead of `state`
    and covers offsets [i * C, (i + 1) * C); the draws left over go through
    the scalar loop from the last lane's end state.
    """
    chunk = count // lanes
    hits: list[int] = []
    if chunk:
        rep = sum(1 << _SLOT * i for i in range(lanes))
        m64 = _MASK64 * rep
        lo57, lo47, lo19 = ((1 << 57) - 1) * rep, ((1 << 47) - 1) * rep, ((1 << 19) - 1) * rep
        hi7, hi45 = m64 ^ lo57, m64 ^ lo19
        # lanes [0, width) are placed; jump them all width * C steps ahead
        # into lanes [width, 2 * width), dropping those past the last lane
        packed, width, lane_bits = state, 1, (1 << _SLOT * lanes) - 1
        while width < lanes:
            ahead = _apply_poly(_jump_poly(width * chunk), packed, rep)
            packed = tuple(s | (a << _SLOT * width) & lane_bits for s, a in zip(packed, ahead))
            width *= 2
        s0, s1, s2, s3 = packed
        # draw d < threshold iff d + 2**65 - threshold < 2**65: bit 65 clear
        add = ((1 << 65) - threshold) * rep
        over = (1 << 65) * rep
        words = []
        for k in range(chunk):
            x = s1 * 5
            x = ((x & lo57) << 7 | (x & hi7) >> 57) * 9 & m64
            x = (x + add) & over
            if x != over:
                words.append((k, x ^ over))
            t = (s1 & lo47) << 17
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 & lo19) << 45 | (s3 & hi45) >> 19
        for k, word in words:
            while word:
                low = word & -word
                # bit 65 of lane i is bit 72 * i + 65
                hits.append((low.bit_length() - 66) // _SLOT * chunk + k)
                word ^= low
        hits.sort()
        last = _SLOT * (lanes - 1)
        state = tuple(s >> last & _MASK64 for s in (s0, s1, s2, s3))
    return hits, _below_scalar(state, lanes * chunk, count, threshold, hits)
