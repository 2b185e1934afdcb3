"""Counter-based generator words and coin bits (splitmix64 finalizer).

Bit k of a seeded stream is addressable directly from (seed, k): no state,
no sequential generation. The same mixing function is re-implemented
vectorized in the numpy kernel; the two must stay bit-for-bit identical.
"""

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Distinct stream tweaks so coins, start points and chain draws never share
# raw counter values for the same user seed.
STREAM_COIN = 0x0000000000000000
STREAM_START = 0xD1B54A32D192ED03
STREAM_CHAIN = 0x8BB84B93962EACC9


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def raw_at(seed: int, index: int, stream: int = STREAM_COIN) -> int:
    return mix64(((seed ^ stream) + (index + 1) * _GOLDEN) & _MASK)


def bit_at(seed: int, index: int, stream: int = STREAM_COIN) -> int:
    return raw_at(seed, index, stream) >> 63
