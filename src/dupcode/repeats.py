"""Leftmost long tandem duplication search.

A duplication with offset i and half-length l is a square: positions
[i, i+l) and [i+l, i+2l) hold the same symbols. find_leftmost_long
returns the square minimizing i, breaking ties by the smallest l >= K.
Offsets count the symbols before the left copy, so i = 0 is allowed.

Strategy: words shorter than a cutoff get a direct ordered scan. Longer
words get a candidate scan built on K-gram rolling hashes. Every square
(i, l) forces the K-gram at i to reappear at i + l, so matching-gram
pairs are a superset of the squares; candidates are visited in (i, l)
order and verified by exact comparison, which makes the result exact no
matter how the hashes collide. A word whose first 2K symbols are all
equal is answered immediately with (0, K).

numpy enters only on the hashed path: the power tables, the K-gram hashes
and the candidate scan import it when a word longer than the cutoff is
scanned. Duplication, the all-equal test and the small-word scan run
without it, so modules that need only Duplication (the channel) do not
load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .core import MAX_ALPHABET, check_word

if TYPE_CHECKING:
    import numpy as np

_SMALL_CUTOFF = 96

# Two independent moduli below 2**31 keep every product of two residues
# inside int64, and the cumulative sum of m residues below m * 2**31, which
# fits int64 for m < 2**32. find_leftmost_long refuses longer words.
_MAX_LENGTH = 1 << 32
_MOD1, _BASE1 = 2147483647, 1000003
_MOD2, _BASE2 = 2147483629, 999979

_pow_cache: dict[tuple[int, int], np.ndarray] = {}


@dataclass(frozen=True)
class Duplication:
    """A tandem duplication: i symbols precede the left copy of half-length l."""

    i: int
    l: int

    def __post_init__(self) -> None:
        if self.i < 0 or self.l < 1:
            raise ValueError(f"invalid duplication (i={self.i}, l={self.l})")


def _powers(mod: int, base: int, length: int) -> np.ndarray:
    import numpy as np

    cached = _pow_cache.get((mod, base))
    if cached is None or len(cached) < length:
        size = max(length, 1024)
        if cached is not None:
            size = max(size, 2 * len(cached))
        out = np.empty(size, dtype=np.int64)
        out[0] = 1
        done = 1
        while done < size:
            # out[done + t] = base**t * base**done; both factors are below
            # mod < 2**31, so the product fits int64. In place: no temporaries.
            step = min(done, size - done)
            chunk = out[done : done + step]
            np.multiply(out[:step], pow(base, done, mod), out=chunk)
            chunk %= mod
            done += step
        _pow_cache[(mod, base)] = out
        cached = out
    return cached


def _gram_hashes(arr: np.ndarray, K: int, mod: int, base: int) -> np.ndarray:
    import numpy as np

    m = len(arr)
    inv = pow(base, -1, mod)
    invs = _powers(mod, inv, m + K + 1)
    pows = _powers(mod, base, m + K + 1)
    terms = (arr * invs[:m]) % mod
    sums = np.concatenate(([0], np.cumsum(terms)))
    diffs = (sums[K:] - sums[: m - K + 1]) % mod
    return (diffs * pows[K - 1 : m]) % mod


def _scan_small(w: Sequence[int], K: int) -> Duplication | None:
    m = len(w)
    for i in range(m - 2 * K + 1):
        top = (m - i) // 2
        for l in range(K, top + 1):
            if w[i : i + l] == w[i + l : i + 2 * l]:
                return Duplication(i, l)
    return None


def _scan_hashed(arr: np.ndarray, K: int) -> Duplication | None:
    import numpy as np

    m = len(arr)
    g1 = _gram_hashes(arr, K, _MOD1, _BASE1)
    g2 = _gram_hashes(arr, K, _MOD2, _BASE2)
    key = (g1 << np.int64(31)) | g2

    order = np.argsort(key, kind="stable")  # positions ascend within a group
    ks = key[order]
    fresh = np.empty(len(ks), dtype=bool)
    fresh[0] = True
    np.not_equal(ks[1:], ks[:-1], out=fresh[1:])
    gid = np.cumsum(fresh) - 1
    counts = np.bincount(gid)
    g_end = np.cumsum(counts) - 1
    g_start = g_end - counts + 1

    last_pos = order[g_end[gid]]  # per sorted slot: largest position in its group
    viable = last_pos >= order + K
    mask = np.zeros(len(key), dtype=bool)
    mask[order[viable]] = True
    starts = np.flatnonzero(mask)
    if len(starts) == 0:
        return None

    slot_of = np.empty(len(key), dtype=np.int64)
    slot_of[order] = np.arange(len(key))
    for p in starts.tolist():
        slot = slot_of[p]
        members = order[g_start[gid[slot]] : g_end[gid[slot]] + 1]
        lo = np.searchsorted(members, p + K, side="left")
        hi = np.searchsorted(members, p + (m - p) // 2, side="right")
        for p2 in members[lo:hi].tolist():
            l = p2 - p
            if np.array_equal(arr[p : p + l], arr[p + l : p + 2 * l]):
                return Duplication(p, l)
    return None


def find_leftmost_long(w: Sequence[int], K: int) -> Duplication | None:
    """Leftmost square with half-length >= K, smallest half-length first.

    Symbols must lie in 0..255; MalformedWordError names the first one
    that does not. Returns None when w has no such square. Exact for any
    input; hashing only prunes the candidate set, never decides a match.
    Raises ValueError when K < 1 or when w has 2**32 or more symbols, the
    length at which the int64 hash sums could overflow.
    """
    if K < 1:
        raise ValueError(f"threshold K must be >= 1, got {K}")
    m = len(w)
    if m >= _MAX_LENGTH:
        raise ValueError(f"word of length {m} exceeds the hashed search's limit of 2**32 - 1")
    if m < 2 * K:
        return None
    # Only the 2K-symbol prefix is packed here: packing the encoder's whole
    # word on every iteration would cost O(n) where this costs O(K).
    head = check_word(w[: 2 * K], MAX_ALPHABET)
    if head.count(head[0]) == 2 * K:
        return Duplication(0, K)
    w = check_word(w, MAX_ALPHABET)
    if m <= _SMALL_CUTOFF:
        return _scan_small(w, K)
    import numpy as np

    return _scan_hashed(np.frombuffer(w, np.uint8).astype(np.int64), K)


def is_dup_free(w: Sequence[int], K: int) -> bool:
    """True when w, with symbols in 0..255, has no square of half-length >= K."""
    return find_leftmost_long(w, K) is None
