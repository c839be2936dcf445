"""Leftmost long tandem duplication search.

A duplication with offset i and half-length l is a square: positions
[i, i+l) and [i+l, i+2l) hold the same symbols. find_leftmost_long
returns the square minimizing i, breaking ties by the smallest l >= K.
Offsets count the symbols before the left copy, so i = 0 is allowed.

Strategy: words shorter than a cutoff get a direct ordered scan. Longer
words get a candidate scan built on one K-gram rolling hash. Every square
(i, l) forces the K-gram at i to reappear at i + l, so matching-gram
pairs are a superset of the squares. One in-place sort of the keys
hash << 32 | position groups equal hashes, positions ascending. Candidates
are visited in (i, l) order and verified exactly, the two K-grams first,
so the result is exact however the hash collides. A word whose first 2K
symbols are all equal is answered immediately with (0, K).

In a process that has not loaded numpy, a longer word is first offered to
a certificate of absence (_samples_distinct), which needs no hashing.
numpy enters only on the hashed path, imported when a word longer than
the cutoff fails that certificate. Duplication, the all-equal test, the
small-word scan and the certificate run without it, so neither the
channel nor an encode or correct of words free of long squares loads
numpy. A process holding numpy skips the certificate: its warm hashed
scan is faster.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Sequence

from .core import MAX_ALPHABET, _integer, _set, _Value, check_word

if TYPE_CHECKING:
    import numpy as np

_SMALL_CUTOFF = 96

# One modulus below 2**31 keeps every product of two residues inside int64,
# and the prefix sum of m reduced terms below m * 2**31, which fits int64
# for m < 2**32. A packed key hash << 32 | position also stays below 2**63
# for m < 2**32, the limit find_leftmost_long enforces.
_MAX_LENGTH = 1 << 32
_MOD1, _BASE1 = 2147483647, 1000003

_pow_cache: dict[tuple[int, int], np.ndarray] = {}

# Difference covers (s, D) of Z_s, largest s first: every residue mod s is
# y - x for some x, y in D. Each D is a perfect difference set.
_COVERS = (
    (31, (0, 1, 3, 8, 12, 18)),
    (21, (0, 1, 4, 14, 16)),
    (13, (0, 1, 3, 9)),
    (7, (0, 1, 3)),
    (3, (0, 1)),
    (1, (0,)),
)


class Duplication(_Value):
    """A tandem duplication: i symbols precede the left copy of half-length l."""

    __slots__ = __match_args__ = ("i", "l")
    i: int
    l: int

    def __init__(self, i: int, l: int) -> None:
        if type(i) is not int or type(l) is not int:  # the search makes one per square
            i, l = _integer(i, "offset i"), _integer(l, "half-length l")
        if i < 0 or l < 1:
            raise ValueError(f"invalid duplication (i={i}, l={l})")
        _set(self, "i", i)
        _set(self, "l", l)


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


def _gram_hashes(arr: np.ndarray, K: int) -> np.ndarray:
    import numpy as np

    m = len(arr)
    invs = _powers(_MOD1, pow(_BASE1, -1, _MOD1), m)
    sums = np.zeros(m + 1, dtype=np.int64)
    np.multiply(arr, invs[:m], out=sums[1:])
    sums %= _MOD1
    np.cumsum(sums, out=sums)
    grams = sums[K:] - sums[: m - K + 1]
    grams %= _MOD1
    grams *= _powers(_MOD1, _BASE1, m)[K - 1 : m]
    grams %= _MOD1
    return grams


def _scan_small(w: Sequence[int], K: int) -> Duplication | None:
    m = len(w)
    for i in range(m - 2 * K + 1):
        top = (m - i) // 2
        for l in range(K, top + 1):
            if w[i : i + l] == w[i + l : i + 2 * l]:
                return Duplication(i, l)
    return None


def _cover(K: int) -> tuple[int, tuple[int, ...]]:
    """The largest cover (s, D) in _COVERS with 3s <= K + 2, so s <= K."""
    return next(c for c in _COVERS if 3 * c[0] <= K + 2)


def _samples_distinct(w: bytes, K: int) -> bool:
    """True when the sampled g-grams of w are pairwise distinct, which proves
    that w has no square of half-length >= K.

    Samples are the positions a with a mod s in D, for (s, D) = _cover(K),
    and g = K - s + 1. Proof: take a square (p, l) with l >= K. Pick x, y
    in D with y - x = l (mod s), and let a be the position in [p, p + s)
    with a = x (mod s). Then a + l = y (mod s) is sampled too, and
    a + g <= p + K <= p + l, so the g-grams at a and a + l are equal. A
    repeated sample proves nothing; the caller then runs the exact scan.
    With s about K/3, g is about 2K/3, so a random word repeats a sample
    only by chance.
    """
    s, cover = _cover(K)
    g = K - s + 1
    top = len(w) - g + 1
    seen: set[bytes] = set()
    size = 0
    for x in cover:
        grams = [w[a : a + g] for a in range(x, top, s)]
        seen.update(grams)
        size += len(grams)
        if len(seen) != size:
            return False
    return True


def _scan_hashed(arr: np.ndarray, K: int) -> Duplication | None:
    import numpy as np

    m = len(arr)
    keys = _gram_hashes(arr, K)
    keys <<= 32
    keys |= np.arange(len(keys))  # hash << 32 | position: distinct, below 2**63
    keys.sort()  # equal hashes form runs, positions ascending within each
    hashes = keys >> 32
    same = hashes[1:] == hashes[:-1]
    if not same.any():
        return None
    in_run = np.append(same, False) | np.insert(same, 0, False)
    hashes = hashes[in_run]  # only runs of two or more grams can hold a square
    pos = keys[in_run] & 0xFFFFFFFF
    last = np.append(hashes[1:] != hashes[:-1], True)  # the last slot of each run
    run_end = np.flatnonzero(last)[np.cumsum(last) - last]  # per slot: its run's last slot
    viable = np.flatnonzero(pos[run_end] >= pos + K)
    slot_at = np.full(m - K + 1, -1)
    slot_at[pos[viable]] = viable
    for slot in slot_at[slot_at >= 0]:  # viable slots in position order
        p = int(pos[slot])
        later = pos[slot + 1 : run_end[slot] + 1]
        lo = np.searchsorted(later, p + K, side="left")
        hi = np.searchsorted(later, p + (m - p) // 2, side="right")
        for p2 in later[lo:hi].tolist():
            # a collision costs the O(K) gram comparison, not the O(l) one
            if np.array_equal(arr[p : p + K], arr[p2 : p2 + K]):
                if np.array_equal(arr[p:p2], arr[p2 : 2 * p2 - p]):
                    return Duplication(p, p2 - p)
    return None


def find_leftmost_long(w: Sequence[int], K: int) -> Duplication | None:
    """Leftmost square with half-length >= K, smallest half-length first.

    Symbols must lie in 0..255; MalformedWordError names the first one
    that does not. Returns None when w has no such square. Exact for any
    input: the sampled-gram certificate only proves absence, and hashing
    only prunes the candidate set; neither decides a match. Words longer
    than 96 symbols are first tried against the certificate while numpy is
    not loaded, so a word free of long squares is answered without
    importing numpy. Raises ValueError when K is not an integer or K < 1,
    or when w has 2**32 or more symbols, the length at which the int64
    hash sums and packed keys could overflow.
    """
    if type(K) is not int:
        K = _integer(K, "threshold K")
    if K < 1:
        raise ValueError(f"threshold K must be >= 1, got {K}")
    # The encoder's bytearray holds bytes already, so its all-equal prefix
    # test below costs O(K) where packing the whole word would cost O(n).
    if not isinstance(w, bytearray):
        # a sized word past the limit is refused unread, any other once packed
        if not hasattr(w, "__len__") or len(w) < _MAX_LENGTH:
            w = check_word(w, MAX_ALPHABET)
    m = len(w)
    if m >= _MAX_LENGTH:
        raise ValueError(f"word of length {m} exceeds the hashed search's limit of 2**32 - 1")
    if m < 2 * K:
        return None
    if w.count(w[0], 0, 2 * K) == 2 * K:
        return Duplication(0, K)
    w = bytes(w)
    if m <= _SMALL_CUTOFF:
        return _scan_small(w, K)
    if "numpy" not in sys.modules and _samples_distinct(w, K):
        return None
    import numpy as np

    return _scan_hashed(np.frombuffer(w, np.uint8), K)


def is_dup_free(w: Sequence[int], K: int) -> bool:
    """True when w, with symbols in 0..255, has no square of half-length >= K."""
    return find_leftmost_long(w, K) is None
