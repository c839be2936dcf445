"""Leftmost long tandem duplication search.

A duplication with offset i and half-length l is a square: positions
[i, i+l) and [i+l, i+2l) hold the same symbols. find_leftmost_long
returns the square minimizing i, breaking ties by the smallest l >= K.
Offsets count the symbols before the left copy, so i = 0 is allowed.

Strategy: words shorter than a cutoff get a direct ordered scan. Longer
words get a candidate scan built on one K-gram polynomial hash, taken mod
2**64 by numpy's wrapping uint64 arithmetic, so it needs no modulo pass.
Every square (i, l) forces the K-gram at i to reappear at i + l, so
matching-gram pairs are a superset of the squares. One in-place sort of
the keys hash << 32 | position groups equal hashes, positions ascending.
Candidates are visited in (i, l) order and verified exactly, the two
K-grams first, so the result is exact however the hash collides. A word
whose first 2K symbols are all equal is answered immediately with (0, K).

In a process that has not loaded numpy, a longer word is first offered to
two certificates of absence, which need no hashing. Each samples the word
at a difference cover of Z_s and proves it square-free when no two samples
are equal. The sparse plan (_blocks_distinct) cuts each sampled residue
class into non-overlapping s-symbol blocks, split in C by struct, with the
largest s such that 2s <= K + 1. Its blocks are short enough that a random
word repeats one now and then, so a refusal falls back to the dense plan
(_samples_distinct): a smaller s, about K/3, and overlapping grams of
K - s + 1 symbols. numpy enters only on the hashed path, imported when a
word longer than the cutoff fails both. The all-equal test, the
small-word scan and the certificates run without it, so an encode or
correct of words free of long squares loads no numpy. A process holding
numpy skips the certificates: its warm hashed scan is faster.
"""

from __future__ import annotations

import struct
import sys
from itertools import chain
from typing import TYPE_CHECKING, Sequence

from .core import MAX_ALPHABET, Duplication, _integer, check_word

if TYPE_CHECKING:
    import numpy as np

_SMALL_CUTOFF = 96

# Gram hashes are polynomials in one odd base, taken mod 2**64 by numpy's
# wrapping uint64 arithmetic; an odd base is invertible mod 2**64. Each key
# keeps the top 31 bits of its gram's hash, so the packed key
# hash << 32 | position stays below 2**63 for m < 2**32, the limit
# find_leftmost_long enforces.
_MAX_LENGTH = 1 << 32
_BASE = 0x9E3779B97F4A7C15
_INVERSE = pow(_BASE, -1, 1 << 64)

_pow_cache: dict[int, np.ndarray] = {}

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


# Minimal difference covers (s, D) of Z_s for the sparse plan, one per odd
# s, largest first, one "s: D" per line; no smaller set covers Z_s
# (exhaustive search over the sets holding 0 and 1, which every cover has a
# translate of). The code's K = 4L + 1 takes s = 2L + 1, the largest s the
# proof allows, so its blocks are as long as they can be and a uniform word
# repeats one least often. s stops at 65 = (129 + 1)/2: K = 129 at q = 2
# for the longest message whose codeword the search takes. The table is
# text because a process without cached bytecode compiles it on every
# import: as nested tuple literals it added about 1 ms to the import of
# this module, as text about 0.2 ms.
_SPARSE_COVERS = tuple(
    (int(s), tuple(map(int, cover.split())))
    for s, cover in (row.split(":") for row in """
65: 0 1 2 6 10 28 35 51 54
63: 0 1 2 6 8 20 38 41 54
61: 0 1 2 3 7 15 25 36 45
59: 0 1 2 3 6 13 21 35 44
57: 0 1 3 13 32 36 43 52
55: 0 1 2 3 4 6 19 26 47
53: 0 1 2 3 4 7 21 29 44
51: 0 1 2 5 11 18 30 38
49: 0 1 2 5 24 33 36 44
47: 0 1 2 3 5 16 22 40
45: 0 1 2 3 5 12 18 26
43: 0 1 2 3 4 10 15 26
41: 0 1 2 3 4 9 15 25
39: 0 1 2 4 13 18 33
37: 0 1 2 4 10 15 22
35: 0 1 2 3 8 12 21
33: 0 1 2 3 6 16 27
31: 0 1 3 8 12 18
29: 0 1 2 3 4 9 14
27: 0 1 2 5 13 22
25: 0 1 2 3 8 12
23: 0 1 2 3 7 11
21: 0 1 4 14 16
19: 0 1 2 6 9
17: 0 1 2 4 12
15: 0 1 2 3 7
13: 0 1 3 9
11: 0 1 2 5
9: 0 1 2 4
7: 0 1 3
5: 0 1 2
3: 0 1
1: 0
""".strip().splitlines())
)


def _powers(base: int, length: int) -> np.ndarray:
    """base**t mod 2**64 for t = 0, 1, ..., at least length of them, cached."""
    import numpy as np

    cached = _pow_cache.get(base)
    if cached is None or len(cached) < length:
        size = max(length, 1024)
        if cached is not None:
            size = max(size, 2 * len(cached))
        out = np.empty(size, dtype=np.uint64)
        out[0] = 1
        done = 1
        while done < size:
            # out[done + t] = base**t * base**done, wrapping; in place, no temporaries
            step = min(done, size - done)
            factor = np.uint64(pow(base, done, 1 << 64))
            np.multiply(out[:step], factor, out=out[done : done + step])
            done += step
        _pow_cache[base] = cached = out
    return cached


def _gram_hashes(arr: np.ndarray, K: int) -> np.ndarray:
    """The top 31 bits of sum(arr[p + t] * _BASE**(K - 1 - t)) mod 2**64 for
    each K-gram p, as int64.

    The word is cast to uint64 first: numpy promotes an int64 times a uint64
    to float64, which would lose the low bits the identity needs.
    """
    import numpy as np

    m = len(arr)
    sums = np.zeros(m + 1, dtype=np.uint64)
    np.multiply(arr, _powers(_INVERSE, m)[:m], out=sums[1:], dtype=np.uint64, casting="unsafe")
    np.cumsum(sums, out=sums)
    grams = sums[K:] - sums[: m - K + 1]
    grams *= _powers(_BASE, m)[K - 1 : m]
    grams >>= 33
    return grams.view(np.int64)


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


def _sparse_cover(K: int) -> tuple[int, tuple[int, ...]]:
    """The largest cover (s, D) in _SPARSE_COVERS with 2s <= K + 1."""
    return next(c for c in _SPARSE_COVERS if 2 * c[0] <= K + 1)


def _blocks_distinct(w: bytes, K: int) -> bool:
    """True when the sampled s-symbol blocks of w are pairwise distinct,
    which proves that w has no square of half-length >= K.

    For (s, D) = _sparse_cover(K), each residue x in D is cut into the
    blocks [x + j*s, x + (j+1)*s) that fit in w, split in C. The proof is
    _samples_distinct's with gram length s: for a square (p, l) with
    l >= K, pick x, y in D with y - x = l (mod s), and the a in [p, p + s)
    with a = x (mod s). Blocks start at a and at a + l = y (mod s), and
    a + s <= p + 2s - 1 <= p + K <= p + l, so the two blocks lie at one
    offset in the two copies and are equal. A repeated block proves
    nothing; the caller then tries the dense plan.
    """
    s, cover = _sparse_cover(K)
    # Blocks are unpacked 64 to a tuple, the last k % 64 one to a tuple. A
    # tuple per block would cost about a quarter of the split; a format of
    # all k blocks would compile a new format per word length.
    many = struct.Struct(f"{s}s" * 64).iter_unpack
    one = struct.Struct(f"{s}s").iter_unpack
    view = memoryview(w)
    seen: set[bytes] = set()
    size = 0
    for x in cover:
        k = (len(w) - x) // s
        mid = x + (k - k % 64) * s
        seen.update(chain.from_iterable(many(view[x:mid])))
        seen.update(chain.from_iterable(one(view[mid : x + k * s])))
        size += k
        if len(seen) != size:
            return False
    return True


def _scan_hashed(arr: np.ndarray, K: int) -> Duplication | None:
    """The leftmost square of the word arr, of integers in 0..255, with
    half-length >= K. The hashes pick the candidate pairs, and each pair is
    verified on the word's bytes, the K-gram first, then the half: a word
    of long equal runs makes millions of candidates, and a numpy call per
    comparison takes about 18 times as long as a bytes one."""
    import numpy as np

    w = arr.astype(np.uint8, copy=False).tobytes()
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
        gram = w[p : p + K]
        for p2 in later[lo:hi].tolist():
            # a collision costs the O(K) gram comparison, not the O(l) one
            if w.startswith(gram, p2) and w.startswith(w[p:p2], p2):
                return Duplication(p, p2 - p)
    return None


def find_leftmost_long(w: Sequence[int], K: int) -> Duplication | None:
    """Leftmost square with half-length >= K, smallest half-length first.

    Symbols must lie in 0..255; MalformedWordError names the first one
    that does not. Returns None when w has no such square. Exact for any
    input: the two sampled certificates only prove absence, and hashing
    only prunes the candidate set; none decides a match. While numpy is not
    loaded, a word longer than 96 symbols is first offered to the sparse
    plan (_blocks_distinct), then, if a block repeats, to the dense plan
    (_samples_distinct), so a word free of long squares is answered without
    importing numpy. Raises ValueError when K is not an integer or K < 1,
    or when w has 2**32 or more symbols, the length at which a gram
    position would overflow its 32-bit field of a packed key.
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
    if "numpy" not in sys.modules and (_blocks_distinct(w, K) or _samples_distinct(w, K)):
        return None
    import numpy as np

    return _scan_hashed(np.frombuffer(w, np.uint8), K)


def is_dup_free(w: Sequence[int], K: int) -> bool:
    """True when w, with symbols in 0..255, has no square of half-length >= K."""
    return find_leftmost_long(w, K) is None
