"""Window counts of a tracked word, and the smallest L-word absent from it.

A window is held as its base-q code (first symbol most significant), so
code order is lexicographic order. A Counter holds the count of every
code that occurs, and no zeros, beside the total number of windows.

find_absent returns the smallest code with count zero. Every code below
a cursor _lo occurs, except the codes on a min-heap _gaps: a code goes
on the heap when its count falls to 0 below _lo. A lookup pops stale
tops (codes that occur again), then returns the top, or else advances
_lo to the first code that does not occur. _lo rises only past codes
that were added, and each heap entry comes from one removal; a heap
that outgrows the counts restarts the cursor at 0, a rescan those
removals paid for. So an edit or a lookup costs amortised O(log n) per
window it touches, and the heap holds O(n) codes.

apply_append and apply_delete check and pack their arguments, then make
the private edit _fill or _cut that the encoder calls directly. _fill
appends a block's runs, counted through Counter's C helper, and looks up
the filler between each two, so the encoder writes a block in one call.
The one digit writer, _digits, joins two cached byte tables' words for a
code's high and low digits. A cut is checked before it changes anything,
so a refused cut changes nothing.
"""

from __future__ import annotations

from collections import Counter, _count_elements
from functools import lru_cache
from heapq import heappop, heappush
from typing import Sequence

from .core import CodeParams, Word, _check_params, _integer, check_word


def _sliceable(w: Sequence[int], q: int) -> Sequence[int]:
    """w itself when it slices as a word (the encoder's bytearray does), else
    w checked and packed, so a slice of it is a word."""
    if isinstance(w, (bytes, bytearray, tuple, list)):
        return w
    return check_word(w, q)


@lru_cache(maxsize=16)
def _chunks(q: int, k: int) -> list[bytes] | _Chunks:
    """Every k-digit base-q word as bytes, in code order: its high k - k // 2
    digits' word joined to its low k // 2 digits', once into a list of at most
    2**12 words (well under a millisecond to build), else on each lookup.
    The cache keeps the 16 most recently used tables."""
    if k == 1:
        return [bytes((d,)) for d in range(q)]
    joined = _Chunks(q, k)
    return joined if q**k > 1 << 12 else [high + low for high in joined._high for low in joined._low]


class _Chunks:
    """Word code of k digits is high[code // split] + low[code % split]."""
    def __init__(self, q: int, k: int):
        self._split, self._high, self._low = q ** (k // 2), _chunks(q, k - k // 2), _chunks(q, k // 2)

    def __getitem__(self, code: int) -> bytes:
        return self._high[code // self._split] + self._low[code % self._split]


class WindowIndex:
    def __init__(self, params: CodeParams):
        _check_params(params)
        self.params = params
        self._top = params.q**params.L
        self._digits = _chunks(params.q, params.L).__getitem__
        self._counts: Counter[int] = Counter()
        self._total = 0
        self._lo = 0
        self._gaps: list[int] = []

    @classmethod
    def build(cls, word: Sequence[int], params: CodeParams) -> "WindowIndex":
        """Index every length-L window of word."""
        ix = cls(params)
        codes = ix._codes(check_word(word, params.q))
        ix._counts, ix._total = Counter(codes), len(codes)
        return ix

    def _codes(self, seg: bytes) -> list[int]:
        """Codes of the length-L windows of seg, left to right."""
        q, L = self.params.q, self.params.L
        if len(seg) < L:
            return []
        top = self._top
        code = 0
        for x in seg[: L - 1]:
            code = code * q + x
        return [code := (code * q + x) % top for x in seg[L - 1 :]]

    @property
    def root_count(self) -> int:
        return self._total

    def window_count(self, window: Sequence[int]) -> int:
        w = check_word(window, self.params.q)
        if len(w) != self.params.L:
            raise ValueError(f"window must have length {self.params.L}, got {len(w)}")
        return self._counts[self._codes(w)[0]]

    def apply_append(self, w_before: Sequence[int], suffix: Sequence[int]) -> None:
        """Account for suffix being appended to the tracked word w_before."""
        q = self.params.q
        suffix = check_word(suffix, q)
        if not suffix:
            return
        w_before = _sliceable(w_before, q)
        tail = w_before[max(0, len(w_before) - self.params.L + 1) :]
        self._fill(check_word(tail, q), [suffix])

    def apply_delete(self, w_before: Sequence[int], a: int, b: int) -> None:
        """Account for positions [a, b) being cut out of w_before.

        A cut that would take some window below count zero leaves the
        index as it was and raises ValueError naming that window.
        """
        L = self.params.L
        if type(a) is not int or type(b) is not int:
            a, b = _integer(a, "range start"), _integer(b, "range end")
        w_before = _sliceable(w_before, self.params.q)
        m = len(w_before)
        if not (0 <= a <= b <= m):
            raise ValueError(f"range [{a}, {b}) invalid for word of length {m}")
        if a == b:
            return
        base = max(0, a - L + 1)
        seg = check_word(w_before[base : min(b + L - 1, m)], self.params.q)
        self._cut(seg, a - base, b - base)

    # The private edits check nothing: w, tail and the runs are bytes or
    # bytearray holding symbols below q, and 0 <= a < b <= len(w).

    def _fill(self, tail: bytes | bytearray, runs: list[bytes]) -> list[bytes]:
        """Append the runs, with the smallest absent L-word between each two,
        to a word ending in tail: its last L - 1 symbols, or all of it when
        shorter. Each filler is looked up once every symbol before it is
        counted. Returns the fillers; a lookup that finds every L-word
        raises ValueError, with the runs before it counted."""
        q, top, counts = self.params.q, self._top, self._counts
        code = 0
        for x in tail:
            code = code * q + x
        skip = self.params.L - 1 - len(tail)  # symbols before the first whole window
        fillers: list[bytes] = []
        for k, run in enumerate(runs):
            if k:
                fillers.append(self._absent())
                run = fillers[-1] + run
            codes = [code := (code * q + x) % top for x in run]
            if skip > 0:
                del codes[:skip]
                skip -= len(run)
            _count_elements(counts, codes)  # Counter.update's C helper, minus its Python dispatch
            self._total += len(codes)
        return fillers

    def _cut(self, w: bytes | bytearray, a: int, b: int) -> None:
        q, L, top = self.params.q, self.params.L, self._top
        base = max(0, a - L + 1)
        seg = w[base : b + L - 1]
        counts = self._counts
        removed: dict[int, int] = {}  # code: windows of seg that hold it
        code = 0
        for x in seg[: L - 1]:
            code = code * q + x
        for x in seg[L - 1 :]:
            code = (code * q + x) % top
            removed[code] = removed.get(code, 0) + 1
        for code, k in removed.items():
            if counts[code] < k:  # name the first window a one-by-one removal finds at zero
                seen: dict[int, int] = {}
                for j, c in enumerate(self._codes(seg)):
                    seen[c] = seen.get(c, 0) + 1
                    if seen[c] > counts[c]:
                        raise ValueError(f"window {tuple(seg[j : j + L])} has zero count, cannot remove")
        # the junction's windows go in first, so no code they keep drops to 0
        junction = self._codes(seg[: a - base] + seg[b - base :])
        if junction:
            counts.update(junction)
        self._total += len(junction) - max(0, len(seg) - L + 1)
        lo, gaps = self._lo, self._gaps
        for code, k in removed.items():
            k = counts[code] - k
            if k:
                counts[code] = k
            else:
                del counts[code]
                if code < lo:
                    heappush(gaps, code)
        if len(gaps) > len(counts) + 64:
            self._lo, self._gaps = 0, []

    def find_absent(self) -> Word:
        """The lexicographically smallest L-word with count zero."""
        return tuple(self._absent())

    def _absent(self) -> bytes:
        counts, gaps = self._counts, self._gaps
        while gaps and gaps[0] in counts:
            heappop(gaps)
        if gaps:
            return self._digits(gaps[0])
        lo = self._lo
        while lo in counts:
            lo += 1
        self._lo = lo
        if lo >= self._top:
            raise ValueError("index holds q**L windows or more; every L-word occurs")
        return self._digits(lo)

    def audit(self, word: Sequence[int]) -> None:
        """Check the counts against a fresh index of word, and that every code
        below _lo is counted or on _gaps, which lie below _lo. Raises ValueError."""
        fresh = WindowIndex.build(word, self.params)
        counts, lo, gaps = self._counts, self._lo, self._gaps
        if counts.items() != fresh._counts.items():
            code = min(counts.items() ^ fresh._counts.items())[0]
            window = tuple(self._digits(code))
            raise ValueError(f"window {window}: stored {counts[code]}, rebuilt {fresh._counts[code]}")
        if self._total != fresh._total:
            raise ValueError(f"window total: stored {self._total}, rebuilt {fresh._total}")
        if not (0 <= lo <= self._top and all(0 <= code < lo for code in gaps)):
            raise ValueError(f"cursor {lo} must lie in [0, {self._top}] above every gap, gaps {sorted(gaps)}")
        lost = set(range(lo)).difference(counts, gaps)
        if lost:
            window = tuple(self._digits(min(lost)))
            raise ValueError(f"window {window} lies below the cursor {lo}, uncounted and no gap")
