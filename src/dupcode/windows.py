"""Window counts of a tracked word, and the smallest L-word absent from it.

A window is held as its base-q code (first symbol most significant), so
code order is lexicographic order. The count of each code below
S = min(q**L, 4*(n + 1)) is a slot of the flat list _counts, and the
count of each code >= S that occurs is in the dict _big, which holds no
zeros; _total is the number of windows. S keeps the list at O(n) slots
for every q. A lookup's answer is at most the number of windows, and the
encoder's word of n + 1 symbols has at most n + 1 of them, so its
lookups stay below S. For q <= 4, derive_params gives q**L < q*n, so
S = q**L and _big stays empty. A longer word tracked through the public
edits may take the cursor past S; lookups stay exact there, only slower.

find_absent returns the smallest code with count zero. Every code below
a cursor _lo occurs, except the codes on a min-heap _gaps: a code goes
on the heap when its count falls to 0 below _lo. A lookup pops stale
tops (codes that occur again), then returns the top, or else advances
_lo to the first code that does not occur, below S by one C-level
list.index for 0. _lo rises only past codes that were added, and each
heap entry comes from one removal; a heap that outgrows the number of
windows by 64 restarts the cursor at 0, a rescan those removals paid
for. So an edit or a lookup costs amortised O(log n) per window it
touches, and the heap holds O(n) codes.

apply_append and apply_delete check and pack their arguments, then make
the private edit _fill or _cut that the encoder calls directly. _fill
appends a block's runs, rolling each window's code and counting it in
one loop, and looks up the filler between each two with find_absent, so
the encoder writes a block in one call; build and _cut count the windows
they add through _fill too. Every word the index returns is bytes.
The one digit writer, _digits, joins two cached byte tables' words for a
code's high and low digits. A cut is checked before it changes anything,
so a refused cut changes nothing.

A run of m >= L copies of one symbol s holds m - L + 1 windows, each with
the code s * _ones, where _ones = (q**L - 1) // (q - 1) is the code of
1^L; such a run is counted in one step, not rolled symbol by symbol.
build finds the runs of at least L equal symbols with one regex scan of
the XOR of the word and its shift by one, and rolls codes only over the
symbols between them, each gap widened by L - 1 symbols into its runs.
_cut tells by one C-level count when its segment is one symbol
throughout, and then removes it as one code with one count.
"""

from __future__ import annotations

import re
from functools import lru_cache
from heapq import heappop, heappush
from itertools import compress
from typing import Sequence

from .core import CodeParams, Word, _check_params, _integer, check_word, format_word


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
        self._ones = (self._top - 1) // (params.q - 1)  # code of 1^L: s^L's is s * _ones
        self._digits = _chunks(params.q, params.L).__getitem__
        self._counts = [0] * min(self._top, 4 * (params.n + 1))  # one slot per code below S
        self._big: dict[int, int] = {}  # count of each code >= S that occurs
        self._total = 0
        self._lo = 0
        self._gaps: list[int] = []

    @classmethod
    def build(cls, word: Sequence[int], params: CodeParams) -> "WindowIndex":
        """Index every length-L window of word."""
        ix = cls(params)
        w, L, counts = check_word(word, params.q), params.L, ix._counts
        # same[j] is 0 exactly where w[j] == w[j + 1], so k zeros in a row
        # span k + 1 equal symbols: each match is a run of at least L symbols
        # (at least 2 when L = 1). Its leading zeros are spelt out, so the
        # matcher skips to each candidate by a literal prefix search. A regex
        # backreference such as (.)\1{L-1,} finds the runs too, but keeps a
        # backtracking entry per symbol of a run, about 10 MB for a run of 2^17.
        pairs = max(len(w) - 1, 0)
        same = (int.from_bytes(w[1:], "big") ^ int.from_bytes(w[:-1], "big")).to_bytes(pairs, "big")
        start = 0  # first symbol of the next gap's windows
        for run in re.finditer(rb"\x00" * max(L - 1, 1) + rb"\x00*", same):
            s, e = run.start(), run.end() + 1
            ix._fill(b"", [w[start : s + L - 1]])
            code, k = w[s] * ix._ones, e - s - L + 1
            if code < len(counts):
                counts[code] += k
            else:
                ix._big[code] = ix._big.get(code, 0) + k
            ix._total += k
            start = e - L + 1
        ix._fill(b"", [w[start:]])
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

    def _count(self, code: int) -> int:
        """code's count: its list slot below S, its _big entry or 0 from S on."""
        counts = self._counts
        return counts[code] if code < len(counts) else self._big.get(code, 0)

    @property
    def root_count(self) -> int:
        return self._total

    def window_count(self, window: Sequence[int]) -> int:
        w = check_word(window, self.params.q)
        if len(w) != self.params.L:
            raise ValueError(f"window must have length {self.params.L}, got {len(w)}")
        return self._count(self._codes(w)[0])

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
        shorter. One loop rolls each window's code and counts it, in its
        slot of the list below S and in _big from S on. Each filler is
        looked up once every symbol before it is counted. Returns the
        fillers; a lookup that finds every L-word raises ValueError, with
        the runs before it counted."""
        q, top, counts, big = self.params.q, self._top, self._counts, self._big
        size = len(counts)
        code = 0
        for x in tail:
            code = code * q + x
        skip = self.params.L - 1 - len(tail)  # symbols before the first whole window
        fillers: list[bytes] = []
        for k, run in enumerate(runs):
            if k:
                fillers.append(self.find_absent())
                run = fillers[-1] + run
            if skip > 0:
                for x in run[:skip]:
                    code = code * q + x
                run, skip = run[skip:], skip - len(run)
            for x in run:
                code = (code * q + x) % top
                if code < size:
                    counts[code] += 1
                else:
                    big[code] = big.get(code, 0) + 1
            self._total += len(run)
        return fillers

    def _cut(self, w: bytes | bytearray, a: int, b: int) -> None:
        q, L, top = self.params.q, self.params.L, self._top
        base = max(0, a - L + 1)
        seg = w[base : b + L - 1]
        count = self._count
        if len(seg) >= L and seg.count(seg[0]) == len(seg):
            # one symbol throughout: every window of seg is its L-word
            removed = {seg[0] * self._ones: len(seg) - L + 1}
        else:
            removed = {}  # code: windows of seg that hold it
            code = 0
            for x in seg[: L - 1]:
                code = code * q + x
            for x in seg[L - 1 :]:
                code = (code * q + x) % top
                removed[code] = removed.get(code, 0) + 1
        for code, k in removed.items():
            if count(code) < k:  # name the first window a one-by-one removal finds at zero
                seen: dict[int, int] = {}
                for j, c in enumerate(self._codes(seg)):
                    seen[c] = seen.get(c, 0) + 1
                    if seen[c] > count(c):
                        raise ValueError(f"window {format_word(seg[j : j + L], q)} has zero count, cannot remove")
        # the junction's windows (at most L - 1) go in first, so no code they keep drops to 0
        self._fill(b"", [seg[: a - base] + seg[b - base :]])
        self._total -= max(0, len(seg) - L + 1)
        counts, big, lo, gaps = self._counts, self._big, self._lo, self._gaps
        for code, k in removed.items():
            if code < len(counts):
                k = counts[code] = counts[code] - k
            else:
                k = big.pop(code) - k
                if k:
                    big[code] = k
            if not k and code < lo:
                heappush(gaps, code)
        if len(gaps) > self._total + 64:
            self._lo, self._gaps = 0, []

    def find_absent(self) -> Word:
        """The lexicographically smallest L-word with count zero."""
        gaps = self._gaps
        while gaps and self._count(gaps[0]):
            heappop(gaps)
        if gaps:
            return self._digits(gaps[0])
        counts, lo = self._counts, self._lo
        try:
            lo = counts.index(0, lo)
        except ValueError:  # every code from lo up to S occurs
            lo = max(lo, len(counts))
            while lo in self._big:
                lo += 1
        self._lo = lo
        if lo >= self._top:
            raise ValueError("index holds q**L windows or more; every L-word occurs")
        return self._digits(lo)

    def audit(self, word: Sequence[int]) -> None:
        """Check the list and _big against a fresh index of word (so _big
        holds no zeros), and that every code below _lo is counted or on
        _gaps, which lie below _lo. Raises ValueError."""
        fresh = WindowIndex.build(word, self.params)
        counts, big, lo, gaps = self._counts, self._big, self._lo, self._gaps
        if counts != fresh._counts or big != fresh._big:
            stored, rebuilt = ({c: k for c, k in enumerate(ix._counts) if k} | ix._big for ix in (self, fresh))
            code = min(stored.items() ^ rebuilt.items())[0]
            window = format_word(self._digits(code), self.params.q)
            raise ValueError(f"window {window}: stored {self._count(code)}, rebuilt {fresh._count(code)}")
        if self._total != fresh._total:
            raise ValueError(f"window total: stored {self._total}, rebuilt {fresh._total}")
        if not (0 <= lo <= self._top and all(0 <= code < lo for code in gaps)):
            raise ValueError(f"cursor {lo} must lie in [0, {self._top}] above every gap, gaps {sorted(gaps)}")
        lost = set(range(lo)).difference(compress(range(lo), counts), big, gaps)
        if lost:
            window = format_word(self._digits(min(lost)), self.params.q)
            raise ValueError(f"window {window} lies below the cursor {lo}, uncounted and no gap")
