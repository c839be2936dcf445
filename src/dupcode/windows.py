"""Window counts of a tracked word, and the smallest L-word absent from it.

A window is held as its base-q code (first symbol most significant), so
code order is lexicographic order. numpy computes every code: the codes
of a segment's windows are L multiply-adds over its bytes, in int64, or
in Python ints (dtype object) once q**L >= 2**62, so they stay exact for
every q and L. The count of each code below S = min(q**L, 4*(n + 1)) is
a slot of the numpy array _counts, int32 until the index holds 2**31
windows (no count exceeds that total), then int64; np.zeros asks for
zeroed memory, so an array mapped fresh, as a large one is, maps only
the pages a count is written in. The count of each code >= S that
occurs is in the dict _big, which holds no zeros; _total is the number
of windows. A lookup's answer is at most the number of windows, at most
n + 1 in the encoder's word, so its lookups stay below S. For q <= 4,
derive_params gives q**L < q*n, so S = q**L and _big stays empty. A
longer word tracked through the public edits may take the cursor past
S; lookups stay exact there, only slower.

Every code below the cursor _lo occurs. _absent lists the smallest codes
with count zero: the zeros from _lo on, found by np.flatnonzero over
slices of the counts, and moves _lo to the first of them. A fill only
adds windows, so it keeps the invariant; _cut lowers _lo to the smallest
code it frees. So the cursor falls only at a cut, and the lookups after
it rescan at most the S <= 4*(n + 1) slots it fell, O(n) per cut. The
encoder cuts at most (n + 1) / K times, with K > 4 log_q n, so the
rescans stay within the paper's O(n**2 / log n), and each cut pays a
square search of O(n log n) already.

apply_append and apply_delete check and pack their arguments, then make
the private edit _fill or _cut that the encoder calls directly. _fill
appends a block's runs with the smallest absent L-word between each two,
choosing these fillers a round at a time (its docstring has the round
and why it is exact), so the encoder writes 64 blocks in one call. build
counts with one np.add.at, and _cut removes its segment's codes as one
np.unique tally, refusing a cut that would take a count below zero
before it changes anything. Every word the index returns is bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import CodeParams, Word, _check_params, _integer, check_word, format_word, to_digits


def _sliceable(w: Sequence[int], q: int) -> Sequence[int]:
    """w itself when it slices as a word (the encoder's bytearray does), else
    w checked and packed, so a slice of it is a word."""
    if isinstance(w, (bytes, bytearray, tuple, list)):
        return w
    return check_word(w, q)


class WindowIndex:
    def __init__(self, params: CodeParams):
        _check_params(params)
        self.params = params
        self._top = params.q**params.L
        self._dtype = np.int64 if self._top < 1 << 62 else object
        self._powers = params.q ** np.arange(params.L - 1, -1, -1, dtype=self._dtype)  # digit j's weight
        self._counts = np.zeros(min(self._top, 4 * (params.n + 1)), np.int32)  # one slot per code below S
        self._big: dict[int, int] = {}  # count of each code >= S that occurs
        self._total = 0
        self._lo = 0  # every code below it occurs

    @classmethod
    def build(cls, word: Sequence[int], params: CodeParams) -> "WindowIndex":
        """Index every length-L window of word."""
        ix = cls(params)
        ix._add(ix._codes(check_word(word, params.q)))
        return ix

    def _codes(self, seg: bytes | bytearray) -> np.ndarray:
        """Codes of the length-L windows of seg, left to right."""
        x = np.frombuffer(seg, np.uint8).astype(self._dtype)
        m = len(x) - self.params.L + 1
        if m <= 0:
            return x[:0]
        codes = x[:m].copy()
        for j in range(1, self.params.L):
            codes *= self.params.q
            codes += x[j : j + m]
        return codes

    def _add(self, codes: np.ndarray) -> None:
        """Count the windows with these codes: one np.add.at into the slots
        below S, and _big from S on."""
        self._total += len(codes)
        if self._total >> 31 and self._counts.dtype == np.int32:  # no count may pass the total
            self._counts = self._counts.astype(np.int64)
        counts, small = self._counts, codes
        if self._top > len(counts):
            below = codes < len(counts)
            for code in codes[~below].tolist():
                self._big[code] = self._big.get(code, 0) + 1
            small = codes[below].astype(np.int64)
        np.add.at(counts, small, counts.dtype.type(1))  # a 1 of the array's type keeps numpy's fast loop

    def _count(self, code: int) -> int:
        """code's count: its slot below S, its _big entry or 0 from S on."""
        return int(self._counts[code]) if code < len(self._counts) else self._big.get(code, 0)

    @property
    def root_count(self) -> int:
        return self._total

    def window_count(self, window: Sequence[int]) -> int:
        w = check_word(window, self.params.q)
        if len(w) != self.params.L:
            raise ValueError(f"window must have length {self.params.L}, got {len(w)}")
        return self._count(self._codes(w).tolist()[0])

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
        shorter. Returns these fillers; a lookup that finds every L-word
        raises ValueError, with the runs before it counted.

        A round takes the smallest absent codes c_0 < c_1 < ... as guesses,
        joins tail, run, c_0, run, c_1, ... into one chunk, computes its
        window codes, and finds by one searchsorted the first k for which a
        window ending before c_k starts spells c_k. It counts the windows
        before c_k (all, if there is no such k), keeps c_0 .. c_{k-1}, and
        the next round, from c_k's place, guesses 2k + 1. This is exact: a
        fill never lowers a count, so once c_0 .. c_{j-1} are written every
        code below c_j occurs, and c_j is absent unless a window written
        since the round began spells it, which for j < k none does. Each
        round keeps a filler or, at k = 0, counts a run after which c_0
        holds, and guessing 2k + 1 after k kept keeps the rework linear."""
        L = self.params.L
        fillers: list[bytes] = []
        r, want, lead = 0, len(runs) - 1, runs[0]  # the round starts at run r with lead and guesses want fillers
        while True:
            need = len(runs) - 1 - r
            cands = self._absent(min(want, need)) if need else []
            m = len(cands)
            guess = np.array(cands, self._dtype)
            digits = (guess[:, None] // self._powers % self.params.q).astype(np.uint8).tobytes()
            parts = [b""] * (2 * m + 2)
            parts[0], parts[1] = tail, lead
            parts[2::2] = [digits[j : j + L] for j in range(0, m * L, L)]
            parts[3::2] = runs[r + 1 : r + 1 + m]
            chunk = b"".join(parts)
            codes = self._codes(chunk)
            ends = np.cumsum(np.fromiter(map(len, parts), np.int64, len(parts)))  # guess j starts at ends[2j + 1]
            k = m
            if m:
                at = np.minimum(np.searchsorted(guess, codes), m - 1)
                early = (guess[at] == codes) & (np.arange(len(codes)) <= ends[2 * at + 1] - L)
                if early.any():
                    k = int(at[early].min())
            end = int(ends[2 * k + 1])
            self._add(codes[: max(end - L + 1, 0)])
            fillers += parts[2 : 2 * k + 2 : 2]
            if k == m == need:
                return fillers
            if not m:
                raise ValueError("index holds q**L windows or more; every L-word occurs")
            tail, r, want, lead = chunk[max(end - L + 1, 0) : end], r + k, 2 * k + 1, b""  # run r + k is counted

    def _cut(self, w: bytes | bytearray, a: int, b: int) -> None:
        L, counts, big = self.params.L, self._counts, self._big
        base = max(0, a - L + 1)
        seg = w[base : b + L - 1]
        codes = self._codes(seg)
        removed, times = np.unique(codes, return_counts=True)
        below = removed < len(counts)
        large = dict(zip(removed[~below].tolist(), times[~below].tolist()))
        removed, times = removed[below].astype(np.int64), times[below]
        if (counts[removed] < times).any() or any(big.get(code, 0) < k for code, k in large.items()):
            seen: dict[int, int] = {}  # name the first window a one-by-one removal finds at zero
            for j, c in enumerate(codes.tolist()):
                seen[c] = seen.get(c, 0) + 1
                if seen[c] > self._count(c):
                    raise ValueError(f"window {format_word(seg[j : j + L], self.params.q)} has zero count, cannot remove")
        # the junction's windows (at most L - 1) go in first, so no code they keep drops to 0
        self._fill(b"", [seg[: a - base] + seg[b - base :]])
        self._total -= len(codes)
        counts[removed] -= times
        freed = removed[counts[removed] == 0].tolist()
        for code, k in large.items():
            big[code] -= k
            if not big[code]:
                del big[code]
                freed.append(code)
        self._lo = min([self._lo, *freed])

    def _absent(self, want: int) -> list[int]:
        """The want smallest codes with count zero, ascending, or all of them
        when fewer: the zeros from the cursor on, which moves to the first
        of them (or past the codes it scanned, when there are none)."""
        out, end, size, span = [], self._lo, len(self._counts), 2 * want + 64
        while len(out) < want and end < size:
            hi = min(size, end + span)
            out += (np.flatnonzero(self._counts[end:hi] == 0)[: want - len(out)] + end).tolist()
            end, span = hi, 2 * span
        while len(out) < want and end < self._top:  # from S on, the codes _big lacks
            if end not in self._big:
                out.append(end)
            end += 1
        self._lo = out[0] if out else end
        return out

    def find_absent(self) -> Word:
        """The lexicographically smallest L-word with count zero."""
        found = self._absent(1)
        if not found:
            raise ValueError("index holds q**L windows or more; every L-word occurs")
        return to_digits(found[0], self.params)

    def audit(self, word: Sequence[int]) -> None:
        """Check the counts and _big against a fresh index of word (so _big
        holds no zeros), and that every code below _lo occurs. Raises
        ValueError."""
        fresh = WindowIndex.build(word, self.params)
        counts, big, lo = self._counts, self._big, self._lo
        if not np.array_equal(counts, fresh._counts) or big != fresh._big:
            stored, rebuilt = ({c: ix._count(c) for c in np.flatnonzero(ix._counts).tolist()} | ix._big for ix in (self, fresh))
            code = min(stored.items() ^ rebuilt.items())[0]
            window = format_word(to_digits(code, self.params), self.params.q)
            raise ValueError(f"window {window}: stored {self._count(code)}, rebuilt {fresh._count(code)}")
        if self._total != fresh._total:
            raise ValueError(f"window total: stored {self._total}, rebuilt {fresh._total}")
        if not 0 <= lo <= self._top:
            raise ValueError(f"cursor {lo} must lie in [0, {self._top}]")
        lost = set(np.flatnonzero(counts[:lo] == 0).tolist()).union(range(len(counts), lo)).difference(big)
        if lost:
            window = format_word(to_digits(min(lost), self.params), self.params.q)
            raise ValueError(f"window {window} lies below the cursor {lo} and does not occur")
