"""Counter trie over the length-L windows of a tracked word.

A window is held as one integer, its base-q code c (the first symbol is
the most significant digit). The trie is a complete q-ary tree of depth
L: the node of c at depth d counts the windows whose first d symbols
agree with c's, so the leaves count single L-words and the root counter
is the total number of windows (len(word) - L + 1, or 0 for short
words). Nodes are addressed heap-style: root is 0, child x of node v is
v*q + 1 + x, and the node of c at depth d is

    (q**d - 1) // (q - 1) + c // q**(L - d).

build counts every window with numpy. Edits are staged: apply_append
and apply_delete roll the codes of the windows they touch in Python and
queue them, to add and to remove, and every read (find_absent,
root_count, window_count, audit) first applies the queue. On the dense
store that takes one node array, holding the L + 1 ancestors of every
queued window, and at most two scatter-adds; the sparse store bumps the
ancestors window by window. A removal is checked when it is staged,
against the stored leaves (the queue is applied first if the cut shares
a window with it), so a cut that would take a window below count zero is
refused at once and leaves the counted word unchanged. In the
encoder a cut, its junction and every block appended before the next
filler lookup mostly share one flush. Small tries use a flat int64 array,
large ones a sparse dict that stores no zeros.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from .core import CodeParams, InternalDefectError, Word, _check_params, _integer, check_word

#: Tries with at most this many leaves get a dense int64 array.
DENSE_LEAF_LIMIT = 1 << 22

#: A queue longer than this many windows is applied at once, so edits with
#: no read between them keep bounded memory and a short removal-check scan
#: of the queue. Any value is correct: the encoder reads after every block,
#: so its queue stays below a hundred windows; at 4096 the queue holds about
#: 150 KB of codes and one scan of it takes about 80 us.
QUEUE_LIMIT = 1 << 12


class _SparseCounts(dict):
    """Node -> counter for large tries; a node that is not stored reads as 0."""

    __slots__ = ()

    def __missing__(self, node: int) -> int:
        return 0


def _sliceable(w: Sequence[int], q: int) -> Sequence[int]:
    """w itself when it slices as a word (the encoder's bytearray does), else
    w checked and packed, so a slice of it is a word."""
    if isinstance(w, (bytes, bytearray, tuple, list)):
        return w
    return check_word(w, q)


class WindowIndex:
    def __init__(self, params: CodeParams):
        _check_params(params)
        q, L = params.q, params.L
        self.params = params
        self._pow = [q**e for e in range(L + 1)]
        leaves = self._pow[L]
        self._first_leaf = (leaves - 1) // (q - 1)
        # (first node of depth d, divisor taking a code to its depth-d prefix)
        self._levels = [((self._pow[d] - 1) // (q - 1), self._pow[L - d]) for d in range(L + 1)]
        self._dense = leaves <= DENSE_LEAF_LIMIT
        # codes of the windows queued for adding and for removing; see _flush
        self._add: list[int] = []
        self._sub: list[int] = []
        if self._dense:
            self._counts: np.ndarray | _SparseCounts = np.zeros(self._first_leaf + leaves, np.int64)
            # (first node, divisor) per depth as rows, for flushing the queue
            offs, divs = zip(*self._levels)
            self._offs = np.array(offs, dtype=np.int64)
            self._divs = np.array(divs, dtype=np.int64)
        else:
            self._counts = _SparseCounts()

    @classmethod
    def build(cls, word: Sequence[int], params: CodeParams) -> "WindowIndex":
        """Index every length-L window of word.

        L numpy multiply-adds give every window's code. The dense store
        takes its leaves from one bincount and each level above as the sum
        of q siblings; the sparse store counts distinct prefixes per level.
        """
        ix = cls(params)
        q, L = params.q, params.L
        w = check_word(word, q)
        windows = len(w) - L + 1
        if windows <= 0:
            return ix
        arr = np.frombuffer(w, np.uint8).astype(np.int64)
        if not ix._dense and ix._first_leaf + ix._pow[L] > np.iinfo(np.int64).max:
            arr = arr.astype(object)
        codes = arr[:windows].copy()
        for j in range(1, L):
            codes *= q
            codes += arr[j : j + windows]
        del arr
        if ix._dense:
            level = np.bincount(codes, minlength=ix._pow[L])
            del codes
            for off, _ in reversed(ix._levels):
                ix._counts[off : off + len(level)] = level
                if off:
                    level = level.reshape(-1, q).sum(axis=1)
        else:
            keys, tally = np.unique(codes, return_counts=True)
            del codes
            for off, _ in reversed(ix._levels):
                ix._counts.update(zip((keys + off).tolist(), tally.tolist()))
                if off:
                    keys, starts = np.unique(keys // q, return_index=True)
                    tally = np.add.reduceat(tally, starts)
        return ix

    # -- symbols and codes ----------------------------------------------------

    def _window(self, window: Sequence[int]) -> bytes:
        L = self.params.L
        w = check_word(window, self.params.q)
        if len(w) != L:
            raise ValueError(f"window must have length {L}, got {len(w)}")
        return w

    def _codes(self, seg: bytes) -> list[int]:
        """Codes of the length-L windows of seg, left to right."""
        q, L = self.params.q, self.params.L
        if len(seg) < L:
            return []
        top = self._pow[L]
        code = 0
        for x in seg[: L - 1]:
            code = code * q + x
        return [code := (code * q + x) % top for x in seg[L - 1 :]]

    def _leaf(self, code: int) -> int:
        return int(self._counts[self._first_leaf + code])

    # -- the queue of staged edits --------------------------------------------

    def _stage(self, add: list[int], sub: Sequence[int] = ()) -> None:
        self._add += add
        self._sub += sub
        if len(self._add) + len(self._sub) > QUEUE_LIMIT:
            self._flush()

    def _flush(self) -> None:
        """Apply the queued windows to the counters and empty the queue."""
        add, sub = self._add, self._sub
        if not (add or sub):
            return
        self._add, self._sub = [], []
        counts = self._counts
        if self._dense:
            # Row k holds the L + 1 ancestors of the k-th queued window.
            nodes = np.array(add + sub, dtype=np.int64)[:, None] // self._divs
            nodes += self._offs
            if add:
                np.add.at(counts, nodes[: len(add)], 1)
            if sub:
                np.subtract.at(counts, nodes[len(add) :], 1)
            return
        # The sparse store keeps a per-window loop: on queues of a few dozen
        # windows it beats any numpy pass, whose fixed cost per call dominates.
        # Additions go first, so no counter passes below zero on the way.
        levels = self._levels
        for code in add:
            for off, div in levels:
                counts[off + code // div] += 1
        for code in sub:
            for off, div in levels:
                node = off + code // div
                if counts[node] == 1:
                    del counts[node]
                else:
                    counts[node] -= 1

    def _check_removal(self, seg: bytes, codes: list[int]) -> None:
        """Raise ValueError, naming the first window of seg that removing
        the windows one by one would find at count zero, unless the index
        holds every window of codes."""
        distinct = set(codes)
        if not (distinct.isdisjoint(self._add) and distinct.isdisjoint(self._sub)):
            # the cut shares windows with the queue: apply it, so the leaves answer
            self._flush()
        have = {code: self._leaf(code) for code in distinct}
        # Count each code's windows in C; a cut inside a run repeats one window.
        ordered = sorted(codes)
        if all(bisect_right(ordered, c) - bisect_left(ordered, c) <= n for c, n in have.items()):
            return
        for k, code in enumerate(codes):
            have[code] -= 1
            if have[code] < 0:
                L = self.params.L
                raise ValueError(f"window {tuple(seg[k : k + L])} has zero count, cannot remove")

    # -- counters -------------------------------------------------------------

    @property
    def root_count(self) -> int:
        self._flush()
        return int(self._counts[0])

    def window_count(self, window: Sequence[int]) -> int:
        code = 0
        for x in self._window(window):
            code = code * self.params.q + x
        self._flush()
        return self._leaf(code)

    # -- incremental edits mirroring word edits ------------------------------

    def apply_append(self, w_before: Sequence[int], suffix: Sequence[int]) -> None:
        """Account for suffix being appended to the tracked word w_before."""
        q = self.params.q
        suffix = check_word(suffix, q)
        if not suffix:
            return
        w_before = _sliceable(w_before, q)
        tail = w_before[max(0, len(w_before) - self.params.L + 1) :]
        self._stage(self._codes(check_word(tail, q) + suffix))

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
        cut = self._codes(seg)
        self._check_removal(seg, cut)
        # Windows spanning the new junction at position a.
        self._stage(self._codes(seg[: a - base] + seg[b - base :]), cut)

    # -- absent-window search -------------------------------------------------

    def find_absent(self) -> Word:
        """Lexicographic descent to some L-word with count zero.

        At depth m the search enters the smallest-digit child whose counter
        is below q**(L-m-1); such a child always exists while the root
        counter stays below q**L, and the leaf it reaches counts zero.
        """
        q, L = self.params.q, self.params.L
        self._flush()
        # A memoryview reads single counters as Python ints, at list speed.
        counts = memoryview(self._counts) if self._dense else self._counts
        if counts[0] >= self._pow[L]:
            raise ValueError("index holds q**L windows or more; every L-word occurs")
        v = 0
        digits = []
        for depth in range(L):
            threshold = self._pow[L - depth - 1]
            first = v * q + 1
            for c in range(q):
                if counts[first + c] < threshold:
                    v = first + c
                    digits.append(c)
                    break
            else:
                raise InternalDefectError("absent-window descent found no viable child")
        return tuple(digits)

    # -- integrity ------------------------------------------------------------

    def audit(self, word: Sequence[int]) -> None:
        """Check counters against a fresh index of word. Raises ValueError."""
        self._flush()
        fresh = WindowIndex.build(word, self.params)
        q = self.params.q
        counts = self._counts
        if self._dense:
            wrong = np.flatnonzero(counts != fresh._counts)
            if len(wrong):
                node = int(wrong[0])
                raise ValueError(f"node {node}: stored {counts[node]}, rebuilt {fresh._counts[node]}")
            for (off, _), (below, _) in zip(self._levels, self._levels[1:]):
                # depth-d nodes are off..below-1; their children start at below
                sums = counts[below : below + (below - off) * q].reshape(-1, q).sum(axis=1)
                wrong = np.flatnonzero(counts[off:below] != sums)
                if len(wrong):
                    node = off + int(wrong[0])
                    raise ValueError(f"node {node}: counter {counts[node]} != child sum {sums[wrong[0]]}")
            return
        if counts != fresh._counts:
            raise ValueError("sparse counters disagree with a rebuilt index")
        for node in [node for node in counts if node < self._first_leaf]:
            total = sum(counts[node * q + 1 + c] for c in range(q))
            if counts[node] != total:
                raise ValueError(f"node {node}: counter {counts[node]} != child sum {total}")
