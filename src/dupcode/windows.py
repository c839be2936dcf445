"""Counter trie over the length-L windows of a tracked word.

A window is held as one integer, its base-q code c (the first symbol is
the most significant digit). The trie is a complete q-ary tree of depth
L: the node of c at depth d counts the windows whose first d symbols
agree with c's, so the leaves count single L-words and the root counter
is the total number of windows (len(word) - L + 1, or 0 for short
words). Nodes are addressed heap-style: root is 0, child x of node v is
v*q + 1 + x, and the node of c at depth d is

    (q**d - 1) // (q - 1) + c // q**(L - d).

build counts every window with numpy. An edit rolls the window code
along the touched segment in Python. On the dense store it then applies
the L + 1 ancestors of all its windows as one node vector with a single
np.add.at; the sparse store bumps them window by window. Small tries use
a flat int64 array, large ones a sparse dict that stores no zeros.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import CodeParams, InternalDefectError, Word, check_word

#: Tries with at most this many leaves get a dense int64 array.
DENSE_LEAF_LIMIT = 1 << 22


class _SparseCounts(dict):
    """Node -> counter for large tries; a node that is not stored reads as 0."""

    __slots__ = ()

    def __missing__(self, node: int) -> int:
        return 0


class WindowIndex:
    def __init__(self, params: CodeParams):
        q, L = params.q, params.L
        self.params = params
        self._pow = [q**e for e in range(L + 1)]
        leaves = self._pow[L]
        self._first_leaf = (leaves - 1) // (q - 1)
        # (first node of depth d, divisor taking a code to its depth-d prefix)
        self._levels = [((self._pow[d] - 1) // (q - 1), self._pow[L - d]) for d in range(L + 1)]
        self._dense = leaves <= DENSE_LEAF_LIMIT
        if self._dense:
            self._counts: np.ndarray | _SparseCounts = np.zeros(self._first_leaf + leaves, np.int64)
            # columns of (first node, divisor) per depth, for whole-segment edits
            offs, divs = zip(*self._levels)
            self._offs = np.array(offs, dtype=np.int64)[:, None]
            self._divs = np.array(divs, dtype=np.int64)[:, None]
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
        if len(window) != L:
            raise ValueError(f"window must have length {L}, got {len(window)}")
        return check_word(window, self.params.q)

    def _walk(self, seg: bytes, delta: int) -> None:
        """Add (delta=1) or remove (delta=-1) every length-L window of seg.

        seg is packed by check_word. A removal that would take a
        window below count zero leaves the index as it was and raises
        ValueError.
        """
        q, L = self.params.q, self.params.L
        if len(seg) < L:
            return
        top = self._pow[L]
        code = 0
        for x in seg[: L - 1]:
            code = code * q + x
        codes = [code := (code * q + x) % top for x in seg[L - 1 :]]
        counts = self._counts
        if self._dense:
            # Row d holds the depth-d ancestor of every window; the last row
            # holds the leaves. Subtract, then look for a negative leaf: that
            # also catches a window repeated inside seg more often than it
            # is stored, which checking each leaf once beforehand would miss.
            nodes = self._offs + np.array(codes, dtype=np.int64) // self._divs
            np.add.at(counts, nodes, delta)
            if delta < 0 and counts[nodes[-1]].min() < 0:
                np.add.at(counts, nodes, -delta)
                self._refuse_removal(seg, codes)
            return
        # The sparse store keeps a per-window loop: on edits of a few dozen
        # windows it beats any numpy pass, whose fixed cost per call dominates.
        leaf0 = self._first_leaf
        levels = self._levels
        for k, code in enumerate(codes):
            if delta < 0 and counts[leaf0 + code] <= 0:
                self._walk(seg[: k + L - 1], 1)
                raise ValueError(f"window {tuple(seg[k : k + L])} has zero count, cannot remove")
            if delta < 0:
                for off, div in levels:
                    node = off + code // div
                    if counts[node] == 1:
                        del counts[node]
                    else:
                        counts[node] -= 1
            else:
                for off, div in levels:
                    counts[off + code // div] += 1

    def _refuse_removal(self, seg: bytes, codes: list[int]) -> None:
        """Raise the ValueError for the first window of seg that removing
        the windows one by one would find at count zero."""
        L = self.params.L
        taken: dict[int, int] = {}
        for k, code in enumerate(codes):
            taken[code] = taken.get(code, 0) + 1
            if taken[code] > self._counts[self._first_leaf + code]:
                break
        raise ValueError(f"window {tuple(seg[k : k + L])} has zero count, cannot remove")

    # -- multiset updates ---------------------------------------------------

    @property
    def root_count(self) -> int:
        return int(self._counts[0])

    def window_count(self, window: Sequence[int]) -> int:
        code = 0
        for x in self._window(window):
            code = code * self.params.q + x
        return int(self._counts[self._first_leaf + code])

    def add_window(self, window: Sequence[int]) -> None:
        self._walk(self._window(window), 1)

    def remove_window(self, window: Sequence[int]) -> None:
        self._walk(self._window(window), -1)

    # -- incremental edits mirroring word edits ------------------------------

    def apply_append(self, w_before: Sequence[int], suffix: Sequence[int]) -> None:
        """Account for suffix being appended to the tracked word w_before."""
        if not len(suffix):
            return
        base = max(0, len(w_before) - self.params.L + 1)
        self._walk(check_word([*w_before[base:], *suffix], self.params.q), 1)

    def apply_delete(self, w_before: Sequence[int], a: int, b: int) -> None:
        """Account for positions [a, b) being cut out of w_before."""
        L = self.params.L
        m = len(w_before)
        if not (0 <= a <= b <= m):
            raise ValueError(f"range [{a}, {b}) invalid for word of length {m}")
        if a == b:
            return
        base = max(0, a - L + 1)
        seg = check_word(w_before[base : min(b + L - 1, m)], self.params.q)
        self._walk(seg, -1)
        # Windows spanning the new junction at position a.
        self._walk(seg[: a - base] + seg[b - base :], 1)

    # -- absent-window search -------------------------------------------------

    def find_absent(self) -> Word:
        """Lexicographic descent to some L-word with count zero.

        At depth m the search enters the smallest-digit child whose counter
        is below q**(L-m-1); such a child always exists while the root
        counter stays below q**L, and the leaf it reaches counts zero.
        """
        q, L = self.params.q, self.params.L
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
