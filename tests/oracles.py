"""Independent reference implementations used as test oracles.

Everything in this module is deliberately written the dumb way — plain
lists, Counters, and slice comparisons — and shares no code with the
package beyond the public contracts it re-implements. Agreement between
these and the real implementations is what the oracle tests check. The
one exception is CursorTravel, a probe that counts what the package's
gap buffer does rather than re-implementing it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

import numpy as np


def params_for(q: int, n: int) -> tuple[int, int]:
    """(L, K): smallest L with q**L >= n, and the threshold K = 4L + 1."""
    L = 0
    while q**L < n:
        L += 1
    return L, 4 * L + 1


def digits_of(value: int, q: int, L: int) -> list[int]:
    out = []
    for _ in range(L):
        value, d = divmod(value, q)
        out.append(d)
    assert value == 0
    return out[::-1]


def value_of(digits: Sequence[int], q: int) -> int:
    v = 0
    for d in digits:
        v = v * q + d
    return v


def naive_leftmost(w: Sequence[int], K: int) -> tuple[int, int] | None:
    """First (i, l) in lexicographic order with w[i:i+l] == w[i+l:i+2l], l >= K."""
    w = tuple(w)
    m = len(w)
    for i in range(m - 2 * K + 1):
        for l in range(K, (m - i) // 2 + 1):
            if w[i] == w[i + l] and w[i : i + l] == w[i + l : i + 2 * l]:
                return i, l
    return None


def scan_by_length_leftmost(w: Sequence[int], K: int) -> tuple[int, int] | None:
    """Same answer as naive_leftmost via a different route: per-half-length
    vectorized run detection, then a lexicographic minimum over the hits."""
    arr = np.asarray(w, dtype=np.int64)
    m = len(arr)
    best: tuple[int, int] | None = None
    for l in range(K, m // 2 + 1):
        eq = (arr[l:] == arr[:-l]).astype(np.int64)
        c = np.concatenate(([0], np.cumsum(eq)))
        starts = np.nonzero(c[l:] - c[:-l] == l)[0]
        if len(starts):
            cand = (int(starts[0]), l)
            if best is None or cand < best:
                best = cand
    return best


def window_tally(w: Sequence[int], L: int) -> Counter:
    w = tuple(w)
    return Counter(w[s : s + L] for s in range(len(w) - L + 1))


def tally_find_absent(tally: Counter, q: int, L: int) -> tuple[int, ...]:
    """The lexicographically smallest L-word the tally does not hold: the
    first word of itertools.product(range(q), repeat=L) with count zero."""
    for word in itertools.product(range(q), repeat=L):
        if tally[word] == 0:
            return word
    raise AssertionError("every L-word occurs")


def ref_encode(
    x: Sequence[int], q: int, n: int, hits: list[tuple[int, int]] | None = None
) -> tuple[int, ...]:
    """List-splicing re-implementation of the encoder. Each square (i, l)
    it cuts is appended to hits, unless hits is None.

    It also asserts, on every square it cuts, that the left copy lies in
    the prefix not yet rewritten (i + l <= d_len), the invariant that lets
    the package's encoder search only w[:2*d_len] after a cut; the square
    comes from naive_leftmost on the whole word."""
    L, K = params_for(q, n)
    assert len(x) == n
    w = list(x) + [0]
    d_len = n + 1  # length of the prefix not yet rewritten
    rounds = 0
    while True:
        hit = naive_leftmost(w, K)
        if hit is None:
            return tuple(w)
        rounds += 1
        assert rounds <= n + 2, "encoder failed to terminate"
        i, l = hit
        assert i + l <= d_len, f"square {hit} reaches past the unprocessed prefix of {d_len}"
        d_len -= l
        if hits is not None:
            hits.append(hit)
        r = (l - 2 * L - 1) // L
        t = (l - 1) % L
        assert r >= 2 and 2 * L + r * L + t + 1 == l
        del w[i : i + l]
        w += digits_of(i, q, L)
        for _ in range(r - 1):
            w += list(tally_find_absent(window_tally(w, L), q, L))
        w += [0] * t
        w += list(tally_find_absent(window_tally(w, L), q, L))
        w += digits_of(l, q, L)
        w += [1]
        assert len(w) == n + 1


def replay_trace(x: Sequence[int], trace, q: int, n: int) -> tuple[int, ...]:
    """Rebuild the codeword from the message and the encoder's records.

    Each record (i, l, r, t, fillers) cuts w[i:i+l] and appends
    i's digits, the fillers with 0^t before the last one, l's digits and a
    final 1. Every filler must be absent from the word it is appended to.
    """
    L, _ = params_for(q, n)
    assert len(x) == n
    w = list(x) + [0]
    for rec in trace:
        assert len(rec.fillers) == rec.r
        del w[rec.i : rec.i + rec.l]
        w += digits_of(rec.i, q, L)
        for k, filler in enumerate(rec.fillers):
            if k == rec.r - 1:
                w += [0] * rec.t
            assert len(filler) == L
            assert window_tally(w, L)[tuple(filler)] == 0, (rec, filler)
            w += list(filler)
        w += digits_of(rec.l, q, L)
        w += [1]
        assert len(w) == n + 1
    return tuple(w)


def ref_decode(y: Sequence[int], q: int, n: int) -> tuple[int, ...]:
    """List-splicing re-implementation of the decoder."""
    L, K = params_for(q, n)
    assert len(y) == n + 1
    w = list(y)
    rounds = 0
    while True:
        rounds += 1
        assert rounds <= n + 2, "decoder failed to terminate"
        if w[-1] == 0:
            return tuple(w[:-1])
        assert w[-1] == 1
        m = len(w)
        l = value_of(w[m - 1 - L : m - 1], q)
        assert K <= l <= m
        i = value_of(w[m - l : m - l + L], q)
        del w[m - l :]
        assert i + l <= len(w)
        seg = w[i : i + l]
        w[i + l : i + l] = seg
        assert len(w) == n + 1


class CursorTravel:
    """Counts the symbols an EditableWord cursor moves over.

    It wraps EditableWord._seek, through which every cursor move goes,
    with patch.setattr, so it lasts as long as the pytest monkeypatch (or
    monkeypatch.context()) `patch`. `symbols` sums the moves made since it
    was built; set it to 0 to start a new count.
    """

    def __init__(self, patch) -> None:
        from dupcode.seqword import EditableWord

        self.symbols = 0
        seek = EditableWord._seek

        def counting_seek(word, p: int) -> None:
            self.symbols += abs(p - len(word._left))
            seek(word, p)

        patch.setattr(EditableWord, "_seek", counting_seek)
