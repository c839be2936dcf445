"""Flat window counts against a from-scratch sliding-window tally."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dupcode import windows
from dupcode.codec import encode
from dupcode.core import CodeParams, derive_params, format_word, to_digits
from dupcode.windows import WindowIndex

from oracles import tally_find_absent, window_tally

SRC = str(Path(windows.__file__).resolve().parent.parent)


def _params(q: int, L: int) -> CodeParams:
    # windows only consume q and L; n/K are irrelevant here
    return CodeParams(q=q, n=2, L=L, K=4 * L + 1)


def test_counts_for_0011():
    p = _params(2, 2)
    idx = WindowIndex.build((0, 0, 1, 1), p)
    assert idx.root_count == 3
    assert idx.window_count((0, 0)) == 1
    assert idx.window_count((0, 1)) == 1
    assert idx.window_count((1, 0)) == 0
    assert idx.window_count((1, 1)) == 1
    assert idx.find_absent() == bytes((1, 0))
    idx.audit((0, 0, 1, 1))


def test_word_shorter_than_window():
    p = _params(2, 4)
    idx = WindowIndex.build((0, 1), p)
    assert idx.root_count == 0
    assert idx.find_absent() == bytes((0, 0, 0, 0))


def test_add_remove_window():
    """Windows come and go with the word edits that carry them, and a cut
    of a window the index no longer holds is refused."""
    p = _params(3, 2)
    word = [0, 1, 2]
    idx = WindowIndex.build(word, p)
    idx.apply_append(word, [0, 1])
    word += [0, 1]  # 0 1 2 0 1
    assert idx.window_count((0, 1)) == 2
    idx.apply_delete(word, 0, 1)
    del word[0:1]  # 1 2 0 1
    idx.apply_delete(word, 2, 4)
    del word[2:4]  # 1 2
    assert idx.window_count((0, 1)) == 0
    with pytest.raises(ValueError, match="window 01 has zero count"):
        idx.apply_delete((0, 1), 0, 1)
    idx.audit(word)


def test_find_absent_requires_room():
    p = _params(2, 1)
    idx = WindowIndex.build((0, 1), p)  # both length-1 windows present
    with pytest.raises(ValueError, match="every L-word occurs"):
        idx.find_absent()
    # q**L windows that repeat one word still leave the others absent
    assert WindowIndex.build((0,) * 5, _params(2, 2)).find_absent() == bytes((0, 1))


def test_find_absent_returns_the_smallest_absent_word():
    """01 occurs twice and 10 once, so 00 and 11 are absent: the smallest,
    00, is the answer, whether the word is built or appended."""
    p = _params(2, 2)
    word = (0, 1, 0, 1)
    assert WindowIndex.build(word, p).find_absent() == bytes((0, 0))
    staged = WindowIndex.build(word[:2], p)
    staged.apply_append(word[:2], word[2:])
    assert staged.find_absent() == bytes((0, 0))
    assert tally_find_absent(window_tally(word, 2), 2, 2) == (0, 0)


def _past_the_cursor() -> tuple[WindowIndex, list[int]]:
    """An index of 0 0 1 0 2 (q = 3, L = 2) whose cursor a lookup has moved
    past 00, 01, 02 and 10 to 11, the smallest absent word."""
    word = [0, 0, 1, 0, 2]
    idx = WindowIndex.build(word, _params(3, 2))
    assert idx.find_absent() == bytes((1, 1)) and idx._lo == 4
    return idx, word


def test_a_cut_frees_a_code_below_the_cursor():
    """Cutting the first 0 removes the only 00, which lies below the
    cursor; it goes on the heap and is the next word found."""
    idx, word = _past_the_cursor()
    idx.apply_delete(word, 0, 1)
    del word[0]
    assert idx._gaps == [0]
    assert idx.find_absent() == bytes((0, 0)) == bytes(tally_find_absent(window_tally(word, 2), 3, 2))
    idx.audit(word)


def test_a_stale_gap_is_skipped():
    """After 00 is freed, cutting the 1 out of 0 1 0 2 removes 01 and 10
    and its junction window re-adds 00: the heap's top, 00, is stale, and
    the lookup passes it for 01."""
    idx, word = _past_the_cursor()
    idx.apply_delete(word, 0, 1)
    del word[0]
    idx.apply_delete(word, 1, 2)
    del word[1]
    assert word == [0, 0, 2] and idx._gaps[0] == 0 and idx.window_count((0, 0)) == 1
    assert idx.find_absent() == bytes((0, 1)) == bytes(tally_find_absent(window_tally(word, 2), 3, 2))
    assert 0 not in idx._gaps
    idx.audit(word)


def _spelled(q: int, L: int, codes: int) -> list[int]:
    """The L-words of codes 0 .. codes - 1 written one after another, so
    each of those codes occurs."""
    return [d for c in range(codes) for d in to_digits(c, _params(q, L))]


def test_stale_gaps_restart_the_cursor():
    """Cutting and re-appending the last symbol frees and re-adds the last
    window below the cursor each time, and no lookup pops the stale
    entries; once they outnumber the windows by 64 the cursor starts again
    at 0. The freed code is 02 in the list, and 111, code 13, from
    S = 12 on, in _big (q = 3, L = 3)."""
    idx, word = _past_the_cursor()
    wide = _spelled(3, 3, 14)  # ends in 111, its only 111
    wide_idx = WindowIndex.build(wide, _params(3, 3))
    wide_idx.find_absent()  # moves the cursor past 111
    for idx, word, L in ((idx, word, 2), (wide_idx, wide, 3)):
        freed = idx._codes(bytes(word[-L:]))[0]
        assert freed < idx._lo and (freed < len(idx._counts)) == (L == 2)
        for _ in range(500):
            last = word[-1]
            idx.apply_delete(word, len(word) - 1, len(word))
            idx.apply_append(word[:-1], [last])
            assert len(idx._gaps) <= idx.root_count + 64
        assert idx._lo == 0
        idx.audit(word)
        assert idx.find_absent() == bytes(tally_find_absent(window_tally(word, L), 3, L))


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda idx: setattr(idx, "_lo", 5), r"window 11 lies below the cursor 5"),
        (lambda idx: idx._gaps.clear(), r"window 00 lies below the cursor 4"),
        (lambda idx: idx._gaps.append(4), r"cursor 4 must lie in \[0, 9\] above every gap, gaps \[0, 4\]"),
        (lambda idx: setattr(idx, "_lo", 10), r"cursor 10 must lie in \[0, 9\]"),
        (lambda idx: idx._counts.__setitem__(8, 1), r"window 22: stored 1, rebuilt 0"),
        (lambda idx: idx._counts.__setitem__(1, 0), r"window 01: stored 0, rebuilt 1"),
    ],
    ids=["cursor-past-a-gap", "gap-lost", "gap-at-cursor", "cursor-past-top", "count", "zero"],
)
def test_audit_finds_a_corrupted_cursor_or_count(corrupt, message):
    idx, word = _past_the_cursor()
    idx.apply_delete(word, 0, 1)
    del word[0]
    idx.audit(word)
    corrupt(idx)
    with pytest.raises(ValueError, match=message):
        idx.audit(word)


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda idx: idx._big.__setitem__(17, 2), r"window 122: stored 2, rebuilt 1"),
        (lambda idx: idx._big.__setitem__(26, 1), r"window 222: stored 1, rebuilt 0"),
        (lambda idx: idx._big.pop(24), r"window 220: stored 0, rebuilt 1"),
        (lambda idx: idx._big.__setitem__(26, 0), r"window 222: stored 0, rebuilt 0"),
    ],
    ids=["count", "extra", "lost", "zero"],
)
def test_audit_finds_a_corrupted_count_from_S_on(corrupt, message):
    """At q = 3, L = 3 (n = 2) the list ends at S = 12; 0 0 1 2 2 0 holds
    122 (code 17) and 220 (code 24) in _big, which may hold no zero."""
    word = [0, 0, 1, 2, 2, 0]
    idx = WindowIndex.build(word, _params(3, 3))
    assert len(idx._counts) == 12 and idx._big == {17: 1, 24: 1}
    idx.audit(word)
    corrupt(idx)
    with pytest.raises(ValueError, match=message):
        idx.audit(word)


@pytest.mark.parametrize("q,L", [(2, 3), (3, 2), (4, 2), (2, 23), (256, 3)])
def test_edits_match_fresh_rebuild(q, L):
    p = _params(q, L)
    rng = random.Random(1000 * q + L)
    word = [rng.randrange(q) for _ in range(30)]
    idx = WindowIndex.build(word, p)
    for _ in range(120):
        if rng.random() < 0.55 or len(word) < 2:
            suffix = [rng.randrange(q) for _ in range(rng.randint(1, 4))]
            idx.apply_append(word, suffix)
            word += suffix
        else:
            a = rng.randint(0, len(word))
            b = rng.randint(a, min(len(word), a + 5))
            idx.apply_delete(word, a, b)
            del word[a:b]
        idx.audit(word)
        fresh = WindowIndex.build(word, p)
        assert idx.root_count == fresh.root_count
        tally = window_tally(word, L)
        if idx.root_count < q**L:
            found = idx.find_absent()
            assert tally.get(found, 0) == 0
            assert found == bytes(tally_find_absent(tally, q, L))


def test_absent_word_is_no_factor():
    """Whenever fewer windows exist than leaves, the reported word must be
    genuinely missing from the indexed word."""
    rng = random.Random(7)
    p = _params(2, 4)
    for _ in range(50):
        word = [rng.randrange(2) for _ in range(rng.randint(0, 14))]
        idx = WindowIndex.build(word, p)
        found = idx.find_absent()
        text = "".join(map(str, word))
        assert "".join(map(str, found)) not in text


def test_delete_of_empty_range_is_identity():
    p = _params(2, 2)
    word = [0, 1, 0, 1, 1]
    idx = WindowIndex.build(word, p)
    before = {w: idx.window_count(w) for w in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    idx.apply_delete(word, 3, 3)
    after = {w: idx.window_count(w) for w in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    assert before == after
    idx.audit(word)


@pytest.mark.parametrize("q,L", [(2, 5), (4, 3), (200, 3)])
def test_build_matches_tally(q, L):
    p = _params(q, L)
    rng = random.Random(q + L)
    for length in (0, L - 1, L, L + 1, 60, 400):
        word = [rng.randrange(q) for _ in range(length)]
        idx = WindowIndex.build(word, p)
        tally = window_tally(word, L)
        assert idx.root_count == sum(tally.values()) == max(0, length - L + 1)
        for w, c in tally.items():
            assert idx.window_count(w) == c
        idx.audit(word)  # so no window outside the tally counts


@pytest.mark.parametrize("q,L", [(2, 1), (3, 2), (4, 9), (11, 3), (256, 3)])
def test_build_of_runs_matches_tally(q, L):
    """build counts the windows inside and between runs of equal symbols.
    Runs of L - 1, L, L + 1 and 2L + 1 symbols stand at the start, in the
    middle and at the end of a word, runs of different symbols stand side
    by side, and some words are shorter than L. The run symbol is q - 1:
    10 (b"\\n") at q = 11 and 255 at q = 256."""
    p = _params(q, L)
    rng = random.Random(q * 100 + L)
    top = q - 1
    mixed = [0, 1] * L  # no two neighbours equal
    words = [mixed[: L - 1], []]
    for m in (L - 1, L, L + 1, 2 * L + 1):
        run = [top] * m
        words += [run, run + mixed, mixed + run + mixed, mixed + run, run + [0] * m + run, [0] * m + [1] * m + run]
    for _ in range(40):
        word = []
        while len(word) < 6 * L:
            word += [rng.choice((0, 1, top))] * rng.choice((1, L - 1, L, L + 1, 2 * L + 1))
        words.append(word)
    for word in words:
        idx = WindowIndex.build(bytes(word), p)
        tally = window_tally(word, L)
        assert idx.root_count == sum(tally.values()) == max(0, len(word) - L + 1)
        assert sum(map(bool, idx._counts)) + len(idx._big) == len(tally) and all(idx._big.values())
        assert all(idx.window_count(w) == c for w, c in tally.items()), word
        if idx.root_count < q**L:
            assert idx.find_absent() == bytes(tally_find_absent(tally, q, L))


@pytest.mark.parametrize(
    "convert",
    [list, tuple, np.array, bytes, bytearray],
    ids=["list", "tuple", "ndarray", "bytes", "bytearray"],
)
def test_input_sequence_types(convert):
    p = _params(3, 2)
    word = [0, 1, 2, 2, 1, 0, 0]
    idx = WindowIndex.build(convert(word), p)
    idx.audit(word)
    idx.apply_append(convert(word), convert([2, 0]))
    word += [2, 0]
    idx.audit(word)
    idx.apply_delete(convert(word), 2, 5)
    del word[2:5]
    idx.audit(word)
    assert idx.window_count(convert([0, 0])) == window_tally(word, 2)[(0, 0)]


@pytest.mark.parametrize("q,L", [(3, 2), (200, 3)])
@pytest.mark.parametrize(
    "bad,convert",
    [
        pytest.param(-1, list, id="-1"),
        pytest.param("q", list, id="q"),
        # the public edits check bytes as they check lists: the encoder's
        # unchecked path is private, not chosen by the type
        pytest.param("q", bytes, id="q-bytes"),
        pytest.param("q", bytearray, id="q-bytearray"),
    ],
)
def test_out_of_range_symbol_leaves_index_unchanged(q, L, bad, convert):
    p = _params(q, L)
    bad = q if bad == "q" else bad
    word = [0, 1, 2, 1, 0, 2, 2, 1]
    idx = WindowIndex.build(word, p)
    with pytest.raises(ValueError):
        WindowIndex.build(convert(word[:3] + [bad] + word[3:]), p)
    with pytest.raises(ValueError):
        idx.apply_append(convert(word), convert([1, bad]))
    idx.audit(word)
    # the bad symbol is the last one the cut touches, so a per-window check
    # would already have removed the windows before it
    at = 3 + L - 2
    broken = word[:at] + [bad] + word[at + 1 :]
    with pytest.raises(ValueError):
        idx.apply_delete(convert(broken), 1, 3)
    idx.audit(word)


@pytest.mark.parametrize("params", ["x", None, 3, (3, 10, 3, 13)])
def test_params_that_are_not_code_params_are_refused(params):
    message = f"^params must be a CodeParams, got {type(params).__name__}$"
    with pytest.raises(ValueError, match=message):
        WindowIndex(params)
    with pytest.raises(ValueError, match=message):
        WindowIndex.build([0, 1, 2], params)


@pytest.mark.parametrize("a,b", [(1.5, 3), (None, 3), (1, "3"), (1, 3.0)])
def test_delete_positions_must_be_integers(a, b):
    p = _params(3, 2)
    word = [0, 1, 2, 2, 1, 0]
    idx = WindowIndex.build(word, p)
    with pytest.raises(ValueError, match="must be an integer"):
        idx.apply_delete(word, a, b)
    idx.apply_delete(word, np.int64(1), True + 2)  # integer types are accepted
    idx.audit(word[:1] + word[3:])


@pytest.mark.parametrize("suffix", [None, 5, 2.0])
def test_append_of_a_suffix_that_is_no_word_is_refused(suffix):
    p = _params(3, 2)
    word = [0, 1, 2, 2, 1, 0]
    idx = WindowIndex.build(word, p)
    with pytest.raises(ValueError, match="must be an iterable of symbols"):
        idx.apply_append(word, suffix)
    with pytest.raises(ValueError, match="must be an iterable of symbols"):
        idx.apply_append(suffix, [1])
    idx.audit(word)


@pytest.mark.parametrize("q,L", [(2, 3), (200, 3)])
def test_delete_against_a_different_word_raises(q, L):
    p = _params(q, L)
    word = [0] * 12
    idx = WindowIndex.build(word, p)
    other = [0] * 6 + [1] * 6
    with pytest.raises(ValueError):
        idx.apply_delete(other, 4, 8)
    # the windows removed before the mismatch was met are put back
    idx.audit(word)
    with pytest.raises(ValueError):
        idx.apply_delete([1] * L, 0, L)
    idx.audit(word)


@pytest.mark.parametrize("q,L", [(2, 2), (200, 3)])
def test_delete_of_a_window_repeated_more_often_than_stored(q, L):
    """Every window of the cut is stored, but fewer times than the cut
    holds it; the removal must be refused as a whole."""
    p = _params(q, L)
    word = [0] * 8
    idx = WindowIndex.build(word, p)
    with pytest.raises(ValueError, match=f"^window {format_word((0,) * L, q)} has zero count"):
        idx.apply_delete([0] * 12, 2, 10)
    idx.audit(word)
    assert idx.window_count((0,) * L) == 9 - L


def test_node_addresses_past_int64():
    """q**L beyond 2**63: window codes stay Python ints."""
    p = _params(256, 8)
    word = [255] * 10 + [0, 1, 2]
    idx = WindowIndex.build(word, p)
    idx.apply_append(word, [255, 254])
    word += [255, 254]
    idx.apply_delete(word, 1, 4)
    del word[1:4]
    idx.audit(word)
    assert idx.window_count((255,) * 7 + (0,)) == 1
    assert idx.find_absent() == bytes(8)
    with pytest.raises(ValueError):
        idx.apply_delete([255] * 12, 0, 4)
    idx.audit(word)


def test_counts_widen_to_int64_before_one_could_overflow():
    """No count exceeds the number of windows, so the counts are int32
    while the index holds fewer than 2**31 windows. The window that takes
    the total to 2**31 (faked here) widens them to int64, counts kept."""
    word = [0, 1, 2, 0, 0]
    idx = WindowIndex.build(word, _params(3, 2))
    assert idx._counts.dtype == np.int32
    idx._total += (1 << 31) - 1 - idx.root_count
    idx.apply_append(word, [1])
    word.append(1)
    assert idx._counts.dtype == np.int64 and idx.root_count == 1 << 31
    assert {w: idx.window_count(w) for w in window_tally(word, 2)} == window_tally(word, 2)


@pytest.mark.parametrize("q,L", [(2, 1), (3, 2), (4, 3), (5, 4), (2, 7)])
def test_digit_writer_matches_to_digits_on_every_code(q, L):
    p = _params(q, L)
    idx = WindowIndex(p)
    assert [idx._digits(c) for c in range(q**L)] == [bytes(to_digits(c, p)) for c in range(q**L)]


@pytest.mark.parametrize("q,L", [(256, 2), (256, 3), (4, 9), (16, 4), (2, 13), (2, 23), (256, 8)])
def test_digit_writer_matches_to_digits_where_the_tables_meet(q, L):
    """Codes at both ends and on either side of the split between the high
    and the low digits' tables. q**L is above 2**12 in each case, so the
    writer splits; at (256, 3) and (256, 8) a half splits again."""
    p = _params(q, L)
    idx = WindowIndex(p)
    split = q ** (L // 2)
    for c in (0, 1, split - 1, split, split + 1, q**L - 1):
        assert idx._digits(c) == bytes(to_digits(c, p)), c


@pytest.mark.parametrize("q,n", [(200, 40001), (256, 300)])
def test_count_list_holds_at_most_4_n_plus_1_slots(q, n):
    """S = min(q**L, 4*(n + 1)): 8,000,000 codes at (200, 40001) get 160,008
    slots, 65,536 at (256, 300) get 1,204."""
    p = derive_params(q, n)
    assert len(WindowIndex(p)._counts) == 4 * (n + 1) < q**p.L


@pytest.mark.parametrize("q,n", [(4, 1 << 17), (200, 40001)])
def test_encoder_lookups_stay_below_the_list_end(q, n, monkeypatch):
    """Every filler a zeros encode guesses is a code below S. At q = 4,
    S = q**L, so no code at all goes to _big."""
    p = derive_params(q, n)
    built, guessed = [], []
    build, absent = WindowIndex.build.__func__, WindowIndex._absent

    def spied(self, want):
        found = absent(self, want)
        guessed.extend(found)
        return found

    monkeypatch.setattr(WindowIndex, "build", classmethod(lambda cls, w, p: built.append(build(cls, w, p)) or built[-1]))
    monkeypatch.setattr(WindowIndex, "_absent", spied)
    encode(bytes(n), p)
    [idx] = built
    assert len(guessed) > 100 and max(guessed) < len(idx._counts)
    if q == 4:
        assert len(idx._counts) == q**p.L and idx._big == {}


def test_digit_tables_are_built_once():
    assert windows._chunks(4, 5) is windows._chunks(4, 5)
    assert windows._chunks(256, 3) is windows._chunks(256, 3)
    assert WindowIndex(_params(4, 9))._digits.__self__ is WindowIndex(_params(4, 9))._digits.__self__


def test_a_digit_table_holds_at_most_2_to_the_12_words():
    """Wider words join two tables on each lookup; (256, 2) joins two
    one-digit tables."""
    assert len(windows._chunks(2, 12)) == len(windows._chunks(16, 3)) == 4096
    assert isinstance(windows._chunks(2, 13), windows._Chunks)
    assert windows._chunks(256, 2)._high is windows._chunks(256, 2)._low is windows._chunks(256, 1)


def _refusal(tally, word, a, b, L):
    """The window a one-by-one removal of the windows touching the cut
    [a, b) of word meets at count zero, or None."""
    left = tally.copy()
    for s in range(max(0, a - L + 1), min(b, len(word) - L + 1)):
        window = tuple(word[s : s + L])
        left[window] -= 1
        if left[window] < 0:
            return window
    return None


@pytest.mark.parametrize("q,L", [(3, 3), (256, 3)], ids=["dense", "sparse"])
def test_queued_edits_match_tally(q, L):
    """Reads come only every few edits, so runs of public edits lie between
    them. Cuts reach into windows appended since the last read, appends
    repeat runs, and cuts of a word the index does not hold are refused at
    once, with the window a one-by-one removal would meet at zero, and
    change nothing. The ids name the small (3**3) and the large (256**3)
    space of L-words."""
    p = _params(q, L)
    rng = random.Random(q * 31 + L)
    symbols = [0, 1, 2] if q == 3 else [0, 1, 2, 255]
    word = [rng.choice(symbols) for _ in range(24)]
    idx = WindowIndex.build(word, p)
    refused = reads = 0
    next_read = 3
    for step in range(600):
        roll = rng.random()
        if roll < 0.45 or len(word) < 8:
            if rng.random() < 0.5:
                suffix = [rng.choice(symbols)] * rng.randint(1, 9)
            else:
                suffix = [rng.choice(symbols) for _ in range(rng.randint(1, 5))]
            idx.apply_append(word, suffix)
            word += suffix
        elif roll < 0.85:
            # half the cuts start among the last appended symbols
            lo = max(0, len(word) - 8) if rng.random() < 0.5 else 0
            a = rng.randint(lo, len(word))
            b = rng.randint(a, min(len(word), a + 7))
            idx.apply_delete(word, a, b)
            del word[a:b]
        else:
            a = rng.randint(0, len(word) - 1)
            b = rng.randint(a + 1, min(len(word), a + rng.choice((4, 16))))
            other = list(word)
            other[rng.randrange(a, b)] = 1 if q == 3 else 7  # 7 never occurs in the q = 256 word
            missing = _refusal(window_tally(word, L), other, a, b, L)
            if missing is not None:
                with pytest.raises(ValueError, match=re.escape(f"window {format_word(missing, q)} has zero count")):
                    idx.apply_delete(other, a, b)
                refused += 1
                idx.audit(word)
        if step == next_read:
            next_read += rng.randint(2, 7)
            reads += 1
            tally = window_tally(word, L)
            assert idx.root_count == max(0, len(word) - L + 1)
            assert all(idx.window_count(w) == c for w, c in tally.items())
            if idx.root_count < q**L:
                assert idx.find_absent() == bytes(tally_find_absent(tally, q, L))
        if len(word) > 60:
            idx.apply_delete(word, 0, 30)
            del word[:30]
    idx.audit(word)
    assert refused > 10 and reads > 50


def _oracle_fill(word, runs, q, L):
    """The word after a fill of runs and the fillers written between them,
    each the tally's smallest absent L-word at its lookup; the runs are cut
    back to those before the first lookup that finds every L-word."""
    grown = bytearray(word) + runs[0]
    fillers = []
    for run in runs[1:]:
        tally = window_tally(grown, L)
        if len(tally) == q**L:
            break
        fillers.append(bytes(tally_find_absent(tally, q, L)))
        grown += fillers[-1] + run
    return grown, runs[: len(fillers) + 1], fillers


@pytest.mark.parametrize("q,L", [(256, 1), (2, 3), (3, 2), (3, 3), (4, 2), (11, 2), (2, 23), (256, 3), (5, 3)])
def test_private_edits_match_tally(q, L):
    """_fill and _cut, the unchecked edits the encoder calls, take a
    bytearray word as it is, and the public edits pack and check theirs
    first; the two are mixed at random. A private append fills up to four
    runs, some empty, and each filler it returns is the bytes of the
    tally's smallest absent L-word on the word as it stood at that lookup.
    Appends repeat runs, half the cuts reach into the last symbols
    appended, some cuts leave fewer than L - 1 symbols so the next append
    starts from a short tail, and a cut of a word the index does not hold
    is refused at once, by both, with the window a one-by-one removal
    meets at zero, and changes nothing. After every step the counts and
    the smallest absent word match a tally. At L = 1 a window is one
    symbol, and q = 11 draws symbol 10, b"\\n". With n = 2 the count
    list ends at S = 12 (or q**L, when smaller); at (5, 3) a public append
    every 40 steps spells codes 0 .. S + 5, a word longer than n + 1, so
    the cursor passes S and the cuts free codes on both sides of it."""
    p = _params(q, L)
    rng = random.Random(7 * q + L)
    symbols = range(q) if q < 256 else (0, 1, 2, 255)

    def some_run(longest):
        if rng.random() < 0.5:
            return bytes([rng.choice(symbols)]) * rng.randint(0, longest)
        return bytes(rng.choice(symbols) for _ in range(rng.randint(0, longest)))

    word = bytearray(rng.choice(symbols) for _ in range(30))
    idx = WindowIndex.build(word, p)
    size = len(idx._counts)
    spelled = bytes(_spelled(q, L, size + 6)) if (q, L) == (5, 3) else b""
    refused = fillers_checked = short_tails = 0
    passed, freed = False, set()  # the cursor went past S; sides of S freed codes lay on
    for step in range(300):
        if spelled and step % 40 == 0:
            idx.apply_append(list(word), list(spelled))
            word += spelled
        roll = rng.random()
        private = rng.random() < 0.5
        if roll < 0.45 or len(word) < 8:
            suffix = some_run(9) or bytes([rng.choice(symbols)])
            short_tails += len(word) < L - 1
            if private:
                runs = [suffix] + [some_run(6) for _ in range(rng.randrange(4))]
                grown, runs, expected = _oracle_fill(word, runs, q, L)
                fillers = idx._fill(word[max(0, len(word) - L + 1) :], runs)
                assert fillers == expected and all(type(f) is bytes for f in fillers)
                fillers_checked += len(fillers)
                word = grown
            else:
                idx.apply_append(list(word), list(suffix))
                word += suffix
        elif roll < 0.8:
            lo = max(0, len(word) - 8) if rng.random() < 0.5 else 0
            a = rng.randrange(lo, len(word))
            b = rng.randint(a + 1, min(len(word), a + 7))
            if private:
                idx._cut(word, a, b)
            else:
                idx.apply_delete(list(word), a, b)
            del word[a:b]
        elif roll < 0.85:
            # fewer than L - 1 symbols stay, so the next append's tail is short
            # (none stays when L = 1)
            keep = rng.randrange(max(1, min(L - 1, len(word))))
            idx._cut(word, 0, len(word) - keep)
            del word[: len(word) - keep]
        else:
            # a run holds one window more often than the word may
            a = rng.randrange(len(word))
            b = rng.randint(a + 1, min(len(word), a + 16))
            other = bytearray(word)
            other[a:b] = bytes([rng.choice(symbols)]) * (b - a)
            missing = _refusal(window_tally(word, L), other, a, b, L)
            if missing is None:
                continue
            message = re.escape(f"window {format_word(missing, q)} has zero count")
            with pytest.raises(ValueError, match=message):
                idx._cut(other, a, b)
            with pytest.raises(ValueError, match=message):
                idx.apply_delete(list(other), a, b)
            refused += 1
        if len(word) > 60:
            idx._cut(word, 0, 30)
            del word[:30]
        idx.audit(word)
        tally = window_tally(word, L)
        assert idx.root_count == max(0, len(word) - L + 1) == sum(tally.values())
        assert all(idx.window_count(w) == c for w, c in tally.items())
        if len(tally) == q**L:
            with pytest.raises(ValueError, match="every L-word occurs"):
                idx.find_absent()
            continue
        found = idx.find_absent()
        assert tally[found] == 0
        assert found == bytes(tally_find_absent(tally, q, L))
        passed |= idx._lo > size
        freed.update(code < size for code in idx._gaps)
    assert refused > 10 and fillers_checked > 20
    assert not spelled or (passed and freed == {True, False})
    assert short_tails > 8 or L == 1  # with L = 1 every tail is empty


def _rounds(monkeypatch) -> list[int]:
    """The number of fillers each round of _fill guesses, recorded as the
    rounds run."""
    wants: list[int] = []
    absent = WindowIndex._absent
    monkeypatch.setattr(WindowIndex, "_absent", lambda self, want: wants.append(want) or absent(self, want))
    return wants


def test_a_missed_guess_restarts_the_round(monkeypatch):
    """Over 1111 (q = 2, L = 3) the absent words are 000, 001, ..., so a
    fill of runs "", "001", "" guesses 000 and 001. The run before the second
    filler spells 001, so that guess misses: the round keeps 000, counts
    the windows up to the second filler, and a second round finds it."""
    word = bytearray([1, 1, 1, 1])
    runs = [b"", bytes([0, 0, 1]), b""]
    idx = WindowIndex.build(word, _params(2, 3))
    wants = _rounds(monkeypatch)
    grown, runs, expected = _oracle_fill(word, runs, 2, 3)
    assert expected[0] == bytes(3) and expected[1] != bytes([0, 0, 1])
    assert idx._fill(word[-2:], runs) == expected
    assert wants == [2, 1]  # the second round guesses the one filler left
    idx.audit(grown)


@pytest.mark.parametrize("q,L", [(4, 5), (3, 7), (2, 11)])
def test_a_long_fill_spans_rounds_and_matches_the_oracle(q, L, monkeypatch):
    """A fill of 240 runs, random or of one symbol, over a random word:
    some guesses miss, so it takes several rounds, and its fillers and
    counts equal those of one lookup per filler."""
    rng = random.Random(q * L)
    word = bytearray(rng.randrange(q) for _ in range(40))
    runs = [
        bytes([rng.randrange(q)]) * rng.randint(0, 4)
        if rng.random() < 0.5
        else bytes(rng.randrange(q) for _ in range(rng.randint(0, 3)))
        for _ in range(240)
    ]
    idx = WindowIndex.build(word, _params(q, L))
    wants = _rounds(monkeypatch)
    grown, runs, expected = _oracle_fill(word, runs, q, L)
    assert len(runs) == 240
    assert idx._fill(word[-(L - 1) :], runs) == expected
    assert len(wants) > 2
    idx.audit(grown)
    assert idx.find_absent() == bytes(tally_find_absent(window_tally(grown, L), q, L))


def test_a_fill_over_codes_past_int64_matches_the_oracle(monkeypatch):
    """At (256, 8) q**L = 2**64, so codes are Python ints in numpy object
    arrays. Runs of 255s and of one 0 make codes both below and above 2**63,
    and the fill spans rounds."""
    q, L = 256, 8
    rng = random.Random(8)
    word = bytearray([255] * 9 + [0, 1, 2])
    runs = [bytes([rng.choice((0, 1, 255))]) * rng.randint(0, 9) for _ in range(30)]
    idx = WindowIndex.build(word, _params(q, L))
    assert idx._codes(bytes([255] * 8)).dtype == object
    wants = _rounds(monkeypatch)
    grown, runs, expected = _oracle_fill(word, runs, q, L)
    assert idx._fill(word[-(L - 1) :], runs) == expected
    assert len(wants) > 1
    idx.audit(grown)
    assert idx.window_count((255,) * 8) == window_tally(grown, L)[(255,) * 8] > 1


def test_a_short_word_at_a_large_n_maps_no_count_slots():
    """The count array holds S = q**L = 2**22 slots at (2, 2**22), 32 MiB, but
    indexing a 10-symbol word writes one of them, so peak RSS hardly grows.
    A fresh interpreter, so earlier tests' memory does not hide the peak."""
    code = (
        "import resource\n"
        "from dupcode.core import derive_params\n"
        "from dupcode.windows import WindowIndex\n"
        "p = derive_params(2, 1 << 22)\n"
        "WindowIndex.build(bytes(30), derive_params(2, 8)).find_absent()  # imports and tables first\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "idx = WindowIndex.build(bytes(10), p)\n"
        "found = idx.find_absent()\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(len(idx._counts), found == bytes(p.L), p.L, grown)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    slots, found, L, grown_kb = proc.stdout.split()
    assert (int(slots), found, int(L)) == (1 << 22, "True", 22)
    assert int(grown_kb) < 4 << 10, grown_kb
