"""Counter trie against a from-scratch sliding-window tally."""

import random
import re

import numpy as np
import pytest

from dupcode.core import CodeParams
from dupcode.windows import DENSE_LEAF_LIMIT, QUEUE_LIMIT, WindowIndex

from oracles import tally_find_absent, window_tally


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
    assert idx.find_absent() == (1, 0)
    idx.audit((0, 0, 1, 1))


def test_word_shorter_than_window():
    p = _params(2, 4)
    idx = WindowIndex.build((0, 1), p)
    assert idx.root_count == 0
    assert idx.find_absent() == (0, 0, 0, 0)


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
    with pytest.raises(ValueError, match=r"window \(0, 1\) has zero count"):
        idx.apply_delete((0, 1), 0, 1)
    idx.audit(word)


def test_find_absent_requires_room():
    p = _params(2, 1)
    idx = WindowIndex.build((0, 1), p)  # both length-1 windows present
    with pytest.raises(ValueError):
        idx.find_absent()


def test_find_absent_follows_counter_descent_not_lex_order():
    """The descent may skip a lexicographically smaller absent word when a
    sibling subtree is below its occupancy threshold first; the tally
    reference must make the same choice."""
    p = _params(2, 2)
    word = (0, 1, 0, 1)  # counters 00:0, 01:2, 10:1, 11:0 -> picks 11, although 00 is absent
    assert WindowIndex.build(word, p).find_absent() == (1, 1)
    staged = WindowIndex.build(word[:2], p)
    staged.apply_append(word[:2], word[2:])
    assert staged.find_absent() == (1, 1)
    assert tally_find_absent(window_tally(word, 2), 2, 2) == (1, 1)


@pytest.mark.parametrize("q,L", [(2, 3), (3, 2), (4, 2), (2, 23), (256, 3)])
def test_edits_match_fresh_rebuild(q, L):
    p = _params(q, L)
    sparse_expected = q**L > DENSE_LEAF_LIMIT
    rng = random.Random(1000 * q + L)
    word = [rng.randrange(q) for _ in range(30)]
    idx = WindowIndex.build(word, p)
    assert idx._dense == (not sparse_expected)
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
            assert found == tally_find_absent(tally, q, L)


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
        assert idx._dense == (q**L <= DENSE_LEAF_LIMIT)
        tally = window_tally(word, L)
        assert idx.root_count == sum(tally.values()) == max(0, length - L + 1)
        for w, c in tally.items():
            assert idx.window_count(w) == c
        idx.audit(word)  # child sums hold, so no leaf outside the tally counts


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
@pytest.mark.parametrize("bad", [-1, "q"])
def test_out_of_range_symbol_leaves_index_unchanged(q, L, bad):
    p = _params(q, L)
    bad = q if bad == "q" else bad
    word = [0, 1, 2, 1, 0, 2, 2, 1]
    idx = WindowIndex.build(word, p)
    with pytest.raises(ValueError):
        WindowIndex.build(word[:3] + [bad] + word[3:], p)
    with pytest.raises(ValueError):
        idx.apply_append(word, [1, bad])
    idx.audit(word)
    # the bad symbol is the last one the cut touches, so a per-window check
    # would already have removed the windows before it
    at = 3 + L - 2
    broken = word[:at] + [bad] + word[at + 1 :]
    with pytest.raises(ValueError):
        idx.apply_delete(broken, 1, 3)
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


@pytest.mark.parametrize("q,L", [(2, 2), (200, 3)], ids=["dense", "sparse"])
def test_delete_of_a_window_repeated_more_often_than_stored(q, L):
    """Every window of the cut is stored, but fewer times than the cut
    holds it; the removal must be refused as a whole."""
    p = _params(q, L)
    word = [0] * 8
    idx = WindowIndex.build(word, p)
    with pytest.raises(ValueError, match=r"window \(0(, 0)+\) has zero count"):
        idx.apply_delete([0] * 12, 2, 10)
    idx.audit(word)
    assert idx.window_count((0,) * L) == 9 - L


def test_node_addresses_past_int64():
    """q**L beyond 2**63: codes and node addresses stay Python ints."""
    p = _params(256, 8)
    word = [255] * 10 + [0, 1, 2]
    idx = WindowIndex.build(word, p)
    assert idx._first_leaf + 256**8 > np.iinfo(np.int64).max
    idx.apply_append(word, [255, 254])
    word += [255, 254]
    idx.apply_delete(word, 1, 4)
    del word[1:4]
    idx.audit(word)
    assert idx.window_count((255,) * 7 + (0,)) == 1
    assert idx.find_absent() == (0,) * 8
    with pytest.raises(ValueError):
        idx.apply_delete([255] * 12, 0, 4)
    idx.audit(word)


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
    """Edits queue up between reads, which come only every few edits. Cuts
    reach into windows appended since the last read, appends repeat runs,
    and cuts of a word the index does not hold are refused at once, with
    the window a one-by-one removal would meet at zero, and change nothing."""
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
            other[rng.randrange(a, b)] = 1 if q == 3 else 7  # 7 never occurs in the sparse word
            missing = _refusal(window_tally(word, L), other, a, b, L)
            if missing is not None:
                with pytest.raises(ValueError, match=re.escape(f"window {missing} has zero count")):
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
                assert idx.find_absent() == tally_find_absent(tally, q, L)
        if len(word) > 60:
            idx.apply_delete(word, 0, 30)
            del word[:30]
    idx.audit(word)
    assert refused > 10 and reads > 50


def test_a_long_queue_is_applied_before_it_passes_the_limit():
    p = _params(2, 3)
    word = [0, 1, 1]
    idx = WindowIndex.build(word, p)
    for step in range(QUEUE_LIMIT + 10):
        idx.apply_append(word, [step % 2])
        word.append(step % 2)
        assert len(idx._add) + len(idx._sub) <= QUEUE_LIMIT
    assert idx.root_count == len(word) - 2
    idx.audit(word)
