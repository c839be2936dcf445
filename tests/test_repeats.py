"""Square search against two independent reference scanners."""

import itertools
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupcode import repeats
from dupcode.codec import _leftmost_period_square
from dupcode.core import MalformedWordError
from dupcode.repeats import (
    Duplication,
    _samples_distinct,
    _scan_hashed,
    _scan_small,
    find_leftmost_long,
    is_dup_free,
)

from oracles import naive_leftmost, scan_by_length_leftmost


def _as_tuple(d):
    return None if d is None else (d.i, d.l)


@pytest.mark.parametrize(
    "word,K,expect",
    [
        ("0101101101", 2, (0, 2)),      # 01 01 right at the front
        ("1011011010", 3, (0, 3)),      # 101 101
        ("00123312", 2, None),
        ("0012123312", 2, (2, 2)),
        ("0012333312", 2, (4, 2)),      # 33 33
        ("001233331233", 1, (0, 1)),    # half-length 1 at the leftmost offset
        ("0000000000", 5, (0, 5)),
        ("012012", 3, (0, 3)),
        ("01234", 1, None),
    ],
)
def test_frozen_examples(word, K, expect):
    w = tuple(int(c) for c in word)
    assert _as_tuple(find_leftmost_long(w, K)) == expect
    assert naive_leftmost(w, K) == expect


@pytest.mark.parametrize(
    "mod,base",
    [
        (repeats._MOD1, repeats._BASE1),
        (repeats._MOD1, pow(repeats._BASE1, -1, repeats._MOD1)),
    ],
)
def test_power_tables_hold_every_power(monkeypatch, mod, base):
    monkeypatch.setattr(repeats, "_pow_cache", {})
    # 1 fills the cache, 1024 reads it, 1025 and 5000 make it grow
    for length in (1, 1024, 1025, 5000):
        table = repeats._powers(mod, base, length)
        assert table.dtype == np.int64 and len(table) >= length
        assert table.tolist() == [pow(base, t, mod) for t in range(len(table))]


@pytest.mark.parametrize("word", [(300,) * 10, (300,) * 9 + (1,)])
def test_out_of_range_symbols_are_refused_before_the_all_equal_test(word):
    with pytest.raises(MalformedWordError):
        find_leftmost_long(word, 5)


def test_words_beyond_the_hash_domain_are_refused():
    class Huge:
        """Claims 2**32 symbols; the search must refuse it before reading any."""

        def __len__(self):
            return 1 << 32

        def __getitem__(self, key):
            raise AssertionError("the word was read")

    with pytest.raises(ValueError, match="2\\*\\*32"):
        find_leftmost_long(Huge(), 37)


def test_the_length_limit_holds_for_a_word_without_len(monkeypatch):
    """A generator has no len(), so its length is checked once it is packed;
    it is refused exactly as the list of the same symbols is."""
    monkeypatch.setattr(repeats, "_MAX_LENGTH", 200)
    word = [0] * 300
    for w in (word, iter(word), (s for s in word)):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            find_leftmost_long(w, 3)
    assert find_leftmost_long(iter(word[:199]), 3) == Duplication(0, 3)


def test_duplication_validates():
    with pytest.raises(ValueError):
        Duplication(-1, 3)
    with pytest.raises(ValueError):
        Duplication(0, 0)


def test_short_words_are_free():
    assert find_leftmost_long((0, 1, 0, 1), 3) is None
    assert is_dup_free((), 1)
    with pytest.raises(ValueError):
        find_leftmost_long((0, 1), 0)


@pytest.mark.parametrize("bad", [256, -1])
def test_symbols_outside_a_byte_are_refused(bad):
    """The search packs words as bytes: past the all-equal prefix test, a
    symbol outside 0..255 raises on both the direct and the hashed scan."""
    for m in (40, 300):
        w = tuple(j % 3 for j in range(m - 1)) + (bad,)
        with pytest.raises(MalformedWordError, match=f"symbol {bad} at position {m - 1}"):
            find_leftmost_long(w, 4)


def test_uniform_prefix_shortcut_is_exact():
    # all-equal prefix of length 2K admits the square (0, K) immediately
    for K in (1, 3, 7):
        w = (5,) * (2 * K) + (1, 2, 3)
        assert _as_tuple(find_leftmost_long(w, K)) == (0, K)
        assert naive_leftmost(w, K) == (0, K)


def _sequence_type_cases():
    rng = random.Random(21)
    cases = [
        ((3,) * 10 + (1, 2), 5),  # all-equal prefix of 2K: the fast path
        ((3,) * 9 + (1,) * 9, 5),  # one short of the fast path
        (tuple(rng.randrange(3) for _ in range(40)), 4),  # direct scan
    ]
    for _ in range(4):  # hashed scan, past the cutoff
        cases.append((tuple(rng.randrange(4) for _ in range(300)), 6))
    return cases


@pytest.mark.parametrize(
    "word,K",
    _sequence_type_cases(),
    ids=["uniform-prefix", "one-short", "direct", "hashed-1", "hashed-2", "hashed-3", "hashed-4"],
)
def test_sequence_types_agree(word, K):
    """Lists, tuples and bytes-likes take the .count prefix test; an ndarray
    has no .count and takes the generic one. All give the same square."""
    expect = naive_leftmost(word, K)
    assert not hasattr(np.array(word), "count")
    for convert in (tuple, list, bytes, bytearray, np.array):
        assert _as_tuple(find_leftmost_long(convert(word), K)) == expect, convert


def test_exhaustive_binary_small():
    """Every binary word of length <= 12, K in {1, 2, 3}: exact agreement."""
    for m in range(0, 13):
        for bits in itertools.product((0, 1), repeat=m):
            for K in (1, 2, 3):
                got = _as_tuple(find_leftmost_long(bits, K))
                assert got == naive_leftmost(bits, K), (bits, K)


@pytest.mark.parametrize("q", [2, 4, 16])
def test_random_words_three_way(q):
    rng = random.Random(q * 77)
    for _ in range(150):
        m = rng.randint(0, 200)
        w = tuple(rng.randrange(q) for _ in range(m))
        K = rng.randint(1, 8)
        got = _as_tuple(find_leftmost_long(w, K))
        assert got == naive_leftmost(w, K)
        assert got == scan_by_length_leftmost(w, K)


def test_small_and_hashed_paths_agree():
    """Words straddling the path cutoff run through both scanners."""
    rng = random.Random(9)
    for _ in range(200):
        m = rng.randint(60, 140)
        q = rng.choice([2, 3, 4])
        w = tuple(rng.randrange(q) for _ in range(m))
        K = rng.randint(1, 6)
        if m < 2 * K:
            continue
        small = _as_tuple(_scan_small(w, K))
        hashed = _as_tuple(_scan_hashed(np.asarray(w, dtype=np.int64), K))
        assert small == hashed == naive_leftmost(w, K)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_planted_square_is_found(data):
    """Duplicating any block of length >= K plants a square the scanner
    must report (not necessarily that block: an earlier one may exist)."""
    q = data.draw(st.sampled_from([2, 4]), label="q")
    w = data.draw(st.lists(st.integers(0, q - 1), min_size=5, max_size=80), label="word")
    K = data.draw(st.integers(1, 5), label="K")
    l = data.draw(st.integers(K, min(len(w), 10)), label="l")
    i = data.draw(st.integers(0, len(w) - l), label="i")
    planted = tuple(w[: i + l]) + tuple(w[i : i + l]) + tuple(w[i + l :])
    found = find_leftmost_long(planted, K)
    assert found is not None
    assert found.i + 2 * found.l <= len(planted)
    assert planted[found.i : found.i + found.l] == planted[found.i + found.l : found.i + 2 * found.l]
    assert (found.i, found.l) <= (i, l)


@pytest.mark.parametrize("q", [2, 4])
def test_forced_collisions_keep_the_search_exact(monkeypatch, q):
    """With the modulus cut to 11 nearly every pair of K-grams shares a
    hash, so only the exact comparisons decide which candidate is a square."""
    assert repeats._BASE1 % 11 == 4  # the base stays invertible mod 11
    monkeypatch.setattr(repeats, "_MOD1", 11)
    monkeypatch.setattr(repeats, "_pow_cache", {})
    rng = random.Random(97 * q)
    outcomes = set()
    for _ in range(60):
        w = tuple(rng.randrange(q) for _ in range(rng.randint(97, 300)))
        K = rng.randint(4, 12)
        expect = naive_leftmost(w, K)
        assert _as_tuple(find_leftmost_long(w, K)) == expect, (w, K)
        outcomes.add(expect is None)
    assert outcomes == {True, False}  # both square-free words and squares were seen


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_planted_square_on_the_hashed_path(data):
    """Words past the direct-scan cutoff, with a square planted anywhere:
    the hashed search gives the oracle's answer."""
    q = data.draw(st.sampled_from([2, 4]), label="q")
    w = data.draw(st.lists(st.integers(0, q - 1), min_size=97, max_size=400), label="word")
    K = data.draw(st.integers(4, 12), label="K")
    l = data.draw(st.integers(K, 60), label="l")
    i = data.draw(st.integers(0, len(w) - l), label="i")
    planted = tuple(w[: i + l]) + tuple(w[i : i + l]) + tuple(w[i + l :])
    assert len(planted) > repeats._SMALL_CUTOFF
    found = _as_tuple(find_leftmost_long(planted, K))
    assert found == naive_leftmost(planted, K)
    assert found <= (i, l)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=60), st.integers(1, 4))
def test_is_dup_free_consistent(word, K):
    w = tuple(word)
    assert is_dup_free(w, K) == (find_leftmost_long(w, K) is None)
    assert is_dup_free(w, K) == (naive_leftmost(w, K) is None)


@pytest.mark.parametrize("s,cover", repeats._COVERS)
def test_each_cover_is_a_difference_cover(s, cover):
    assert {(y - x) % s for x in cover for y in cover} == set(range(s))


def test_cover_choice_keeps_the_gram_inside_the_threshold():
    assert repeats._cover(37)[0] == 13  # K for q = 4, n = 2**18: g = 25
    for K in range(1, 200):
        s, _ = repeats._cover(K)
        assert 1 <= s <= K and 3 * s <= K + 2
    assert {repeats._cover(K) for K in range(1, 200)} == set(repeats._COVERS)


def _planted(rng, q, p, l, tail):
    u = [rng.randrange(q) for _ in range(l)]
    return tuple([rng.randrange(q) for _ in range(p)] + u + u + [rng.randrange(q) for _ in range(tail)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    q=st.sampled_from([2, 4, 256]),
    K=st.one_of(st.integers(5, 73), st.integers(91, 100)),
    extra=st.integers(0, 40),
    seed=st.integers(0, 2**32),
)
def test_a_planted_square_always_repeats_a_sample(q, K, extra, seed):
    """A square of half-length l >= K, for every residue of its start and of
    l mod s (the cover's modulus), repeats a sampled gram, so the
    certificate never vouches for a word that holds one. K reaches every
    cover in the table."""
    rng = random.Random(seed)
    s, _ = repeats._cover(K)
    for r in range(s):
        for l in range(K + extra, K + extra + s):
            w = bytes(_planted(rng, q, s * rng.randrange(3) + r, l, rng.randrange(2 * s)))
            assert not _samples_distinct(w, K), (r, l, w)


@pytest.mark.parametrize("q", [2, 4, 256])
def test_random_words_agree_with_the_oracle_under_the_certificate(q):
    """Mostly square-free words: whenever the oracle finds a square the
    certificate refuses, and it vouches for most of the words that have none."""
    rng = random.Random(q)
    vouched = free = 0
    for _ in range(120):
        K = rng.randint(5, 40)
        w = bytes(rng.randrange(q) for _ in range(rng.randint(2 * K, 300)))
        expect = naive_leftmost(w, K)
        distinct = _samples_distinct(w, K)
        assert expect is None or not distinct, (w, K)
        free += expect is None
        vouched += distinct
    assert vouched >= free // 2 > 0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_search_before_numpy_loads_matches_the_oracle(data):
    """find_leftmost_long as it runs in a process that has not loaded numpy:
    it tries the certificate first, and takes the hashed scan only past it."""
    q = data.draw(st.sampled_from([2, 4, 256]), label="q")
    w = data.draw(st.lists(st.integers(0, q - 1), min_size=97, max_size=300), label="word")
    K = data.draw(st.integers(4, 40), label="K")
    if data.draw(st.booleans(), label="plant"):
        l = data.draw(st.integers(K, 60), label="l")
        i = data.draw(st.integers(0, max(len(w) - l, 0)), label="i")
        w = w[: i + l] + w[i : i + l] + w[i + l :]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repeats, "sys", types.SimpleNamespace(modules={}))
        got = _as_tuple(find_leftmost_long(w, K))
    assert got == naive_leftmost(w, K)


def _naive_period_square(w, l):
    if l < 1:
        return None
    for p in range(len(w) - 2 * l + 1):
        if w[p : p + l] == w[p + l : p + 2 * l]:
            return p
    return None


@pytest.mark.parametrize("q", [2, 4, 256])
def test_period_square_search_matches_a_naive_loop(q):
    """correct's search for the leftmost square of one half-length, on words
    at and past 96 symbols, for every l from 0 past m // 2."""
    rng = random.Random(7 * q)
    for m in (0, 1, 2, 7, 40, 96, 97, 150, 300):
        for _ in range(3):
            w = bytes(rng.randrange(q) for _ in range(m))
            if m > 1 and rng.random() < 0.7:  # plant a square of some period
                l = rng.randint(1, m // 2)
                i = rng.randint(0, m - 2 * l)
                w = w[: i + l] + w[i : i + l] + w[i + l : m - l]
            for l in range(0, m // 2 + 3):
                assert _leftmost_period_square(w, l) == _naive_period_square(w, l), (w, l)


def test_period_square_search_on_a_large_word():
    w = bytes(random.Random(3).randrange(4) for _ in range(5000))
    for i, l in ((0, 1), (17, 40), (2000, 1500), (0, 2500), (4999, 1)):
        y = w[: i + l] + w[i : i + l] + w[i + l :]
        assert _leftmost_period_square(y, l) == _naive_period_square(y, l)
