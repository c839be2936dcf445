"""Enumeration counts, bound checks, and the randomized harness."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dupcode import analysis
from dupcode.core import GuardExceededError, VerificationError

from oracles import naive_leftmost


def _brute_bad_count(q: int, n: int, K: int) -> int:
    def words(m):
        if m == 0:
            yield ()
            return
        for w in words(m - 1):
            for c in range(q):
                yield w + (c,)

    return sum(1 for w in words(n) if naive_leftmost(w, K) is not None)


@pytest.mark.parametrize(
    "q,n,K,expect",
    [
        (2, 3, 1, 6),   # all but 010, 101
        (2, 4, 1, 16),  # every binary word of length 4 has a square
        (2, 6, 4, 0),   # a half-length-4 square needs 8 symbols
    ],
)
def test_count_bad_anchors(q, n, K, expect):
    rep = analysis.count_bad_words(q, n, K)
    assert rep.count == expect
    assert rep.count <= rep.bound
    assert isinstance(rep.bound, Fraction)
    assert rep.bound == Fraction(n * q ** (n + 1), q**K)


@pytest.mark.parametrize("q,n,K", [(2, 7, 2), (3, 5, 1), (2, 9, 3), (4, 4, 1)])
def test_count_bad_matches_recursive_enumeration(q, n, K):
    assert analysis.count_bad_words(q, n, K).count == _brute_bad_count(q, n, K)


def test_count_bad_monotone_in_K():
    counts = [analysis.count_bad_words(2, 10, K).count for K in range(1, 6)]
    assert counts == sorted(counts, reverse=True)


@pytest.mark.parametrize(
    "q,length,K,expect",
    [(2, 3, 1, 2), (2, 4, 1, 0), (2, 4, 3, 16)],
)
def test_enum_code0_anchors(q, length, K, expect):
    rep = analysis.enumerate_code0(q, length, K)
    assert rep.count == expect
    assert rep.count >= rep.bound


def test_enum_code0_words_listed():
    rep = analysis.enumerate_code0(2, 3, 1, want_words=True)
    assert rep.words is not None
    assert sorted(rep.words) == [bytes((0, 1, 0)), bytes((1, 0, 1))]
    assert all(naive_leftmost(w, 1) is None for w in rep.words)


@settings(max_examples=25, deadline=None)
@given(q=st.integers(2, 3), n=st.integers(1, 9), K=st.integers(1, 5))
def test_partition_of_word_space(q, n, K):
    bad = analysis.count_bad_words(q, n, K).count
    good = analysis.enumerate_code0(q, n, K).count
    assert bad + good == q**n


def test_space_guard():
    with pytest.raises(GuardExceededError):
        analysis.count_bad_words(2, 27, 5)  # 2**27 over the default cap
    with pytest.raises(GuardExceededError):
        analysis.count_bad_words(2, 5, 1, max_space=16)
    # explicit override admits the same space
    assert analysis.count_bad_words(2, 5, 1, max_space=32).count >= 0
    with pytest.raises(GuardExceededError):
        analysis.enumerate_code0(2, 27, 5)
    with pytest.raises(GuardExceededError):
        analysis.verify_ball_disjointness(2, 27, [1])


@pytest.mark.parametrize(
    "call",
    [
        lambda space: analysis.count_bad_words(2, 5, 1, max_space=space),
        lambda space: analysis.enumerate_code0(2, 5, 1, max_space=space),
        lambda space: analysis.verify_ball_disjointness(2, 5, [1], max_space=space),
    ],
    ids=["count_bad_words", "enumerate_code0", "verify_ball_disjointness"],
)
def test_negative_space_guard_is_a_value_error(call):
    """A negative max_space is refused as a bad value, not reported as a
    space past the guard; max_space=0 still trips the guard."""
    with pytest.raises(ValueError, match="^max_space must be >= 0, got -1$"):
        call(-1)
    with pytest.raises(GuardExceededError):
        call(0)


def test_ball_disjointness_small():
    rep = analysis.verify_ball_disjointness(2, 6, [1, 2, 3])
    assert not rep.collisions
    assert [e.l for e in rep.entries] == [1, 2, 3]
    # l = 1: eligible words have no 00 or 11 factor
    assert rep.entries[0].eligible_words == 2
    assert rep.entries[0].images == 12
    d = rep.to_dict()
    assert d["disjoint"] is True
    assert all(e["collisions"] == [] for e in d["entries"])


def test_ball_disjointness_degenerate_half_length():
    # l > n/2: every word is trivially free of length-l squares
    rep = analysis.verify_ball_disjointness(2, 5, [4])
    assert rep.entries[0].eligible_words == 32
    assert not rep.collisions


def test_ball_disjointness_reports_collisions_as_words(monkeypatch):
    """Images are compared as packed bytes; a witness comes back as words."""
    monkeypatch.setattr(analysis, "_duplicate", lambda x, i, l: b"\x00\x00\x00")
    rep = analysis.verify_ball_disjointness(2, 2, [1])  # eligible: 01 and 10
    assert rep.collisions == ((bytes((0, 1)), bytes((1, 0)), bytes((0, 0, 0))),) * 2
    d = rep.to_dict()
    assert d["disjoint"] is False
    assert d["entries"][0]["collisions"][0] == ["01", "10", "000"]


def test_ball_disjointness_validates():
    with pytest.raises(ValueError):
        analysis.verify_ball_disjointness(2, 6, [0])
    with pytest.raises(ValueError):
        analysis.verify_ball_disjointness(1, 6, [1])


def test_roundtrip_suite_small():
    rep = analysis.roundtrip_suite(16, 16, trials=12, seed=9)
    assert rep.corruptions_checked == 36
    assert rep.encode_ms["p50"] >= 0.0
    d = rep.to_dict()
    assert d["trials"] == 12 and d["sweep"] is False


def test_roundtrip_suite_sweep_counts_every_pair():
    n, K = 16, 5
    pairs = sum(n + 2 - l for l in range(K, n + 2))
    rep = analysis.roundtrip_suite(16, n, trials=2, seed=1, sweep=True)
    assert rep.corruptions_checked == 2 * pairs


def test_roundtrip_suite_empty():
    rep = analysis.roundtrip_suite(16, 16, trials=0, seed=0)
    assert rep.corruptions_checked == 0
    assert rep.encode_ms == {"p50": 0.0, "p90": 0.0, "max": 0.0}


def test_roundtrip_suite_refuses_negative_trials():
    with pytest.raises(ValueError, match=r"^trials must be >= 0, got -1$"):
        analysis.roundtrip_suite(16, 16, trials=-1, seed=0)


def test_roundtrip_detects_a_broken_codec(monkeypatch):
    from dupcode import codec

    monkeypatch.setattr(codec, "decode", lambda y, p: (0,) * p.n)
    with pytest.raises(VerificationError):
        analysis.roundtrip_suite(16, 16, trials=3, seed=5)


@pytest.mark.parametrize(
    "q,n,c,eta,exceeds",
    [(2, 1024, 3, 2, True), (2, 1024, 1, 0, False), (4, 256, 4, 3, True)],
)
def test_converse_anchors(q, n, c, eta, exceeds):
    rep = analysis.converse_gap(q, n, c)
    assert rep.eta_lower_bound == pytest.approx(eta)
    assert rep.exceeds_one is exceeds


def test_converse_validates():
    with pytest.raises(ValueError):
        analysis.converse_gap(2, 1024, 0)
    with pytest.raises(ValueError):
        analysis.converse_gap(1, 1024, 2)
    for c in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            analysis.converse_gap(2, 1024, c)


def test_enumerators_keep_symbols_above_127():
    """Digits are held as uint8, so symbols 128..255 are neither negative
    nor wrapped: over q = 200 every word (a, b) with a != b is free of
    length-1 squares, and exactly the 200 words (a, a) are bad."""
    rep = analysis.enumerate_code0(200, 2, 1, want_words=True)
    assert rep.count == 200 * 199
    assert set(rep.words) == {bytes((a, b)) for a in range(200) for b in range(200) if a != b}
    assert analysis.count_bad_words(200, 2, 1).count == 200
    ball = analysis.verify_ball_disjointness(200, 2, [1])
    assert ball.entries[0].eligible_words == 200 * 199
    assert ball.entries[0].images == 2 * 200 * 199
    assert not ball.collisions


def test_enumerators_refuse_an_alphabet_above_256():
    refusal = r"alphabet size q must be <= 256, got 300"
    with pytest.raises(ValueError, match=refusal):
        analysis.count_bad_words(300, 2, 1)
    with pytest.raises(ValueError, match=refusal):
        analysis.enumerate_code0(300, 2, 1)
    with pytest.raises(ValueError, match=refusal):
        analysis.verify_ball_disjointness(300, 2, [1])


def test_bounds_grid_script_prints_one_row_per_grid_point():
    """scripts/bounds_grid.py in a fresh interpreter: a 3 x 3 grid of (n, K),
    each row's two counts splitting all q**n words."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "bounds_grid.py"
    src = str(Path(analysis.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(script), "--q", "2", "--n", "4", "6", "--K", "1", "3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:2] == ["n", "K"]
    cells = [row.split() for row in rows]
    assert [(int(c[0]), int(c[1])) for c in cells] == [(n, K) for n in (4, 5, 6) for K in (1, 2, 3)]
    assert all(int(c[2]) + int(c[4]) == 2 ** int(c[0]) for c in cells)
