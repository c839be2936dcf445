"""Encoder, decoder, and single-duplication corrector."""

import hashlib
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupcode import codec, core, repeats, windows
from dupcode.channel import apply_duplication
from dupcode.core import (
    CodeParams,
    InternalDefectError,
    MalformedCodewordError,
    MalformedWordError,
    derive_params,
    format_word,
    parse_word,
    to_digits,
)
from dupcode.repeats import is_dup_free
from dupcode.seqword import EditableWord
from dupcode.windows import WindowIndex

from messages import deep, mixed, period2_runs, periodic, shared_runs
from oracles import CursorTravel, naive_leftmost, ref_decode, ref_encode, replay_trace


P16 = derive_params(16, 16)
P4 = derive_params(4, 7)


def test_encode_anchor_trace():
    """(q=16, n=16): the ten-zero prefix is rewritten by a single block."""
    x = parse_word("0000000000abcdef", 16)
    y, trace = codec.encode_with_trace(x, P16)
    assert format_word(y, 16) == "00000abcdef001251"
    assert len(trace) == 1
    rec = trace[0]
    assert (rec.i, rec.l) == (0, 5)  # 00000|00000 at the front
    assert (rec.r, rec.t) == (2, 0)
    assert rec.fillers == (bytes((1,)), bytes((2,)))
    # each filler was genuinely missing from the word it was chosen against
    assert bytes(replay_trace(x, trace, 16, 16)) == y


def test_no_duplication_message_gets_flag_zero():
    x = parse_word("0123456789abcdef", 16)
    y = codec.encode(x, P16)
    assert y == x + bytes(1)
    assert codec.decode(y, P16) == x


def test_encode_validates_input():
    with pytest.raises(MalformedWordError):
        codec.encode((0,) * 15, P16)  # wrong length
    with pytest.raises(MalformedWordError):
        codec.encode((0,) * 15 + (16,), P16)  # symbol out of range


@pytest.mark.parametrize("q,n", [(16, 16), (2, 64), (4, 30), (3, 45), (2, 200)])
def test_encode_matches_reference(q, n):
    params = derive_params(q, n)
    rng = random.Random(q * 1000 + n)
    for _ in range(25):
        x = bytes(rng.randrange(q) for _ in range(n))
        y = codec.encode(x, params)
        assert y == bytes(ref_encode(x, q, n))
        assert len(y) == n + 1
        assert is_dup_free(y, params.K)
        assert codec.decode(y, params) == x
        assert bytes(ref_decode(y, q, n)) == x


def _message(make, q: int, n: int, seed: int) -> bytes:
    """The message of length n over q symbols that the family make of
    tests/messages.py draws from random.Random(seed)."""
    return bytes(make(random.Random(seed), n, derive_params(q, n).K, q))


def _searched_lengths(patch, answer=None) -> list[int]:
    """Wrap codec.find_leftmost_long for the life of `patch` and return the
    list it fills with the length of every word searched. answer(w, K), if
    given, replaces the search's answer."""
    lengths: list[int] = []
    search = codec.find_leftmost_long

    def counted(w, K):
        lengths.append(len(w))
        return search(w, K) if answer is None else answer(w, K)

    patch.setattr(codec, "find_leftmost_long", counted)
    return lengths


_FAMILIES = {"runs": shared_runs, "periodic": periodic, "deep": deep, "period2": period2_runs, "mixed": mixed}


@pytest.mark.parametrize(
    "family,q,n",
    [
        *[(family, q, n) for family in ("zeros", "runs") for q, n in [(4, 300), (2, 256), (3, 200), (16, 800)]],
        *[("periodic", q, n) for q, n in [(4, 300), (2, 256), (16, 800)]],
        *[("deep", q, n) for q, n in [(4, 300), (3, 200), (16, 800)]],
        *[("period2", q, n) for q, n in [(2, 256), (3, 200), (4, 800), (16, 400)]],
        *[("mixed", q, n) for q, n in [(4, 500), (16, 1000), (2, 1200)]],
    ],
)
def test_encode_matches_reference_over_many_iterations(monkeypatch, family, q, n):
    """Messages that force several encoder iterations, so every filler the
    window index picks, and every square found by a search that after a
    cut reads only twice the unprocessed prefix, is checked against the
    reference, whose naive search reads the whole word. Every family but
    deep and mixed narrows some search here; deep's cuts take less than
    half the word, so it never narrows."""
    params = derive_params(q, n)
    x = bytes(n) if family == "zeros" else _message(_FAMILIES[family], q, n, q * n)
    lengths = _searched_lengths(monkeypatch)
    y, trace = codec.encode_with_trace(x, params)
    assert len(trace) >= 2
    hits: list[tuple[int, int]] = []
    assert y == bytes(ref_encode(x, q, n, hits))
    assert [(rec.i, rec.l) for rec in trace] == hits
    assert bytes(replay_trace(x, trace, q, n)) == y
    assert family in ("deep", "mixed") or min(lengths) < n + 1


@pytest.mark.parametrize("family", ["constant", "runs"])
def test_roundtrip_at_q256_with_the_top_symbol(family):
    """Symbol 255 is the largest a word may hold; blocks and fillers built
    around it must survive the encoder's iterations and the decode replay."""
    q, n = 256, 300
    params = derive_params(q, n)
    rng = random.Random(5)
    runs: list[int] = []
    while len(runs) < n:
        runs += [255] * (2 * params.K) + [rng.randrange(q)] * (2 * params.K)
    x = bytes((255,)) * n if family == "constant" else bytes(runs[:n])
    y, trace = codec.encode_with_trace(x, params)
    assert len(trace) >= 2
    assert 255 in y
    assert y == bytes(ref_encode(x, q, n))
    assert bytes(replay_trace(x, trace, q, n)) == y
    assert codec.decode(y, params) == x


@pytest.mark.parametrize(
    "q,n,family,digest",
    [
        (4, 1 << 12, "zeros", "a0fd568d0cc5749e587a74da8b73b4360a8ea5b70eea9e8018429f2ceb06fc43"),
        (4, 1 << 14, "zeros", "2d53a9ee76cc49f1abe8a74241ffd60e14335c1fea5270adf06b7e35b59cb308"),
        # L = 3 over 200 symbols: 8,000,000 window codes, few of them used
        (200, 40001, "zeros", "940243a8c91bd6f37a4b07c60c9d0bb25d60f769853cb48718f7b691e4c0e69b"),
        (4, 1 << 11, "runs", "b16dd879fab6f7b47bd511c38a581e0ff95e67e8f084add74a1739eddd1152d6"),
        # the benchmark's zeros message, 3540 iterations
        (4, 1 << 17, "zeros", "629321ea9fcc8a494e535d3db91e2a33159c31d4fb6e2081e1df79d7116dd770"),
        # L = 12: long fillers, 82 iterations
        (2, 1 << 12, "zeros", "0a6969b7d56370b830028efee064ccdf6f9a36b753ebed9db9c66d801264c69d"),
    ],
)
def test_encode_output_is_pinned(q, n, family, digest):
    """Codewords are part of the contract: these digests must not move."""
    params = derive_params(q, n)
    x = bytes(n) if family == "zeros" else _message(shared_runs, q, n, 11)
    assert hashlib.sha256(bytes(codec.encode(x, params))).hexdigest() == digest


def test_runs_that_share_symbols_encode_as_pinned():
    """Runs of 2K symbols drawn from random.Random(1), so neighbouring runs
    often share a symbol and the hashed search verifies many candidate
    pairs per square. The digest was taken when each pair was verified
    with np.array_equal, 0.9 s of CPU for this encode."""
    params = derive_params(4, 1 << 11)
    x = _message(shared_runs, 4, 1 << 11, 1)
    y = codec.encode(x, params)
    assert hashlib.sha256(y).hexdigest() == "18fc03d345c194da9235872c9e605322dff20ac06e4e728e298258f8bf7ad08b"
    assert codec.decode(y, params) == x


@pytest.mark.parametrize("q,n", [(16, 16), (2, 64), (4, 100)])
def test_backends_agree_under_self_check(q, n):
    """self_check=True only adds checks: the codeword is the same as without."""
    params = derive_params(q, n)
    rng = random.Random(n)
    for _ in range(10):
        x = bytes(rng.randrange(q) for _ in range(n))
        assert codec.encode(x, params, self_check=True) == codec.encode(x, params)


def _is_word(w) -> bool:
    return type(w) is bytes


@pytest.mark.parametrize("family", ["zeros", "random"])
def test_encode_returns_a_tuple_of_ints(family):
    """The working word is internal; the codeword is a plain Word (bytes),
    whether the encoder iterates (all-zeros) or not (random, no long square)."""
    q, n = 4, 1 << 10
    params = derive_params(q, n)
    rng = random.Random(3)
    x = bytes(n) if family == "zeros" else tuple(rng.randrange(q) for _ in range(n))
    y = codec.encode(x, params)
    assert _is_word(y) and len(y) == n + 1
    assert (y[-1] == 1) == (family == "zeros")


@pytest.mark.parametrize(
    "convert", [bytes, bytearray, lambda w: np.array(list(w))], ids=["bytes", "bytearray", "ndarray"]
)
def test_codec_returns_tuples_for_bytes_like_input(convert):
    """Bytes-likes and arrays are words too: every codec function gives the
    same bytes for them as for tuples, on words below and above the
    small-word cutoff."""
    for params, x in ((P16, parse_word("0000000000abcdef", 16)), (derive_params(4, 1 << 10), (0,) * (1 << 10))):
        y = codec.encode(x, params)
        z = apply_duplication(y, 3, 2 * params.K)
        fixed, removal = codec.correct_with_position(convert(z), params)
        words = (
            codec.encode(convert(x), params),
            codec.decode(convert(y), params),
            codec.correct(convert(z), params),
            fixed,
            codec.correct_with_position(convert(y), params)[0],
        )
        assert words == (y, bytes(x), y, y, y) and all(_is_word(w) for w in words)
        assert removal == codec.correct_with_position(z, params)[1]
        assert codec.is_codeword(convert(y), params)
        assert not codec.is_codeword(convert(z), params)


def test_trace_records_hold_tuples():
    """A record holds the encoder's decisions and nothing else."""
    assert codec.BlockRecord.__slots__ == ("i", "l", "r", "t", "fillers")
    params = derive_params(4, 300)
    y, trace = codec.encode_with_trace((0,) * 300, params)
    assert _is_word(y) and len(trace) >= 2
    for rec in trace:
        match rec:
            case codec.BlockRecord(i, l, r, t, fillers):
                assert all(type(v) is int for v in (i, l, r, t))
                assert type(fillers) is tuple and fillers
                assert all(_is_word(filler) for filler in fillers)
            case _:
                pytest.fail("BlockRecord does not match its positional pattern")
    assert bytes(replay_trace((0,) * 300, trace, 4, 300)) == y


def test_trace_memory_stays_linear():
    """The records keep no copy of the word, so at n = 2^13 (281
    iterations) the trace peaks far below one word copy per filler."""
    n = 1 << 13
    params = derive_params(4, n)
    x = (0,) * n
    codec.encode(x, params)  # imports and lazy tables outside the measurement
    tracemalloc.start()
    try:
        y, trace = codec.encode_with_trace(x, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 281
    assert peak < 4 << 20, peak
    assert bytes(replay_trace(x, trace, 4, n)) == y


def test_self_check_audits_every_iteration(monkeypatch):
    """self_check=True (forced by encode_with_trace) audits the window index
    once per index edit, on the whole n + 1 word after its blocks are
    written, and every audit passes. The index is built on the word after
    the first cut, so that build is the first edit and each later cut one
    more. A batch of cuts at a periodic front is one edit, so zeros makes
    fewer cuts than it writes blocks, while a runs message, whose fronts
    rarely repeat, still cuts and audits over 100 times."""
    params = derive_params(4, 1 << 12)
    audited: list[int] = []
    cuts: list[int] = []
    audit, cut = WindowIndex.audit, WindowIndex._cut

    def counted_audit(self, word):
        audited.append(len(word))
        audit(self, word)

    def counted_cut(self, w, a, b):
        cuts.append(b - a)
        cut(self, w, a, b)

    monkeypatch.setattr(WindowIndex, "audit", counted_audit)
    monkeypatch.setattr(WindowIndex, "_cut", counted_cut)
    y, trace = codec.encode_with_trace((0,) * params.n, params)
    assert hashlib.sha256(bytes(y)).hexdigest() == (
        "a0fd568d0cc5749e587a74da8b73b4360a8ea5b70eea9e8018429f2ceb06fc43"
    )
    assert 0 < len(cuts) < len(trace)
    assert audited == [params.n + 1] * (1 + len(cuts))  # one audit per index edit

    audited.clear()
    cuts.clear()
    y, trace = codec.encode_with_trace(_message(shared_runs, 4, params.n, 11), params)
    assert len(trace) >= 1 + len(cuts) > 100
    assert audited == [params.n + 1] * (1 + len(cuts))


def _encode_counting(monkeypatch, x, params) -> tuple[bytes, list[codec.BlockRecord], list[int], int]:
    """encode_with_trace x, with the length of every word its square
    searches read and the rounds of filler guesses the window index runs."""
    rounds = 0
    absent = WindowIndex._absent

    def counted_round(self, want):
        nonlocal rounds
        rounds += 1
        return absent(self, want)

    with monkeypatch.context() as patch:
        lengths = _searched_lengths(patch)
        patch.setattr(WindowIndex, "_absent", counted_round)
        y, trace = codec.encode_with_trace(x, params)
    return y, trace, lengths, rounds


def _boundary_message(rng: random.Random) -> tuple[int, int, bytes]:
    """(q, n, x): x starts with a run of period l in [K, 3K] that holds
    x[j] == x[j + l] for j < c*l + L - 1 + delta, for c <= 6 and delta in
    -2..1, so it is one symbol short of, or just reaches or passes, the
    length a batch of c cuts needs. x breaks the period there and goes on
    with a random, binary or runs tail. u, the period's symbols, is mostly
    zeros in three words of four, so its windows are small codes that
    filler lookups meet."""
    q = rng.choice((2, 3, 4, 16))
    n = rng.randint(300, 700)
    params = derive_params(q, n)
    K, L = params.K, params.L
    l = rng.randint(K, 3 * K)
    delta = rng.choice((-2, -1, 0, 1))
    c = rng.randint(1, 6)
    while c > 1 and (c + 1) * l + L + delta > n:
        c -= 1
    span = c * l + L - 1 + delta
    density = rng.choice((0.1, 0.2, 0.3, 1.0))
    u = [rng.randrange(q) if rng.random() < density else 0 for _ in range(l)]
    x = [u[j % l] for j in range(span + l)]
    x.append((x[span] + rng.randrange(1, q)) % q)  # x[span + l] != x[span]
    kind = rng.choice(("random", "binary", "runs"))
    while len(x) < n:
        if kind == "runs":
            x += [rng.randrange(q)] * rng.randint(1, 2 * K)
        else:
            x.append(rng.randrange(2 if kind == "binary" else q))
    return q, n, bytes(x[:n])


@pytest.mark.parametrize("seed", range(5))
def test_batched_front_cuts_match_the_oracle_at_the_period_boundary(seed):
    """Words whose periodic front ends within a symbol or two of what a
    batch of c cuts needs: the codeword, the squares cut and the replayed
    trace all equal the one-square-per-search oracle's. Some 3% of these
    words differ when the batch drops its L - 1 margin."""
    rng = random.Random(seed)
    batched = 0
    for _ in range(50):
        q, n, x = _boundary_message(rng)
        y, trace = codec.encode_with_trace(x, derive_params(q, n))
        hits: list[tuple[int, int]] = []
        assert y == bytes(ref_encode(x, q, n, hits)), (q, n, x)
        assert [(rec.i, rec.l) for rec in trace] == hits
        assert bytes(replay_trace(x, trace, q, n)) == y
        batched += hits[:2] == [hits[0]] * 2 and hits[0][0] == 0
    assert batched >= 25


def test_a_cut_after_the_front_can_open_a_square_before_it():
    """A periodic run at i > 0 that the front rule would cut twice is cut
    once: x = a R+ b a R b tail, where R+ is u repeated to 3*17 + 3 symbols
    and R is R+ without its first period. The first cut (10, 17) turns the
    word into a R b a R b tail, whose leftmost square is (0, 57), so a batch
    of c = 2 cuts at i = 10 would write a different codeword."""
    q, n = 4, 200
    params = derive_params(q, n)
    K, L = params.K, params.L
    assert (K, L) == (17, 4)
    rng = random.Random(0)
    u, a, b = ([rng.randrange(q) for _ in range(k)] for k in (K, 10, 10))
    run = [u[j % K] for j in range(3 * K + 3)]
    x = a + run + b + a + run[K:] + b
    x = bytes(x + [rng.randrange(q) for _ in range(n - len(x))])
    assert codec._front_repeats(bytearray(x[10:]), K, L) == 2
    hits: list[tuple[int, int]] = []
    ref = bytes(ref_encode(x, q, n, hits))
    assert hits == [(10, K), (0, 57), (10, K)]
    y, trace = codec.encode_with_trace(x, params)
    assert [(rec.i, rec.l) for rec in trace] == hits
    assert y == ref


def test_a_periodic_front_is_cut_in_few_searches(monkeypatch):
    """Every square of a periodic message starts at its front with the same
    period, so the encoder cuts them in batches: at most 4 searches where
    one per block made 564. The digest was computed one block per search."""
    params = derive_params(4, 1 << 14)
    y, _, lengths, _ = _encode_counting(monkeypatch, _message(periodic, 4, 1 << 14, 1 << 14), params)
    assert len(lengths) <= 4
    assert hashlib.sha256(y).hexdigest() == "4b84347ad963090ce0f06e12620b2848b1f6261e50632f4a761d336ab43565ea"


def test_zeros_at_the_benchmark_size_makes_few_searches(monkeypatch):
    """The benchmark's zeros message at 2^17, zeros then K seeded symbols,
    writes 3,540 blocks of two fillers each, 7,080 in all, with 2 searches
    (3,541 one block per search). The first reads the whole word; the
    second, which confirms the codeword, reads only twice the 93 symbols
    that the one batch of cuts leaves unprocessed. The window index
    chooses the fillers in 56 fill calls of at most 64 blocks, one round
    each unless a guess misses; misses are rare, so there are few more
    rounds than calls, where one lookup per filler made 7,080."""
    n = 1 << 17
    params = derive_params(4, n)
    rng = random.Random(1)
    x = bytes(n - params.K) + bytes(rng.randrange(4) for _ in range(params.K))
    y, trace, lengths, rounds = _encode_counting(monkeypatch, x, params)
    assert lengths == [n + 1, 186]
    assert len(trace) == 3540 and sum(len(rec.fillers) for rec in trace) == 7080
    assert 56 <= rounds <= 72
    assert codec.decode(y, params) == x


def test_self_check_compares_each_narrowed_search_with_the_whole_word(monkeypatch):
    """A search that answers None on every word shorter than the codeword
    misses the squares left after the first cut. encode_with_trace, which
    forces self_check, searches the whole word beside each narrowed search
    and refuses the difference; the default path trusts the window."""
    params = derive_params(4, 1 << 12)
    x = _message(shared_runs, 4, params.n, 11)
    y = codec.encode(x, params)
    lengths = _searched_lengths(
        monkeypatch, lambda w, K: None if len(w) < params.n + 1 else repeats.find_leftmost_long(w, K)
    )
    with pytest.raises(InternalDefectError, match="missed the leftmost long square"):
        codec.encode_with_trace(x, params)
    assert lengths[0] == params.n + 1 and lengths[-1] < params.n + 1
    assert codec.encode(x, params) != y


def test_codec_writes_and_reads_its_digits_through_core(monkeypatch):
    """The encoder writes each batch's offset and length digits with
    to_digits, and decode reads them back with from_digits, names of codec
    that a spy set there sees: an all-zero message at 2^12 takes 2 batches
    of cuts, 2 to_digits calls each, and its decode 2 replay steps, 2
    from_digits calls each."""
    params = derive_params(4, 1 << 12)
    calls, searches, steps = [], [], []
    for name in ("to_digits", "from_digits"):
        real = vars(codec)[name]
        monkeypatch.setattr(codec, name, lambda v, p, real=real, name=name: calls.append(name) or real(v, p))
    search, redo = codec.find_leftmost_long, EditableWord._redo
    monkeypatch.setattr(codec, "find_leftmost_long", lambda w, K: searches.append(1) or search(w, K))
    monkeypatch.setattr(EditableWord, "_redo", lambda self, i, l, c: steps.append(c) or redo(self, i, l, c))
    x = bytes(params.n)
    y = codec.encode(x, params)
    batches = len(searches) - 1  # the last search finds no square
    assert batches == 2 and calls == ["to_digits"] * 2 * batches
    calls.clear()
    assert codec.decode(y, params) == x
    assert len(steps) == 2 and calls == ["from_digits"] * 2 * len(steps)


def test_encoder_keeps_off_the_checked_path(monkeypatch):
    """The encoder checks the message once and hands the window index
    bytes it built itself, so check_word runs a fixed number of times
    however many iterations the encode takes."""
    calls = 0
    check_word = core.check_word

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return check_word(*args, **kwargs)

    for module in (core, codec, windows, repeats):
        monkeypatch.setattr(module, "check_word", counted)
    per_size = []
    for n in (1 << 10, 1 << 12):  # 48 and 163 iterations
        calls = 0
        codec.encode((0,) * n, derive_params(4, n))
        per_size.append(calls)
    assert per_size[0] == per_size[1] <= 2


def test_all_zeros_block_structure():
    """The all-zeros message forces maximal block churn; every iteration
    must keep the length invariant and r >= 2 fillers."""
    q, n = 4, 300
    params = derive_params(q, n)
    y, trace = codec.encode_with_trace((0,) * n, params)
    assert len(y) == n + 1
    assert is_dup_free(y, params.K)
    assert len(trace) >= 2
    for rec in trace:
        assert rec.l >= params.K
        assert rec.r >= 2
        assert 2 * params.L + rec.r * params.L + rec.t + 1 == rec.l
        assert len(rec.fillers) == rec.r
    assert bytes(replay_trace((0,) * n, trace, q, n)) == y
    assert codec.decode(y, params) == bytes(n)


def test_decode_strips_plain_flag():
    y = parse_word("0123456789abcdef0", 16)
    assert codec.decode(y, P16) == parse_word("0123456789abcdef", 16)


@pytest.mark.parametrize(
    "text,err",
    [
        ("0123456789abcde", MalformedCodewordError),  # wrong length
        ("0123456789abcdef2", MalformedCodewordError),  # flag symbol not 0/1
        ("0123456789abcde01", MalformedCodewordError),  # encoded l = 1 < K
        ("0123456789abcdef1", MalformedCodewordError),  # encoded l = 15: i+l overruns
    ],
)
def test_decode_rejects_malformed(text, err):
    with pytest.raises(err):
        codec.decode(parse_word(text, 16), P16)


def test_decode_rejects_bad_symbol():
    with pytest.raises(MalformedWordError):
        codec.decode((0,) * 16 + (16,), P16)


def test_decode_checks_structure_not_membership():
    """decode checks length, flags, digit ranges and block fit; exact
    membership is is_codeword. This word passes decode's checks without
    being a codeword, so decode must refuse it or return a message whose
    codeword is another word."""
    y = parse_word("c967a64cb14028d51", 16)
    assert not codec.is_codeword(y, P16)
    try:
        x = codec.decode(y, P16)
    except MalformedCodewordError:
        return
    assert codec.encode(x, P16) != y


def _block(i: int, l: int, params) -> bytes:
    """A block in the encoder's layout, with zeros for the fillers."""
    return to_digits(i, params) + bytes(l - 2 * params.L - 1) + to_digits(l, params) + b"\x01"


@pytest.mark.parametrize("i_old,refused", [(25, False), (26, True), (30, True)])
def test_decode_enforces_the_encoder_block_order(i_old, refused):
    """The newest block (i=0, l=K) replays a square ending at 2K = 26, so
    the block before it must have its offset below 26: the encoder never
    finds a square wholly inside the prefix it left square-free."""
    params = derive_params(4, 64)
    K = params.K
    y = bytes(params.n + 1 - 2 * K) + _block(i_old, K, params) + _block(0, K, params)
    assert len(y) == params.n + 1
    if refused:
        with pytest.raises(MalformedCodewordError, match="not below 26"):
            codec.decode(y, params)
    else:
        assert len(codec.decode(y, params)) == params.n


def _loop_word(params, l: int) -> bytes:
    """Two copies of the block (n + 1 - 2l, l) behind zeros: replaying the
    last copy re-creates both, so the replay never reaches a flag 0."""
    m = params.n + 1
    return bytes(m - 2 * l) + _block(m - 2 * l, l, params) * 2


# (params, word, the exact refusal), one per check decode's docstring names,
# in the order decode makes them.
_P64 = derive_params(4, 64)
_REFUSALS = [
    pytest.param(P16, parse_word("0123456789abcde", 16), "codeword must have length 17, got 15", id="length"),
    pytest.param(P16, parse_word("0123456789abcdef2", 16), "trailing flag must be 0 or 1, got 2", id="flag"),
    pytest.param(
        CodeParams(q=2, n=4, L=10, K=41), (0, 0, 0, 0, 1), "too few symbols for a length block", id="too-few"
    ),
    pytest.param(
        P16, parse_word("0123456789abcde01", 16), "block half-length 0 is below the threshold 5", id="below-K"
    ),
    pytest.param(
        derive_params(4, 20),
        (0,) * 17 + (3, 3, 3, 1),
        "block half-length 63 exceeds the word length 21",
        id="above-length",
    ),
    pytest.param(
        P16, parse_word("0123456789abcdef1", 16), "reinsertion (i=2, l=15) does not fit in 2 symbols", id="fit"
    ),
    pytest.param(
        _P64,
        bytes(39) + _block(26, 13, _P64) + _block(0, 13, _P64),
        "block offset 26 is not below 26, where the next block's square ends",
        id="order",
    ),
    pytest.param(_P64, _loop_word(_P64, 13), "block half-lengths sum to 78, past the word length 65", id="no-end"),
]


@pytest.mark.parametrize("params,y,message", _REFUSALS)
def test_decode_refusals_keep_their_messages(params, y, message):
    with pytest.raises(MalformedCodewordError, match=f"^{re.escape(message)}$"):
        codec.decode(y, params)
    assert not codec.is_codeword(y, params)


def test_decode_reads_a_later_flag_after_a_replayed_block():
    """The flag check runs on every block, not only on the word's last symbol:
    the block (0, K) replays onto a word that ends in the symbol 2."""
    params = derive_params(4, 64)
    K = params.K
    y = bytes(params.n - K) + b"\x02" + _block(0, K, params)
    with pytest.raises(MalformedCodewordError, match="^trailing flag must be 0 or 1, got 2$"):
        codec.decode(y, params)


def _random_block_word(rng: random.Random, params) -> bytes:
    """Random symbols ending in a chain of encoder-shaped blocks, each
    offset drawn so that decode's fit and order checks often pass."""
    m, K = params.n + 1, params.K
    tail = b""
    while len(tail) < m - 1 - K and rng.random() < 0.8:
        l = rng.randint(K, max(K, (m - len(tail)) // 2))
        if len(tail) + l > m - 1:
            break
        i = rng.randint(0, max(0, m - 2 * l - len(tail)))
        tail = _block(i, l, params) + tail
    head = bytes(rng.randrange(params.q) for _ in range(m - len(tail) - 1)) + b"\x00"
    return (head + tail)[-m:] if tail else head


@pytest.mark.parametrize("q,n", [(4, 64), (2, 100), (16, 300)])
def test_decode_matches_the_list_oracle_on_accepted_non_codewords(q, n):
    """decode and oracles.ref_decode agree on every word decode accepts,
    codewords or not, such as the offset-25 word of the block-order test."""
    params = derive_params(q, n)
    rng = random.Random(q * 1000 + n)
    accepted = 0
    for _ in range(200):
        y = _random_block_word(rng, params)
        assert len(y) == n + 1
        try:
            x = codec.decode(y, params)
        except MalformedCodewordError:
            continue
        if y[-1] == 1 and not codec.is_codeword(y, params):
            accepted += 1
        assert x == bytes(ref_decode(y, q, n))
    assert accepted >= 20


def _looping_block_word(rng: random.Random, params) -> bytes:
    """Like _random_block_word with wider ranges: half-lengths up to
    (n + 1) / 2, offsets anywhere the fit check allows and half of them
    n + 1 - 2l, blocks repeated half the time. Replaying a block at offset
    n + 1 - 2l copies the symbols just before it onto the tail, so a
    repeated block re-creates itself, as in _loop_word."""
    m, K = params.n + 1, params.K
    tail = b""
    while len(tail) < m - 1 - K and rng.random() < 0.8:
        l = rng.randint(K, m // 2)
        if len(tail) + l > m - 1:
            break
        i = m - 2 * l if rng.random() < 0.5 else rng.randint(0, m - 2 * l)
        tail = _block(i, l, params) * rng.randint(1, 2) + tail
    head = bytes(rng.randrange(params.q) for _ in range(m - len(tail) - 1)) + b"\x00"
    return (head + tail)[-m:] if tail else head


def _decode_travel(monkeypatch, y, params, per_block: bool = False) -> int:
    """Decode y and return the symbols the gap buffer's cursor moved over;
    per_block=True replays every block in a step of its own."""
    with monkeypatch.context() as patch:
        travel = CursorTravel(patch)
        if per_block:
            patch.setattr(codec, "_equal_blocks", lambda *args: 1)
        codec.decode(y, params)
    return travel.symbols


# The travel of the replay that made one step per block, which decode's
# per-block path still makes, and the travel of decode, which replays each
# run of equal blocks in one step. A run's step must move the cursor less.
_PER_BLOCK_TRAVEL = {(4, 300): 511, (4, 1 << 12): 8097, (2, 256): 389}
_TRAVEL = {(4, 300): 7, (4, 1 << 12): 4072, (2, 256): 224}


@pytest.mark.parametrize("q,n", [(4, 300), (4, 1 << 12), (2, 256)])
def test_decode_cursor_travel_is_bounded_on_codewords(monkeypatch, q, n):
    """decode's docstring bounds the cursor's travel by 4(n + 1); on these
    codewords it stays within 3(n + 1), one step per block or per run."""
    params = derive_params(q, n)
    y = codec.encode((0,) * n, params)
    travel = _decode_travel(monkeypatch, y, params)
    per_block = _decode_travel(monkeypatch, y, params, per_block=True)
    assert 0 < travel <= 3 * (n + 1)
    assert 0 < per_block <= 3 * (n + 1)
    assert per_block == _PER_BLOCK_TRAVEL[q, n]
    assert travel == _TRAVEL[q, n] <= _PER_BLOCK_TRAVEL[q, n]


def test_decode_cursor_travel_is_bounded_on_an_accepted_non_codeword(monkeypatch):
    """The two-block word decode accepts (offset 25, see the block-order test)
    is not a codeword, yet its replay keeps to the same bound."""
    params = derive_params(4, 64)
    K = params.K
    y = bytes(params.n + 1 - 2 * K) + _block(25, K, params) + _block(0, K, params)
    assert not codec.is_codeword(y, params)
    travel = _decode_travel(monkeypatch, y, params)
    assert 0 < travel <= 3 * (params.n + 1)
    assert travel == 51


@pytest.mark.parametrize("q,n", [(4, 64), (2, 100), (16, 300), (4, 250)])
def test_decode_cursor_travel_is_bounded_on_every_word(monkeypatch, q, n):
    """The half-length budget keeps the travel within 3(n + 1) on these
    words, refused ones too. Without it, chains that replay the blocks they
    re-create moved the cursor up to 10.5(n + 1) at (16, 300) in a search
    of 2,000 words."""
    params = derive_params(q, n)
    rng = random.Random(q * 1000 + n + 1)
    travel = CursorTravel(monkeypatch)
    over_budget = 0
    for _ in range(300):
        y = _looping_block_word(rng, params)
        travel.symbols = 0
        try:
            codec.decode(y, params)
        except MalformedCodewordError as e:
            over_budget += str(e).startswith("block half-lengths sum to")
        assert travel.symbols <= 3 * (n + 1), y
    assert over_budget > 50


def _chain_word(params) -> bytes:
    """A word decode accepts whose replay alternates resets and chains. A
    reset (0, K) sends the cursor back to the word's front; a chain of
    blocks, each offset one below the end of the square before it, then
    walks it right by nearly l per block, and each block's copy pushes it
    l further, up to the blocks still to be read. The blocks are stacked
    so that no replay reaches them."""
    m, K = params.n + 1, params.K
    for total in range(m - 2, 0, -1):  # the most half-lengths a plan can spend
        blocks, left, e = [], total, m
        while left >= K:
            l = min(m - left - e + 1, left)  # the longest chain block that fits
            i = e - 1
            if e == m or l < K:
                i, l = 0, K
            left -= l
            if i + 2 * l > m - left:
                break
            blocks.append(_block(i, l, params))
            e = i + 2 * l
        else:
            return bytes(m - (total - left)) + b"".join(reversed(blocks))
    raise AssertionError("no plan fits")


@pytest.mark.parametrize("q,n", [(4, 5000), (2, 20000)])
def test_decode_cursor_travel_can_pass_three_times_the_length(monkeypatch, q, n):
    """4(n + 1) is the bound, not 3(n + 1): on _chain_word each reset's
    walk back costs as much as the chain before it, and the chains' own
    moves nearly double that, so the travel passes 3(n + 1), at 3.37(n + 1)
    for (4, 5000) and 3.50(n + 1) for (2, 20000)."""
    params = derive_params(q, n)
    y = _chain_word(params)
    assert len(y) == n + 1
    assert len(codec.decode(y, params)) == n
    travel = _decode_travel(monkeypatch, y, params)
    assert 3 * (n + 1) < travel < 4 * (n + 1)


def _decode_outcome(monkeypatch, y, params, per_block: bool = False) -> tuple[bytes | str, int, int]:
    """(decode's result, or its refusal's message; the blocks it replayed;
    the replay steps it made). per_block=True replays every block in a
    step of its own."""
    blocks = steps = 0
    redo = EditableWord._redo

    def counting_redo(self, i, l, c=1):
        nonlocal blocks, steps
        blocks += c
        steps += 1
        redo(self, i, l, c)

    with monkeypatch.context() as patch:
        patch.setattr(EditableWord, "_redo", counting_redo)
        if per_block:
            patch.setattr(codec, "_equal_blocks", lambda *args: 1)
        try:
            out = codec.decode(y, params)
        except MalformedCodewordError as e:
            out = str(e)
    return out, blocks, steps


def _run_word(rng: random.Random, kind: str) -> tuple[CodeParams, bytes]:
    """A word ending in k equal blocks (i, l) behind random symbols, with
    i + (c + 1)*l = m + delta for delta in -1..1, so that a run of c blocks
    falls one symbol short of decode's fit limit, meets it or passes it.
    i = 0 in about a third of the words. "fit" words hold k = c blocks,
    "budget" words k = c + 1: at delta = 0 the replay of c of them re-creates
    them, as _loop_word's pair does, so decode replays runs of them until
    their half-lengths overrun the budget. In a third of the words one
    symbol of the digits or the flag of a block other than the last is
    changed, which ends the run there."""
    q = rng.choice((2, 4, 16))
    delta = rng.choice((-1, 0, 1))
    c = rng.randint(2, 8)
    k = c + (kind == "budget")
    while True:
        if rng.random() < 0.4:  # i = 0
            l = rng.randint(20, 120)
            n = (c + 1) * l - delta - 1
        else:
            n = rng.randint(200, 900)
            l = rng.randint(4, n // (c + 2))
        params = derive_params(q, n)
        m = n + 1
        i = m + delta - (c + 1) * l
        if l >= params.K and i >= 0 and k * l < m:
            break
    run = bytearray(_block(i, l, params) * k)
    if rng.random() < 1 / 3:
        L = params.L
        at = rng.randrange(len(run) // l - 1) * l + rng.choice((rng.randrange(L), l - 1 - rng.randrange(L + 1)))
        run[at] = (run[at] + 1) % q
    head = bytes(rng.randrange(q) for _ in range(m - len(run) - 1))
    return params, head + bytes((rng.choice((0, 0, 0, 1, q - 1)),)) + bytes(run)


@pytest.mark.parametrize("kind", ["fit", "budget"])
def test_decode_replays_runs_of_equal_blocks_as_one_block_at_a_time(monkeypatch, kind):
    """A run's one step replays it exactly as one step per block: the same
    message or the same refusal, after the same number of blocks. A
    message it returns equals the list oracle's."""
    rng = random.Random(len(kind))
    accepted = refused = batched = over_budget = 0
    for _ in range(250):
        params, y = _run_word(rng, kind)
        q, n = params.q, params.n
        out, blocks, steps = _decode_outcome(monkeypatch, y, params)
        assert (out, blocks) == _decode_outcome(monkeypatch, y, params, per_block=True)[:2], (q, n, y)
        if isinstance(out, bytes):
            assert out == bytes(ref_decode(y, q, n))
            accepted += 1
        else:
            refused += 1
            over_budget += out.startswith("block half-lengths sum to")
        batched += steps < blocks
    assert accepted > 25 and refused > 25 and batched > 150
    assert over_budget > 25 or kind == "fit"


def test_decode_of_the_benchmark_zeros_codeword_makes_few_replay_steps(monkeypatch):
    """The benchmark's zeros message at 2^17, zeros then K seeded symbols,
    has a codeword of 3,540 equal blocks (0, K); decode replays them with at
    most 3 steps where one step per block made 3,540."""
    n = 1 << 17
    params = derive_params(4, n)
    rng = random.Random(1)
    x = bytes(n - params.K) + bytes(rng.randrange(4) for _ in range(params.K))
    y = codec.encode(x, params)
    out, blocks, steps = _decode_outcome(monkeypatch, y, params)
    assert (out, blocks) == (x, 3540)
    assert 1 <= steps <= 3


@pytest.mark.parametrize("params", ["x", None, 3, (16, 16, 1, 5)])
def test_params_that_are_not_code_params_are_refused(params):
    """Every codec entry point names a params of the wrong type, even
    is_codeword, whose "never raises" covers the word, not params."""
    message = f"^params must be a CodeParams, got {type(params).__name__}$"
    x = (0,) * 16
    y = codec.encode(x, P16)
    calls = [
        (codec.encode, x),
        (codec.encode_with_trace, x),
        (codec.decode, y),
        (codec.correct, y),
        (codec.correct_with_position, y),
        (codec.is_codeword, y),
        (codec.is_codeword, "not a word"),
    ]
    for fn, word in calls:
        with pytest.raises(ValueError, match=message):
            fn(word, params)


def test_correct_example_pair():
    x = parse_word("00123312", 4)
    for i in (2, 4):
        corrupted = apply_duplication(x, i, 2)
        assert codec.correct(corrupted, P4) == x
    fixed, removal = codec.correct_with_position(apply_duplication(x, 4, 2), P4)
    assert fixed == x
    assert (removal.i, removal.l) == (4, 2)


def test_correct_passthrough_and_errors():
    x = parse_word("00123312", 4)
    assert codec.correct(x, P4) == x
    assert codec.correct_with_position(x, P4) == (x, None)
    with pytest.raises(MalformedCodewordError):
        codec.correct(x[:-1], P4)  # shorter than a codeword
    with pytest.raises(MalformedCodewordError):
        codec.correct(x + bytes((0, 1)), P4)  # no period-2 square anywhere


def test_correct_rejects_result_with_long_square():
    # removing the only period-l square still leaves a long square:
    # the all-zeros word is not a single corruption of any codeword
    params = derive_params(16, 16)
    y = (0,) * (17 + 6)
    with pytest.raises(MalformedCodewordError):
        codec.correct(y, params)


@pytest.mark.parametrize("q,n", [(16, 16), (2, 40)])
def test_correct_full_sweep_small(q, n):
    params = derive_params(q, n)
    rng = random.Random(4 * q + n)
    for _ in range(8):
        x = bytes(rng.randrange(q) for _ in range(n))
        y = codec.encode(x, params)
        for l in range(params.K, n + 2):
            for i in range(0, n + 2 - l):
                z = apply_duplication(y, i, l)
                assert codec.correct(z, params) == y
                assert codec.decode(codec.correct(z, params), params) == x


def test_correct_locates_leftmost_square():
    """The removal position reported must be the leftmost period-l square,
    cross-checked against a slice-comparison scan."""
    params = derive_params(2, 64)
    rng = random.Random(3)
    for _ in range(40):
        x = tuple(rng.randrange(2) for _ in range(64))
        y = codec.encode(x, params)
        l = rng.randint(params.K, 40)
        i = rng.randint(0, len(y) - l)
        z = apply_duplication(y, i, l)
        _, removal = codec.correct_with_position(z, params)
        expect = next(p for p in range(len(z) - 2 * l + 1) if z[p : p + l] == z[p + l : p + 2 * l])
        assert removal.i == expect and removal.l == l


def test_is_codeword():
    x = parse_word("0000000000abcdef", 16)
    y = codec.encode(x, P16)
    assert codec.is_codeword(y, P16)
    assert not codec.is_codeword(y[:-1], P16)           # wrong length
    assert not codec.is_codeword((16,) * 17, P16)       # bad symbols
    assert not codec.is_codeword(x + b"\x05", P16)       # flag symbol invalid
    # a valid-looking word that decodes but re-encodes differently
    z = parse_word("00000000001234501", 16)
    if codec.is_codeword(z, P16):
        assert codec.encode(codec.decode(z, P16), P16) == z


def test_non_integer_symbols_are_refused_not_truncated():
    """A float symbol used to be truncated, so encode([0.5] * n) encoded the
    all-zeros message; is_codeword stays total on such words."""
    with pytest.raises(MalformedWordError, match=r"symbol 0.5 at position 0 is not an integer"):
        codec.encode([0.5] * 16, P16)
    with pytest.raises(MalformedWordError, match=r"symbol 'a' at position 0 is not an integer"):
        codec.decode(["a"] * 17, P16)
    y = codec.encode((0,) * 16, P16)
    assert codec.is_codeword(y, P16)
    assert not codec.is_codeword(["a"] * 17, P16)
    assert not codec.is_codeword([float(s) for s in y], P16)
    assert not codec.is_codeword(17, P16)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_property(data):
    q = data.draw(st.sampled_from([2, 4, 16]), label="q")
    n = data.draw(st.integers(16, 64), label="n")
    params = derive_params(q, n)
    x = bytes(data.draw(st.integers(0, q - 1)) for _ in range(n))
    y = codec.encode(x, params)
    assert len(y) == n + 1
    assert naive_leftmost(y, params.K) is None
    assert codec.decode(y, params) == x
