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

from oracles import naive_leftmost, ref_decode, ref_encode, replay_trace


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
    assert rec.fillers == ((1,), (2,))
    # each filler was genuinely missing from the word it was chosen against
    assert replay_trace(x, trace, 16, 16) == y


def test_no_duplication_message_gets_flag_zero():
    x = parse_word("0123456789abcdef", 16)
    y = codec.encode(x, P16)
    assert y == x + (0,)
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
        x = tuple(rng.randrange(q) for _ in range(n))
        y = codec.encode(x, params)
        assert y == ref_encode(x, q, n)
        assert len(y) == n + 1
        assert is_dup_free(y, params.K)
        assert codec.decode(y, params) == x
        assert ref_decode(y, q, n) == x


def _runs_message(q: int, n: int, seed: int) -> tuple[int, ...]:
    """Seeded runs of length 2K, one random symbol per run."""
    K = derive_params(q, n).K
    rng = random.Random(seed)
    out: list[int] = []
    while len(out) < n:
        out += [rng.randrange(q)] * (2 * K)
    return tuple(out[:n])


@pytest.mark.parametrize("q,n", [(4, 300), (2, 256), (3, 200)])
@pytest.mark.parametrize("family", ["zeros", "runs"])
def test_encode_matches_reference_over_many_iterations(q, n, family):
    """Messages that force several encoder iterations, so every filler the
    window index picks is checked against the Counter-based reference."""
    params = derive_params(q, n)
    x = (0,) * n if family == "zeros" else _runs_message(q, n, q * n)
    y, trace = codec.encode_with_trace(x, params)
    assert len(trace) >= 2
    assert y == ref_encode(x, q, n)
    assert replay_trace(x, trace, q, n) == y


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
    x = (255,) * n if family == "constant" else tuple(runs[:n])
    y, trace = codec.encode_with_trace(x, params)
    assert len(trace) >= 2
    assert 255 in y
    assert y == ref_encode(x, q, n)
    assert replay_trace(x, trace, q, n) == y
    assert codec.decode(y, params) == x


@pytest.mark.parametrize(
    "q,n,family,digest",
    [
        (4, 1 << 12, "zeros", "d16d48d61572faf2e76c8c1f101531cf20a411f6d24e4706679ceefd93782fb5"),
        (4, 1 << 14, "zeros", "816b407071872ff7a835de2c42596914f22a8760e50a726382dfa2bb65aef94a"),
        # L = 3 with q**L above DENSE_LEAF_LIMIT: the sparse window store
        (200, 40001, "zeros", "94f350055c9f80c6cd2d8bdd99b0444c749e358f727abef8d87134631a9f76b5"),
        (4, 1 << 11, "runs", "46759b53bb32cc22394e5960fae974254ab0799c4a5561a1a7e0ad45cf5f43fa"),
        # the benchmark's zeros message, 3540 iterations
        (4, 1 << 17, "zeros", "dc08568c1b2de931282291607dc4c9e123667c47a3c8d38807edc77df24236ec"),
        # L = 12: a deep trie, 82 iterations
        (2, 1 << 12, "zeros", "0802d024254e90edd42d45d9b740948786b3aa3b2e45f83b9292120714f8ad6a"),
    ],
)
def test_encode_output_is_pinned(q, n, family, digest):
    """Codewords are part of the contract: these digests must not move."""
    params = derive_params(q, n)
    x = (0,) * n if family == "zeros" else _runs_message(q, n, 11)
    assert hashlib.sha256(bytes(codec.encode(x, params))).hexdigest() == digest


@pytest.mark.parametrize("q,n", [(16, 16), (2, 64), (4, 100)])
def test_backends_agree_under_self_check(q, n):
    """self_check=True only adds checks: the codeword is the same as without."""
    params = derive_params(q, n)
    rng = random.Random(n)
    for _ in range(10):
        x = tuple(rng.randrange(q) for _ in range(n))
        assert codec.encode(x, params, self_check=True) == codec.encode(x, params)


def _is_word(w) -> bool:
    return type(w) is tuple and all(type(s) is int for s in w)


@pytest.mark.parametrize("family", ["zeros", "random"])
def test_encode_returns_a_tuple_of_ints(family):
    """The working word is internal; the codeword is a plain Word, whether
    the encoder iterates (all-zeros) or not (random, no long square)."""
    q, n = 4, 1 << 10
    params = derive_params(q, n)
    rng = random.Random(3)
    x = (0,) * n if family == "zeros" else tuple(rng.randrange(q) for _ in range(n))
    y = codec.encode(x, params)
    assert _is_word(y) and len(y) == n + 1
    assert (y[-1] == 1) == (family == "zeros")


@pytest.mark.parametrize("convert", [bytes, bytearray, np.array], ids=["bytes", "bytearray", "ndarray"])
def test_codec_returns_tuples_for_bytes_like_input(convert):
    """Bytes-likes and arrays are words too: every codec function gives the
    same tuples of ints for them as for tuples, on words below and above
    the small-word cutoff."""
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
        assert words == (y, x, y, y, y) and all(_is_word(w) for w in words)
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
    assert replay_trace((0,) * 300, trace, 4, 300) == y


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
    assert replay_trace(x, trace, 4, n) == y


def test_self_check_audits_the_array_store_every_iteration(monkeypatch):
    params = derive_params(4, 1 << 12)
    audited: list[type] = []
    cuts: list[int] = []
    audit, cut = WindowIndex.audit, WindowIndex._cut

    def counted_audit(self, word):
        audited.append(type(self._counts))
        audit(self, word)

    def counted_cut(self, w, a, b):
        cuts.append(b - a)
        cut(self, w, a, b)

    monkeypatch.setattr(WindowIndex, "audit", counted_audit)
    monkeypatch.setattr(WindowIndex, "_cut", counted_cut)
    y = codec.encode((0,) * params.n, params, self_check=True)
    assert hashlib.sha256(bytes(y)).hexdigest() == (
        "d16d48d61572faf2e76c8c1f101531cf20a411f6d24e4706679ceefd93782fb5"
    )
    assert len(audited) == len(cuts) > 100  # one audit per iteration
    assert set(audited) == {np.ndarray}


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
    assert replay_trace((0,) * n, trace, q, n) == y
    assert codec.decode(y, params) == (0,) * n


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


def _block(i: int, l: int, params) -> tuple[int, ...]:
    """A block in the encoder's layout, with zeros for the fillers."""
    return to_digits(i, params) + (0,) * (l - 2 * params.L - 1) + to_digits(l, params) + (1,)


@pytest.mark.parametrize("i_old,refused", [(25, False), (26, True), (30, True)])
def test_decode_enforces_the_encoder_block_order(i_old, refused):
    """The newest block (i=0, l=K) replays a square ending at 2K = 26, so
    the block before it must have its offset below 26: the encoder never
    finds a square wholly inside the prefix it left square-free."""
    params = derive_params(4, 64)
    K = params.K
    y = (0,) * (params.n + 1 - 2 * K) + _block(i_old, K, params) + _block(0, K, params)
    assert len(y) == params.n + 1
    if refused:
        with pytest.raises(MalformedCodewordError, match="not below 26"):
            codec.decode(y, params)
    else:
        assert len(codec.decode(y, params)) == params.n


def _loop_word(params, l: int) -> tuple[int, ...]:
    """Two copies of the block (n + 1 - 2l, l) behind zeros: replaying the
    last copy re-creates both, so the replay never reaches a flag 0."""
    m = params.n + 1
    return (0,) * (m - 2 * l) + _block(m - 2 * l, l, params) * 2


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
        (0,) * 39 + _block(26, 13, _P64) + _block(0, 13, _P64),
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
    y = (0,) * (params.n - K) + (2,) + _block(0, K, params)
    with pytest.raises(MalformedCodewordError, match="^trailing flag must be 0 or 1, got 2$"):
        codec.decode(y, params)


def _random_block_word(rng: random.Random, params) -> tuple[int, ...]:
    """Random symbols ending in a chain of encoder-shaped blocks, each
    offset drawn so that decode's fit and order checks often pass."""
    m, K = params.n + 1, params.K
    tail: tuple[int, ...] = ()
    while len(tail) < m - 1 - K and rng.random() < 0.8:
        l = rng.randint(K, max(K, (m - len(tail)) // 2))
        if len(tail) + l > m - 1:
            break
        i = rng.randint(0, max(0, m - 2 * l - len(tail)))
        tail = _block(i, l, params) + tail
    head = tuple(rng.randrange(params.q) for _ in range(m - len(tail) - 1)) + (0,)
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
        assert x == ref_decode(y, q, n)
    assert accepted >= 20


def _looping_block_word(rng: random.Random, params) -> tuple[int, ...]:
    """Like _random_block_word with wider ranges: half-lengths up to
    (n + 1) / 2, offsets anywhere the fit check allows and half of them
    n + 1 - 2l, blocks repeated half the time. Replaying a block at offset
    n + 1 - 2l copies the symbols just before it onto the tail, so a
    repeated block re-creates itself, as in _loop_word."""
    m, K = params.n + 1, params.K
    tail: tuple[int, ...] = ()
    while len(tail) < m - 1 - K and rng.random() < 0.8:
        l = rng.randint(K, m // 2)
        if len(tail) + l > m - 1:
            break
        i = m - 2 * l if rng.random() < 0.5 else rng.randint(0, m - 2 * l)
        tail = _block(i, l, params) * rng.randint(1, 2) + tail
    head = tuple(rng.randrange(params.q) for _ in range(m - len(tail) - 1)) + (0,)
    return (head + tail)[-m:] if tail else head


def _decode_travel(monkeypatch, y, params) -> int:
    """Decode y and return the symbols the gap buffer's cursor moved over."""
    travel = 0
    seek = EditableWord._seek

    def counting_seek(self, p):
        nonlocal travel
        travel += abs(p - len(self._left))
        seek(self, p)

    with monkeypatch.context() as patch:
        patch.setattr(EditableWord, "_seek", counting_seek)
        codec.decode(y, params)
    return travel


# The travel of the replay that called delete_range, slice and insert per
# block; the private step must move the cursor exactly as they did.
_TRAVEL = {(4, 300): 511, (4, 1 << 12): 8097, (2, 256): 389}


@pytest.mark.parametrize("q,n", [(4, 300), (4, 1 << 12), (2, 256)])
def test_decode_cursor_travel_is_bounded_on_codewords(monkeypatch, q, n):
    """decode's docstring bounds the cursor's travel by 3(n + 1); count it."""
    params = derive_params(q, n)
    y = codec.encode((0,) * n, params)
    travel = _decode_travel(monkeypatch, y, params)
    assert 0 < travel <= 3 * (n + 1)
    assert travel == _TRAVEL[q, n]


def test_decode_cursor_travel_is_bounded_on_an_accepted_non_codeword(monkeypatch):
    """The two-block word decode accepts (offset 25, see the block-order test)
    is not a codeword, yet its replay keeps to the same bound."""
    params = derive_params(4, 64)
    K = params.K
    y = (0,) * (params.n + 1 - 2 * K) + _block(25, K, params) + _block(0, K, params)
    assert not codec.is_codeword(y, params)
    travel = _decode_travel(monkeypatch, y, params)
    assert 0 < travel <= 3 * (params.n + 1)
    assert travel == 51


@pytest.mark.parametrize("q,n", [(4, 64), (2, 100), (16, 300), (4, 250)])
def test_decode_cursor_travel_is_bounded_on_every_word(monkeypatch, q, n):
    """The half-length budget keeps the travel within 3(n + 1) on words
    decode refuses too. Without it, chains that replay the blocks they
    re-create moved the cursor up to 10.5(n + 1) at (16, 300) in a search
    of 2,000 words."""
    params = derive_params(q, n)
    rng = random.Random(q * 1000 + n + 1)
    travel = 0
    seek = EditableWord._seek

    def counting_seek(self, p):
        nonlocal travel
        travel += abs(p - len(self._left))
        seek(self, p)

    monkeypatch.setattr(EditableWord, "_seek", counting_seek)
    over_budget = 0
    for _ in range(300):
        y = _looping_block_word(rng, params)
        travel = 0
        try:
            codec.decode(y, params)
        except MalformedCodewordError as e:
            over_budget += str(e).startswith("block half-lengths sum to")
        assert travel <= 3 * (n + 1), y
    assert over_budget > 50


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
        codec.correct(x + (0, 1), P4)  # no period-2 square anywhere


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
        x = tuple(rng.randrange(q) for _ in range(n))
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
    assert not codec.is_codeword(x + (5,), P16)         # flag symbol invalid
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
    x = tuple(data.draw(st.integers(0, q - 1)) for _ in range(n))
    y = codec.encode(x, params)
    assert len(y) == n + 1
    assert naive_leftmost(y, params.K) is None
    assert codec.decode(y, params) == x
