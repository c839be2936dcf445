import numpy as np
import pytest
from hypothesis import given, strategies as st

from dupcode import (
    ChannelSpec,
    DuplicationChannel,
    EditableWord,
    WindowIndex,
    apply_duplication,
    correct,
    correct_with_position,
    decode,
    encode,
    encode_with_trace,
    enumerate_code0,
    random_duplication,
)
from dupcode.core import (
    CodeParams,
    MalformedWordError,
    check_word,
    derive_params,
    format_word,
    from_digits,
    parse_word,
    to_digits,
)

from oracles import params_for


@pytest.mark.parametrize(
    "q,n,L,K",
    [
        (2, 4, 2, 9),
        (2, 64, 6, 25),
        (16, 16, 1, 5),
        (4, 7, 2, 9),
        (2, 1024, 10, 41),
        (4, 100000, 9, 37),
    ],
)
def test_derive_params_anchors(q, n, L, K):
    p = derive_params(q, n)
    assert (p.q, p.n, p.L, p.K) == (q, n, L, K)


@given(q=st.integers(2, 64), n=st.integers(2, 10**6))
def test_derive_params_properties(q, n):
    p = derive_params(q, n)
    # L is the least exponent covering n, and K is pinned to it
    assert q**p.L >= n
    assert p.L == 0 or q ** (p.L - 1) < n
    assert p.K == 4 * p.L + 1
    assert (p.L, p.K) == params_for(q, n)


@pytest.mark.parametrize("q,n", [(1, 5), (0, 5), (257, 5), (2, 1), (2, 0), (2, -3)])
def test_derive_params_rejects(q, n):
    with pytest.raises(ValueError):
        derive_params(q, n)


def test_feasible_flag():
    assert derive_params(16, 16).feasible  # n+1 = 17 >= 2K = 10
    assert not derive_params(4, 7).feasible  # n+1 = 8 < 2K = 18


def test_parse_format_small_alphabet():
    assert parse_word("0012a", 16) == bytes((0, 0, 1, 2, 10))
    assert parse_word("00F", 16) == bytes((0, 0, 15))  # uppercase accepted
    assert format_word((0, 0, 1, 2, 10), 16) == "0012a"


def test_parse_format_wide_alphabet():
    w = (0, 37, 255, 1)
    text = format_word(w, 256)
    assert text == "0,37,255,1"
    assert parse_word(text, 256) == bytes(w)


@pytest.mark.parametrize(
    "text,q",
    [
        ("012", 2),
        ("0x1", 16),
        ("", 4),
        ("1,2", 4),
        ("1,,2", 256),
        ("300,1", 256),
        # int() takes each of these parts; parse_word takes only ASCII digits
        ("1_0,2", 256),
        ("+1,2", 256),
        ("\u0661,2", 256),
        ("-0,2", 256),
    ],
)
def test_parse_rejects(text, q):
    with pytest.raises(MalformedWordError):
        parse_word(text, q)


def _bad_char(ch: str, pos: int) -> str:
    return f"invalid symbol character {ch!r} at position {pos}"


@pytest.mark.parametrize(
    "text,q,message",
    [
        ("_012", 16, _bad_char("_", 0)),  # first
        ("01-23", 16, _bad_char("-", 2)),  # middle
        ("0123?", 16, _bad_char("?", 4)),  # last
        ("01 2", 16, _bad_char(" ", 2)),  # inner blank; outer ones are stripped
        ("01é2", 16, _bad_char("é", 2)),  # non-ASCII
        ("0#1é", 16, _bad_char("#", 1)),  # a bad ASCII character before a non-ASCII one
        ("g0_", 16, _bad_char("_", 2)),  # a bad character outranks an earlier symbol >= q
        ("01g", 16, "symbol 16 at position 2 is outside the alphabet [0, 16)"),
        ("01Ab", 10, "symbol 10 at position 2 is outside the alphabet [0, 10)"),
        ("0z!", 36, _bad_char("!", 2)),
    ],
)
def test_parse_reports_the_first_bad_character(text, q, message):
    with pytest.raises(MalformedWordError) as exc:
        parse_word(text, q)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "last,q,message",
    [
        ("g", 16, "symbol 16 at position 262143 is outside the alphabet [0, 16)"),
        ("4", 4, "symbol 4 at position 262143 is outside the alphabet [0, 4)"),
        ("_", 16, _bad_char("_", 262143)),
        ("\x00", 2, _bad_char("\x00", 262143)),
    ],
)
def test_parse_reports_a_bad_last_symbol_of_a_long_word(last, q, message):
    """The one-pass alphabet check over the translated text catches a bad
    symbol in the last of 2**18 positions, and the report is the same as
    on a short word."""
    text = "01" * ((1 << 17) - 1) + "0" + last
    with pytest.raises(MalformedWordError) as exc:
        parse_word(text, q)
    assert str(exc.value) == message
    assert parse_word(text[:-1], q) == bytes((0, 1)) * ((1 << 17) - 1) + bytes(1)


@pytest.mark.parametrize(
    "text,q,expect",
    [
        ("0AbZz9", 36, (0, 10, 11, 35, 35, 9)),  # upper case reads as lower case
        ("  10 \n", 2, (1, 0)),
        ("K", 36, (20,)),  # KELVIN SIGN lower-cases to "k"
    ],
)
def test_parse_returns_a_tuple_of_ints(text, q, expect):
    """The word is bytes, which reads back as the expected tuple of ints."""
    word = parse_word(text, q)
    assert type(word) is bytes and tuple(word) == expect
    assert all(type(s) is int for s in word)


@pytest.mark.parametrize(
    "word,q,expect",
    [
        ((), 2, ""),
        ((0, 1, 1), 2, "011"),
        ([35, 0, 10], 36, "z0a"),
        (np.array([3, 15], dtype=np.int64), 16, "3f"),
    ],
)
def test_format_small_alphabet(word, q, expect):
    assert format_word(word, q) == expect


def test_format_rejects_out_of_range():
    with pytest.raises(MalformedWordError) as exc:
        format_word((0, 1, 16), 16)
    assert str(exc.value) == "symbol 16 at position 2 is outside the alphabet [0, 16)"


@given(st.integers(2, 36), st.lists(st.integers(0, 35), min_size=1, max_size=40))
def test_parse_inverts_format(q, symbols):
    w = tuple(s % q for s in symbols)
    assert parse_word(format_word(w, q), q) == bytes(w)


def test_check_word_rejects_out_of_range():
    with pytest.raises(MalformedWordError):
        check_word((0, 4), 4)
    with pytest.raises(MalformedWordError):
        check_word((-1,), 4)


def _outside(s: int, pos: int, q: int) -> str:
    return f"symbol {s} at position {pos} is outside the alphabet [0, {q})"


@pytest.mark.parametrize(
    "symbols,q,message",
    [
        ((4, 0, 1), 4, _outside(4, 0, 4)),  # first
        ((0, 1, 9, 2, 3), 4, _outside(9, 2, 4)),  # middle
        ((0, 1, 2, 3, 4), 4, _outside(4, 4, 4)),  # last
        ([0, -1, 7], 4, _outside(-1, 1, 4)),  # negative, first of two bad
        ((1, 0, 1, 2, 3), 2, _outside(2, 3, 2)),
        ((0, 255, 256), 256, _outside(256, 2, 256)),
        ([300, -5], 256, _outside(300, 0, 256)),
        ((0, -1), 256, _outside(-1, 1, 256)),
        ((np.int64(1), np.int64(5)), 4, _outside(5, 1, 4)),
        (np.array([0, 3, 7, 1]), 4, _outside(7, 2, 4)),
        (np.array([0, 256], dtype=np.int64), 256, _outside(256, 1, 256)),
    ],
)
def test_check_word_reports_the_first_bad_symbol(symbols, q, message):
    with pytest.raises(MalformedWordError) as exc:
        check_word(symbols, q)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "symbols,q,expect",
    [
        ((), 4, ()),
        ([], 4, ()),
        ((3, 0, 2), 4, (3, 0, 2)),
        ([0, 255, 17], 256, (0, 255, 17)),
        ((np.int64(2), np.uint8(1)), 4, (2, 1)),
        (np.array([1, 0, 3], dtype=np.int64), 4, (1, 0, 3)),
        (np.array([255, 1], dtype=np.uint8), 256, (255, 1)),
        (iter((1, 1, 0)), 2, (1, 1, 0)),
    ],
)
def test_check_word_returns_a_tuple_of_ints(symbols, q, expect):
    """check_word packs every accepted input form into bytes, which read
    back as the tuple of ints the public functions return."""
    word = check_word(symbols, q)
    assert type(word) is bytes and tuple(word) == expect
    assert all(type(s) is int for s in tuple(word))


@pytest.mark.parametrize(
    "symbols,message",
    [
        ([1.7, 0], "symbol 1.7 at position 0 is not an integer"),
        ((0, 1, 0.0), "symbol 0.0 at position 2 is not an integer"),
        (np.array([0.5, 1.0]), "symbol 0.5 at position 0 is not an integer"),
        ([0, "1"], "symbol '1' at position 1 is not an integer"),
        ("0101", "symbol '0' at position 0 is not an integer"),
        ([0, None], "symbol None at position 1 is not an integer"),
        (np.array([[0, 1]]), "symbol [0, 1] at position 0 is not an integer"),
        ([np.array([True, False])], "symbol array([ True, False]) at position 0 is not an integer"),
        (5, "a word must be an iterable of symbols, got int"),
        (None, "a word must be an iterable of symbols, got NoneType"),
    ],
)
def test_check_word_refuses_non_integers(symbols, message):
    """Symbols are converted by operator.index: a float is refused, not
    truncated, and a string is refused, not read as digits."""
    with pytest.raises(MalformedWordError) as exc:
        check_word(symbols, 4)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "symbols",
    [
        [True, False, True],
        (True, 0, 1),
        np.array([1, 0, 1], dtype=np.int8),
        np.array([1, 0, 1], dtype=np.uint64),
        np.array([True, False, True]),
        [np.int32(1), np.uint8(0), np.int64(1)],
        list(np.array([1, 0, 1]) > 0),
    ],
    ids=[
        "bools",
        "bools-and-ints",
        "int8-array",
        "uint64-array",
        "bool-array",
        "numpy-scalars",
        "numpy-bool-scalars",
    ],
)
def test_check_word_accepts_integer_likes(symbols):
    assert check_word(symbols, 2) == b"\x01\x00\x01"


def test_params_refuse_an_alphabet_above_256():
    """Words are bytes inside encode and decode, so hand-built parameters
    with a larger alphabet are refused with derive_params' message."""
    with pytest.raises(ValueError, match=r"alphabet size q must be <= 256, got 300"):
        CodeParams(q=300, n=100, L=1, K=5)
    assert CodeParams(q=256, n=100, L=1, K=5).q == 256


def test_word_functions_refuse_an_alphabet_above_256():
    """Words are bytes below the public functions, so check_word, parse_word
    and format_word refuse a larger alphabet with CodeParams' message."""
    refusal = r"alphabet size q must be <= 256, got 1000"
    with pytest.raises(ValueError, match=refusal):
        check_word((0, 300, 999), 1000)
    with pytest.raises(ValueError, match=refusal):
        parse_word("0,300,999", 1000)
    with pytest.raises(ValueError, match=refusal):
        format_word((0, 300, 999), 1000)
    assert parse_word("0,255,17", 256) == bytes((0, 255, 17))
    assert format_word((0, 255, 17), 256) == "0,255,17"


@pytest.mark.parametrize(
    "q,n,L,message",
    [
        (1, 2, 1, "alphabet size q must be >= 2, got 1"),
        (0, 0, -1, "alphabet size q must be >= 2, got 0"),
        (2, -1, 1, "message length n must be >= 2, got -1"),
        (2, 1, 1, "message length n must be >= 2, got 1"),
        (4, 2, 0, "window length L must be >= 1, got 0"),
        (2, 2, -1, "window length L must be >= 1, got -1"),
    ],
)
def test_params_refuse_a_degenerate_alphabet_length_or_window(q, n, L, message):
    """Hand-built parameters get derive_params' checks on q and n, and
    L >= 1: 0 ** -1 used to raise ZeroDivisionError, and decode indexed an
    empty word when n = -1."""
    with pytest.raises(ValueError) as exc:
        CodeParams(q=q, n=n, L=L, K=4 * L + 1)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "L,K,message",
    [
        (2, 9, r"window length L=2 is too short: q\*\*L < n=40"),
        (3, 9, r"threshold K must be 4\*L \+ 1 = 13, got 9"),
    ],
)
def test_params_refuse_inconsistent_window_and_threshold(L, K, message):
    """encode relies on q**L >= n (an absent window exists) and K = 4L + 1
    (every block fits), so parameters breaking either are refused."""
    with pytest.raises(ValueError, match=message):
        CodeParams(q=4, n=40, L=L, K=K)
    assert CodeParams(q=4, n=40, L=3, K=13) == derive_params(4, 40)


def test_digit_block_anchor():
    p = CodeParams(q=4, n=40, L=3, K=13)
    assert to_digits(5, p) == bytes((0, 1, 1))
    assert from_digits((0, 1, 1), p) == 5


@given(st.data())
def test_digit_block_roundtrip(data):
    q = data.draw(st.integers(2, 16), label="q")
    L = data.draw(st.integers(1, 6), label="L")
    p = CodeParams(q=q, n=2, L=L, K=4 * L + 1)
    v = data.draw(st.integers(0, q**L - 1), label="value")
    digits = to_digits(v, p)
    assert len(digits) == L
    assert all(0 <= d < q for d in digits)
    assert from_digits(digits, p) == v


def test_to_digits_range_checked():
    p = CodeParams(q=2, n=2, L=3, K=13)
    with pytest.raises(ValueError):
        to_digits(8, p)  # needs four digits
    with pytest.raises(ValueError):
        to_digits(-1, p)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda p: to_digits(5.0, p), "value must be an integer, got 5.0"),
        (lambda p: to_digits("5", p), "value must be an integer, got '5'"),
        (lambda p: to_digits(None, p), "value must be an integer, got None"),
        (lambda p: to_digits(5, "x"), "params must be a CodeParams, got str"),
        (lambda p: to_digits(64, p), "value 64 does not fit in 3 base-4 digits"),
        (lambda p: from_digits((0, 1.5, 1), p), "digit must be an integer, got 1.5"),
        (lambda p: from_digits((0, "1", 1), p), "digit must be an integer, got '1'"),
        (lambda p: from_digits((0, 1, 1), None), "params must be a CodeParams, got NoneType"),
        (lambda p: from_digits((0, 4, 1), p), r"digit 4 outside \[0, 4\)"),
        (lambda p: from_digits((0, 1), p), "expected exactly 3 digits, got 2"),
    ],
)
def test_digit_blocks_refuse_what_is_not_an_integer_or_params(call, message):
    """A float or string is refused, never truncated or summed, and params
    must be a CodeParams; range errors keep their messages."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(derive_params(4, 40))


def test_digit_blocks_take_integer_types():
    """Whatever operator.index accepts is an integer, as at every entry point."""
    p = derive_params(4, 40)
    assert to_digits(np.int64(5), p) == to_digits(True + 4, p) == bytes((0, 1, 1))
    assert from_digits((np.uint8(0), True, np.int64(1)), p) == 5


def test_check_word_hit_still_checks_the_alphabet():
    """A word the library returned comes back from check_word as the same
    object, packed once, but only after its symbols are checked against q."""
    w = parse_word("0123012301", 4)
    assert w == b"\x00\x01\x02\x03\x00\x01\x02\x03\x00\x01"
    assert check_word(w, 4) is w and check_word(w, 256) is w
    with pytest.raises(MalformedWordError) as exc:
        check_word(w, 3)
    assert str(exc.value) == "symbol 3 at position 3 is outside the alphabet [0, 3)"
    wide = parse_word("0,255,17", 256)
    assert wide == bytes((0, 255, 17))
    with pytest.raises(MalformedWordError, match="symbol 255 at position 1"):
        format_word(wide, 36)


_P64 = derive_params(4, 64)
_Y64 = encode(bytes(64), _P64)  # all zeros: the codeword holds blocks
_Z64 = apply_duplication(_Y64, 5, _P64.K)


# Every public function that returns a word, called on lists, so that each
# result is built by the call rather than handed through.
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: parse_word("0" * 64, 4), id="parse_word"),
        pytest.param(lambda: encode([0] * 64, _P64), id="encode"),
        pytest.param(lambda: encode_with_trace([0] * 64, _P64)[0], id="encode_with_trace"),
        pytest.param(lambda: encode_with_trace([0] * 64, _P64)[1][0].fillers[0], id="BlockRecord.fillers"),
        pytest.param(lambda: decode(list(_Y64), _P64), id="decode"),
        pytest.param(lambda: correct(list(_Z64), _P64), id="correct"),
        pytest.param(lambda: correct_with_position(list(_Z64), _P64)[0], id="correct_with_position"),
        pytest.param(lambda: correct_with_position(list(_Y64), _P64)[0], id="correct_with_position-passthrough"),
        pytest.param(lambda: apply_duplication(list(_Y64), 5, _P64.K), id="apply_duplication"),
        pytest.param(lambda: DuplicationChannel(ChannelSpec(seed=1), _P64).corrupt(list(_Y64))[0], id="corrupt"),
        pytest.param(lambda: random_duplication(list(_Y64), ChannelSpec(seed=1), _P64)[0], id="random_duplication"),
        pytest.param(lambda: to_digits(5, _P64), id="to_digits"),
        pytest.param(lambda: EditableWord.from_word(list(_Y64)).to_word(), id="EditableWord.to_word"),
        pytest.param(lambda: EditableWord.from_word(list(_Y64)).slice(3, 30), id="EditableWord.slice"),
        pytest.param(lambda: EditableWord.from_word(list(_Y64)).delete_range(3, 30), id="EditableWord.delete_range"),
        pytest.param(lambda: WindowIndex.build(list(_Y64), _P64).find_absent(), id="WindowIndex.find_absent"),
        pytest.param(lambda: enumerate_code0(2, 3, 1, want_words=True).words[0], id="enumerate_code0"),
    ],
)
def test_every_word_producer_returns_bytes(call):
    """A returned word is bytes, and check_word hands it back as the same
    object: it is packed once, with no memo of the word returned last."""
    word = call()
    assert type(word) is bytes and word
    assert check_word(word, 4) is word
