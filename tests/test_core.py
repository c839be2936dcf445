import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    assert parse_word("0012a", 16) == (0, 0, 1, 2, 10)
    assert parse_word("00F", 16) == (0, 0, 15)  # uppercase accepted
    assert format_word((0, 0, 1, 2, 10), 16) == "0012a"


def test_parse_format_wide_alphabet():
    w = (0, 37, 255, 1)
    text = format_word(w, 256)
    assert text == "0,37,255,1"
    assert parse_word(text, 256) == w


@pytest.mark.parametrize("text,q", [("012", 2), ("0x1", 16), ("", 4), ("1,2", 4), ("1,,2", 256), ("300,1", 256)])
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
    assert parse_word(text[:-1], q) == (0, 1) * ((1 << 17) - 1) + (0,)


@pytest.mark.parametrize(
    "text,q,expect",
    [
        ("0AbZz9", 36, (0, 10, 11, 35, 35, 9)),  # upper case reads as lower case
        ("  10 \n", 2, (1, 0)),
        ("K", 36, (20,)),  # KELVIN SIGN lower-cases to "k"
    ],
)
def test_parse_returns_a_tuple_of_ints(text, q, expect):
    word = parse_word(text, q)
    assert type(word) is tuple and word == expect
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
    assert parse_word(format_word(w, q), q) == w


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
    assert parse_word("0,255,17", 256) == (0, 255, 17)
    assert format_word((0, 255, 17), 256) == "0,255,17"


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
    assert to_digits(5, p) == (0, 1, 1)
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
