"""Hostile inputs at every public entry point and CLI command.

A library call must end in a result or in a documented error: a
DupcodeError other than InternalDefectError, which always marks a bug, or
the ValueError its docstring names. A CLI run must exit 0, 2, 3, 4 or 5,
and every --json report it writes must parse as JSON without NaN or
Infinity. Examples are derandomized and bounded, so each run checks the
same inputs and the file takes a few seconds.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dupcode import (
    ChannelSpec,
    CodeParams,
    DupcodeError,
    DuplicationChannel,
    EditableWord,
    InternalDefectError,
    analysis,
    apply_duplication,
    correct,
    correct_with_position,
    decode,
    derive_params,
    encode,
    encode_with_trace,
    find_leftmost_long,
    format_word,
    is_codeword,
    is_dup_free,
    parse_word,
    random_duplication,
)
from dupcode.cli import main
from dupcode.windows import WindowIndex

FUZZ = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def survives(fn, *args):
    """fn(*args), or None when it raises a documented error."""
    try:
        return fn(*args)
    except InternalDefectError:
        raise
    except (DupcodeError, ValueError):
        return None


def survives_edit(fn, *args):
    """Like survives, for EditableWord's methods, which also document
    IndexError for a position out of range."""
    try:
        return survives(fn, *args)
    except IndexError:
        return None


symbols = st.one_of(
    st.integers(0, 3),
    st.integers(-300, 300),
    st.sampled_from([255, 256, 2**64]),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.booleans(),
)
hostile_words = st.one_of(
    st.lists(st.integers(0, 3), max_size=40).map(tuple),
    st.lists(symbols, max_size=12),
    st.lists(symbols, max_size=12).map(tuple),
    st.lists(st.integers(-300, 300), max_size=12).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.floats(-3, 300), max_size=8).map(np.array),
    st.binary(max_size=20),
    st.text(max_size=12),
    st.none(),
    st.integers(),
)
# Parameters that are not integers: operator.index refuses each of them.
non_integers = st.one_of(
    st.floats(),
    st.none(),
    st.text(max_size=2),
    st.sampled_from([2.0, [1], (2,), np.float64(3.0), np.bool_(True), b"\x02"]),
)


def param(ints):
    """An integer from ints half the time; otherwise one as a numpy integer,
    a bool (both count as integers), or a value that is not an integer."""
    return st.one_of(ints, ints, ints.map(np.int64), st.booleans(), non_integers)


alphabets = param(st.one_of(st.integers(-3, 300), st.sampled_from([2, 4, 16, 36, 37, 256])))
offsets = param(st.integers(-3, 50))


def returned_word(data, q: int) -> bytes:
    """A word the library has just returned, over an alphabet larger than q.

    check_word hands such bytes back as they are, so handing it back with q
    checks that the alphabet is still validated."""
    values = data.draw(st.lists(st.integers(0, 255), max_size=30), label="returned")
    word = parse_word(",".join(map(str, values or [0])), 256)
    assert type(word) is bytes
    return word


def draw_word(data, q: int):
    if data.draw(st.integers(0, 3), label="use a returned word") == 0:
        return returned_word(data, q)
    return data.draw(hostile_words, label="word")


@FUZZ
@given(st.data())
def test_word_functions_survive_hostile_words(data):
    q = data.draw(alphabets, label="q")
    text = data.draw(
        st.one_of(st.text(max_size=12), st.text("0123abz,-9 ", max_size=20), st.none(), st.binary(max_size=4)),
        label="text",
    )
    survives(parse_word, text, q)
    survives(format_word, draw_word(data, q), q)
    buf = survives(EditableWord.from_word, draw_word(data, q))
    if buf is not None:
        a, b = data.draw(offsets, label="a"), data.draw(offsets, label="b")
        survives_edit(buf.get, a)
        survives_edit(buf.slice, a, b)
        survives_edit(buf.insert, a, draw_word(data, q))
        survives_edit(buf.delete_range, a, b)
        survives_edit(buf.split, b)
    K = data.draw(param(st.integers(-2, 12)), label="K")
    survives(find_leftmost_long, draw_word(data, q), K)
    survives(is_dup_free, draw_word(data, q), K)
    i, l = data.draw(offsets, label="i"), data.draw(offsets, label="l")
    out = survives(apply_duplication, draw_word(data, q), i, l)
    assert out is None or type(out) is bytes


# Objects passed where a CodeParams belongs: every entry point refuses them.
not_params = st.one_of(
    st.none(),
    st.text(max_size=2),
    st.integers(),
    st.sampled_from([(4, 7, 2, 9), {"q": 4, "n": 7}, 4.0, np.int64(4)]),
)


def draw_params(data) -> object:
    """A CodeParams, None when building one was refused, or, one time in
    eight, an object of another type."""
    if data.draw(st.integers(0, 7), label="not a CodeParams") == 0:
        return data.draw(not_params, label="params")
    if data.draw(st.booleans(), label="derived"):
        return survives(derive_params, data.draw(alphabets, label="q"), data.draw(param(st.integers(-2, 80)), label="n"))
    L = data.draw(st.integers(-1, 4), label="L")
    return survives(
        CodeParams,
        data.draw(param(st.integers(-3, 300)), label="q"),
        data.draw(param(st.integers(-3, 80)), label="n"),
        data.draw(param(st.just(L)), label="L as passed"),
        data.draw(param(st.just(4 * L + 1)), label="K"),
    )


def codec_word(data, params: CodeParams):
    """Mostly a word of a length the codec accepts, sometimes hostile."""
    pick = data.draw(st.integers(0, 5), label="word kind")
    if pick == 0:
        return draw_word(data, params.q)
    if pick == 1:
        return returned_word(data, params.q)
    length = params.n + data.draw(st.sampled_from([0, 1, 1, 1, 2, params.K, params.n + 1]), label="extra")
    top = max(min(params.q, 256) - 1, 0)
    body = data.draw(st.lists(st.integers(0, top), min_size=max(length, 0), max_size=max(length, 0)), label="symbols")
    if body and pick == 2:
        body[-1] = 1  # a block flag, so decode parses blocks
    return tuple(body)


def refuses_params(fn, *args) -> None:
    with pytest.raises(ValueError, match="^params must be a CodeParams, got "):
        fn(*args)


@FUZZ
@given(st.data())
def test_codec_survives_hostile_words_and_parameters(data):
    params = draw_params(data)
    if params is None:
        return
    if not isinstance(params, CodeParams):
        word = draw_word(data, 4)
        for fn in (encode, encode_with_trace, decode, correct, correct_with_position, is_codeword):
            refuses_params(fn, word, params)
        refuses_params(DuplicationChannel, ChannelSpec(1), params)
        return
    small = params.n <= 80
    if small:
        survives(encode, codec_word(data, params), params)
        survives(encode_with_trace, codec_word(data, params), params)
    survives(decode, codec_word(data, params), params)
    survives(correct, codec_word(data, params), params)
    out = survives(correct_with_position, codec_word(data, params), params)
    assert out is None or type(out[0]) is bytes
    if small:
        assert type(is_codeword(codec_word(data, params), params)) is bool
    limits = st.one_of(st.none(), param(st.integers(-3, 90)))
    spec = survives(
        ChannelSpec,
        data.draw(param(st.integers(-(2**40), 2**40)), label="seed"),
        data.draw(limits, label="l_min"),
        data.draw(limits, label="l_max"),
    )
    if spec is None:
        return
    survives(DuplicationChannel(spec, params).corrupt, codec_word(data, params))
    survives(random_duplication, codec_word(data, params), spec, params)


@FUZZ
@given(st.data())
def test_window_index_survives_hostile_edits(data):
    if data.draw(st.booleans(), label="plain params"):
        q = data.draw(st.sampled_from([2, 3, 4, 16, 200]), label="q")
        params = derive_params(q, data.draw(st.integers(2, 80), label="n"))
    else:
        params = draw_params(data)
    if params is None:
        return
    if not isinstance(params, CodeParams):
        refuses_params(WindowIndex, params)
        refuses_params(WindowIndex.build, draw_word(data, 4), params)
        return
    index = survives(WindowIndex.build, codec_word(data, params), params)
    if index is None:
        return
    word = codec_word(data, params)
    survives(index.apply_append, word, draw_word(data, params.q))
    survives(index.apply_append, draw_word(data, params.q), codec_word(data, params))
    survives(index.apply_delete, word, data.draw(offsets, label="a"), data.draw(offsets, label="b"))
    survives(index.apply_delete, draw_word(data, params.q), 0, data.draw(offsets, label="b"))
    survives(index.window_count, draw_word(data, params.q))
    out = survives(index.find_absent)
    assert out is None or (type(out) is bytes and len(out) == params.L)
    survives(index.audit, draw_word(data, params.q))


@settings(FUZZ, max_examples=60)
@given(st.data())
def test_analysis_survives_hostile_parameters(data):
    q = data.draw(alphabets, label="q")
    n = data.draw(param(st.integers(-2, 12)), label="n")
    K = data.draw(param(st.integers(-2, 8)), label="K")
    space = data.draw(param(st.integers(-1, 300)), label="max_space")
    survives(analysis.count_bad_words, q, n, K, space)
    survives(analysis.enumerate_code0, q, n, K, data.draw(st.booleans(), label="list"), space)
    l_set = data.draw(st.lists(param(st.integers(-2, 8)), max_size=3), label="l_set")
    survives(analysis.verify_ball_disjointness, q, n, l_set, space)
    c = data.draw(st.floats(), label="c")
    report = survives(analysis.converse_gap, q, data.draw(param(st.integers(-2, 10**6)), label="n"), c)
    assert report is None or all(math.isfinite(v) for v in (report.c, report.l, report.eta_lower_bound))
    survives(
        analysis.roundtrip_suite,
        q,
        data.draw(param(st.integers(-2, 24)), label="n"),
        data.draw(param(st.integers(-1, 2)), label="trials"),
        data.draw(st.one_of(st.integers(), non_integers), label="seed"),
        data.draw(st.booleans(), label="sweep"),
    )


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def run_main(argv: list[str]) -> tuple[int, str]:
    """main(argv) with an empty stdin; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(b""))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the flags
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _num(data, label: str, valid, odd=st.integers(-3, 0)) -> str:
    """Mostly a valid number, sometimes an odd one or text argparse refuses."""
    kind = data.draw(st.sampled_from(["valid"] * 8 + ["odd", "text"]), label=f"kind of {label}")
    if kind == "text":
        return data.draw(st.sampled_from(["x", "1.5", "", "-0", "1e3", "1_0", "+7", " 7", "١٦"]), label=label)
    return str(data.draw(valid if kind == "valid" else odd, label=label))


def _text(word, q: int) -> str:
    if q <= 36:
        return "".join("0123456789abcdefghijklmnopqrstuvwxyz"[s % 36] for s in word)
    return ",".join(map(str, word))


def _word_text(data, cmd: str, q: int, n: int) -> str:
    kind = data.draw(st.sampled_from(["library", "library", "symbols", "text"]), label="word kind")
    if kind == "text":
        return data.draw(st.text(max_size=12), label="word")
    top = max(min(q, 256) - 1, 0)
    params = survives(derive_params, q, n)
    if kind == "library" and params is not None and cmd != "encode":
        # a codeword, or one duplication of it, so the command can succeed
        y = encode(data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n), label="message"), params)
        if cmd == "correct" and len(y) >= params.K:
            l = data.draw(st.integers(params.K, len(y)), label="l")
            y = apply_duplication(y, data.draw(st.integers(0, len(y) - l), label="i"), l)
        return _text(y, q)
    length = n + data.draw(st.sampled_from([0, 0, 1, 1, 2, 13, n + 1]), label="extra")
    return _text(data.draw(st.lists(st.integers(0, top), min_size=max(length, 0), max_size=max(length, 0)), label="symbols"), q)


_WORD_COMMANDS = ("encode", "decode", "corrupt", "correct")
_COMMANDS = (*_WORD_COMMANDS, "roundtrip", "enum-code0", "count-bad", "verify-ball", "converse", "bench")


def cli_argv(data) -> list[str]:
    cmd = data.draw(st.sampled_from(_COMMANDS), label="command")
    odd = data.draw(st.integers(0, 4), label="odd q and n") == 4
    q = data.draw(st.integers(-2, 300) if odd else st.sampled_from([2, 4, 16, 37, 256]), label="q")
    n = data.draw(st.integers(-2, 40) if odd else st.integers(2, 40), label="n")
    flags: dict[str, str | None] = {"--q": str(q), "--n": str(n)}
    if cmd in _WORD_COMMANDS:
        flags["--word"] = _word_text(data, cmd, q, n)
    if cmd == "corrupt":
        if data.draw(st.booleans(), label="explicit"):
            flags["--i"] = _num(data, "i", st.integers(0, n))
            flags["--l"] = _num(data, "l", st.integers(1, n + 1))
        else:
            flags["--seed"] = _num(data, "seed", st.integers())
            for flag in ("--l-min", "--l-max"):
                if data.draw(st.booleans(), label=f"use {flag}"):
                    flags[flag] = _num(data, flag, st.integers(1, 2 * n + 2))
    elif cmd == "roundtrip":
        flags["--trials"] = _num(data, "trials", st.integers(0, 2))
        flags["--seed"] = _num(data, "seed", st.integers())
        if data.draw(st.booleans(), label="sweep"):
            flags["--sweep"] = None
    elif cmd in ("enum-code0", "count-bad", "verify-ball"):
        flags.pop("--n")
        flags["--len" if cmd == "enum-code0" else "--n"] = _num(data, "length", st.integers(1, 12))
        flags["--max-space"] = _num(data, "max space", st.integers(1, 300))
        if cmd == "verify-ball":
            flags["--l"] = data.draw(st.sampled_from(["1,2", "1", "2,3", "0", "x", "", ",", "3,-1"]), label="l")
        else:
            flags["--K"] = _num(data, "K", st.integers(1, 8))
        if cmd == "enum-code0" and data.draw(st.booleans(), label="list"):
            flags["--list"] = None
    elif cmd == "converse":
        c = st.one_of(st.floats(0.01, 100).map(repr), st.floats().map(repr), st.sampled_from(["nan", "inf", "-inf", "1e400", "x"]))
        flags["--c"] = data.draw(c, label="c")
    elif cmd == "bench":
        flags["--n"] = _num(data, "n", st.integers(24, 48))
        flags["--pattern"] = data.draw(st.sampled_from(["zeros", "random", "adversarial", "x"]), label="pattern")
        flags["--reps"] = _num(data, "reps", st.integers(1, 2))
        flags["--seed"] = _num(data, "seed", st.integers())
    if data.draw(st.booleans(), label="json"):
        flags["--json"] = None
    argv = [cmd]
    for flag, value in flags.items():
        if data.draw(st.integers(0, 19), label=f"drop {flag}") == 19:
            continue  # a required flag left out is a usage error
        argv += [flag] if value is None else [f"{flag}={value}"]
    return argv


@settings(FUZZ, max_examples=150)
@given(st.data())
def test_cli_exits_with_a_documented_code(data):
    argv = cli_argv(data)
    code, out = run_main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code)
    if "--json" in argv and out:
        json.loads(out, parse_constant=_refuse_constant)
