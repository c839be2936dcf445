"""Command-line surface: formats, exit codes, diagnostics, composability."""

import io
import json
import random
import subprocess
import sys

import pytest

from dupcode import (
    ChannelSpec,
    analysis,
    correct_with_position,
    decode,
    derive_params,
    encode,
    format_word,
    random_duplication,
)
from dupcode.cli import (
    EXIT_GUARD,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    SCHEMA,
    main,
)
from dupcode.core import VerificationError


def run_cli(*argv: str, stdin: str | None = None, monkeypatch=None, capsys=None):
    """Invoke main() in-process; returns (exit_code, stdout, stderr)."""
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_proc(*argv: str, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "dupcode", *argv],
        input=stdin,
        capture_output=True,
        text=True,
    )


def test_encode_anchor(capsys):
    code, out, _ = run_cli("encode", "--q", "16", "--n", "16", "--word", "0000000000abcdef", capsys=capsys)
    assert code == EXIT_OK
    assert out == "00000abcdef001251\n"


def test_decode_anchor(capsys):
    code, out, _ = run_cli("decode", "--q", "16", "--n", "16", "--word", "00000abcdef001251", capsys=capsys)
    assert code == EXIT_OK
    assert out == "0000000000abcdef\n"


def test_correct_example(capsys):
    code, out, err = run_cli("correct", "--q", "4", "--n", "7", "--word", "0012123312", capsys=capsys)
    assert code == EXIT_OK
    assert out == "00123312\n"
    assert "position 3 (1-based)" in err  # removal offset 2, reported 1-based


def test_word_via_stdin_and_files(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        "encode", "--q", "16", "--n", "16", stdin="0000000000abcdef\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_OK and out.strip() == "00000abcdef001251"

    src = tmp_path / "msg.txt"
    dst = tmp_path / "code.txt"
    src.write_text("0000000000abcdef\n")
    code, out, _ = run_cli(
        "encode", "--q", "16", "--n", "16", "--in", str(src), "--out", str(dst), capsys=capsys
    )
    assert code == EXIT_OK and out == ""
    assert dst.read_text() == "00000abcdef001251\n"


@pytest.mark.parametrize("route", ["word", "stdin", "in"])
def test_non_ascii_word_is_malformed_by_every_route(route, tmp_path, monkeypatch, capsys):
    """A symbol outside the alphabet exits 3 and is named, whether the word
    comes from --word, stdin or --in."""
    word = "01\u00e92"
    args = ["decode", "--q", "4", "--n", "3"]
    if route == "word":
        code, _, err = run_cli(*args, "--word", word, capsys=capsys)
    elif route == "stdin":
        code, _, err = run_cli(*args, stdin=word + "\n", monkeypatch=monkeypatch, capsys=capsys)
    else:
        src = tmp_path / "word.txt"
        src.write_bytes(word.encode() + b"\n")
        code, _, err = run_cli(*args, "--in", str(src), capsys=capsys)
    assert code == EXIT_MALFORMED
    assert "error MALFORMED: invalid symbol character '\u00e9' at position 2" in err


def test_roundtrip_refuses_negative_trials(capsys):
    code, out, err = run_cli(
        "roundtrip", "--q", "16", "--n", "16", "--trials", "-1", "--seed", "0", capsys=capsys
    )
    assert code == EXIT_USAGE and out == ""
    assert "trials must be >= 0, got -1" in err


def test_corrupt_explicit_and_json(capsys):
    code, out, err = run_cli(
        "corrupt", "--q", "4", "--n", "7", "--word", "00123312", "--i", "2", "--l", "2", capsys=capsys
    )
    assert code == EXIT_OK
    assert out == "0012123312\n"
    assert "duplicated 2 symbols at position 3 (1-based)" in err

    code, out, err = run_cli(
        "corrupt", "--q", "4", "--n", "7", "--word", "00123312", "--i", "2", "--l", "2", "--json", capsys=capsys
    )
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    assert payload["word"] == "0012123312"
    assert (payload["i"], payload["l"]) == (2, 2)
    assert err == ""  # diagnostics live inside the JSON payload


def _message(q, n, family):
    """A zeros message, or a random one holding the top symbol and a planted
    square of half-length K + 3, so that its codeword has blocks."""
    if family == "zeros":
        return bytes(n)
    rng = random.Random(q)
    K = derive_params(q, n).K
    x = [rng.randrange(q) for _ in range(n - K - 3)]
    x[-1] = q - 1
    return bytes(x[: 43 + K] + x[40:])  # x[40 : 43 + K] twice


@pytest.mark.parametrize(
    "q,n,family", [(37, 200, "random"), (256, 300, "random"), (4, 1 << 10, "zeros")]
)
def test_word_commands_match_the_library(q, n, family, capsys):
    """encode, corrupt --seed, correct and decode print, in text and in
    --json, format_word of the matching library call, in both word formats."""
    params = derive_params(q, n)
    x = _message(q, n, family)
    assert len(x) == n
    y = encode(x, params)
    assert y[-1] == 1  # the codeword holds blocks
    z, dup = random_duplication(y, ChannelSpec(seed=7), params)
    fixed, removal = correct_with_position(z, params)
    assert fixed == y and decode(y, params) == x
    common = ("--q", str(q), "--n", str(n))
    cases = [
        (("encode", "--word", format_word(x, q)), y, {}),
        (("corrupt", "--seed", "7", "--word", format_word(y, q)), z, {"i": dup.i, "l": dup.l}),
        (("correct", "--word", format_word(z, q)), y, {"i": removal.i, "l": removal.l}),
        (("decode", "--word", format_word(y, q)), x, {}),
    ]
    for (command, *rest), want, fields in cases:
        text = format_word(want, q)
        assert (q > 36) == ("," in text)
        code, out, _ = run_cli(command, *common, *rest, capsys=capsys)
        assert code == EXIT_OK and out == text + "\n", command
        code, out, _ = run_cli(command, *common, *rest, "--json", capsys=capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {"schema": SCHEMA, "command": command, "q": q, "n": n, "word": text, **fields}


def test_corrupt_requires_seed_or_pair(capsys):
    code, _, err = run_cli("corrupt", "--q", "16", "--n", "16", "--word", "0" * 17, capsys=capsys)
    assert code == EXIT_USAGE
    assert "error USAGE" in err
    code, _, err = run_cli(
        "corrupt", "--q", "16", "--n", "16", "--word", "0" * 17, "--i", "3", capsys=capsys
    )
    assert code == EXIT_USAGE


def test_corrupt_is_byte_deterministic():
    args = ("corrupt", "--q", "16", "--n", "16", "--seed", "42")
    word = "00000abcdef001251\n"
    a = run_proc(*args, stdin=word)
    b = run_proc(*args, stdin=word)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stderr == b.stderr


def test_pipe_composability():
    msg = "0000000000abcdef"
    enc = run_proc("encode", "--q", "16", "--n", "16", "--word", msg)
    cor = run_proc("corrupt", "--q", "16", "--n", "16", "--seed", "3", stdin=enc.stdout)
    fix = run_proc("correct", "--q", "16", "--n", "16", stdin=cor.stdout)
    dec = run_proc("decode", "--q", "16", "--n", "16", stdin=fix.stdout)
    assert dec.returncode == 0
    assert dec.stdout.strip() == msg
    assert len(cor.stdout.strip()) > len(enc.stdout.strip())


def test_malformed_codeword_exit(capsys):
    # trailing symbol is neither 0 nor 1
    code, _, err = run_cli("decode", "--q", "16", "--n", "16", "--word", "0123456789abcdef2", capsys=capsys)
    assert code == EXIT_MALFORMED
    assert "error MALFORMED" in err


def test_malformed_word_exit(capsys):
    code, _, err = run_cli("encode", "--q", "2", "--n", "4", "--word", "01x1", capsys=capsys)
    assert code == EXIT_MALFORMED


def test_usage_exit_on_bad_params(capsys):
    code, _, err = run_cli("encode", "--q", "1", "--n", "4", "--word", "0000", capsys=capsys)
    assert code == EXIT_USAGE
    assert "error USAGE" in err


def test_missing_flags_exit_two():
    proc = run_proc("encode", "--q", "16")
    assert proc.returncode == 2
    proc = run_proc("no-such-command")
    assert proc.returncode == 2


def test_guard_exit(capsys):
    code, _, err = run_cli("count-bad", "--q", "2", "--n", "30", "--K", "5", capsys=capsys)
    assert code == EXIT_GUARD
    assert "error GUARD" in err


def test_verification_exit(monkeypatch, capsys):
    def boom(*a, **kw):
        raise VerificationError("manufactured failure")

    monkeypatch.setattr(analysis, "roundtrip_suite", boom)
    code, _, err = run_cli(
        "roundtrip", "--q", "16", "--n", "16", "--trials", "1", "--seed", "0", capsys=capsys
    )
    assert code == EXIT_VERIFICATION
    assert "error VERIFICATION" in err


def test_count_bad_text_line(capsys):
    code, out, _ = run_cli("count-bad", "--q", "2", "--n", "3", "--K", "1", capsys=capsys)
    assert code == EXIT_OK
    assert out.strip() == "q=2 n=3 K=1 count=6 bound=24 holds=yes"


def test_enum_code0_list_and_json(capsys):
    code, out, _ = run_cli("enum-code0", "--q", "2", "--len", "3", "--K", "1", "--list", capsys=capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("q=2 len=3 K=1 count=2")
    assert sorted(lines[1:]) == ["010", "101"]

    code, out, _ = run_cli("enum-code0", "--q", "2", "--len", "3", "--K", "1", "--list", "--json", capsys=capsys)
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    assert payload["count"] == 2
    assert sorted(payload["words"]) == ["010", "101"]


def test_verify_ball_text(capsys):
    code, out, _ = run_cli("verify-ball", "--q", "2", "--n", "6", "--l", "1,2,3", capsys=capsys)
    assert code == EXIT_OK
    assert out.strip().endswith("disjoint: yes")


def test_roundtrip_json(capsys):
    code, out, _ = run_cli(
        "roundtrip", "--q", "16", "--n", "16", "--trials", "3", "--seed", "1", "--json", capsys=capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    assert payload["corruptions_checked"] == 9


def test_converse_json(capsys):
    code, out, _ = run_cli("converse", "--q", "2", "--n", "1024", "--c", "3", "--json", capsys=capsys)
    payload = json.loads(out)
    assert payload["eta_lower_bound"] == 2.0
    assert payload["exceeds_one"] is True


@pytest.mark.parametrize("extra", [[], ["--json"]])
@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_converse_refuses_a_non_finite_shortfall(c, extra, capsys):
    code, out, err = run_cli("converse", "--q", "4", "--n", "8", f"--c={c}", *extra, capsys=capsys)
    assert code == EXIT_USAGE
    assert out == "" and "error USAGE" in err


def test_converse_takes_only_an_ascii_float(capsys):
    """--c takes what float() reads after an optional "-", but not the
    "1_0", "+7", " 7" and "١" that float() alone would also read."""
    for good in ("1", "0.5", "2.5e0"):
        code, out, _ = run_cli("converse", "--q", "2", "--n", "1024", f"--c={good}", capsys=capsys)
        assert code == EXIT_OK and out
    for bad in ("1_0", "+7", " 7", "١", "7 ", ""):
        with pytest.raises(SystemExit) as exc:
            main(["converse", "--q", "2", "--n", "1024", f"--c={bad}"])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out == ""
        assert f"error: argument --c: invalid float value: {bad!r}" in err


def test_enumerators_over_a_wide_alphabet(capsys):
    code, out, _ = run_cli("enum-code0", "--q", "200", "--len", "2", "--K", "1", "--list", capsys=capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("q=200 len=2 K=1 count=39800 ")
    assert lines[1:3] == ["0,1", "0,2"] and lines[-1] == "199,198"
    code, _, err = run_cli("count-bad", "--q", "300", "--n", "2", "--K", "1", capsys=capsys)
    assert code == EXIT_USAGE
    assert "alphabet size q must be <= 256" in err


@pytest.mark.parametrize("pattern", ["zeros", "random", "adversarial"])
def test_bench_patterns(pattern, capsys):
    code, out, _ = run_cli(
        "bench", "--q", "4", "--n", "64", "--pattern", pattern, "--reps", "2", "--json", capsys=capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    assert set(payload) >= {"encode", "decode", "correct"}
    assert payload["encode"]["median_ms"] >= 0.0


def test_bench_refuses_parameters_too_small_to_corrupt(capsys):
    """At q=4, n=3 the threshold K = 5 exceeds the codeword's 4 symbols, so
    no duplication of half-length >= K fits: bench refuses up front."""
    code, out, err = run_cli(
        "bench", "--q", "4", "--n", "3", "--reps", "1", "--pattern", "zeros", capsys=capsys
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "error USAGE" in err and "n + 1 < K" in err
    assert "randrange" not in err
    code, _, _ = run_cli(  # n = 4: n + 1 = K, the smallest n that fits
        "bench", "--q", "4", "--n", "4", "--reps", "1", "--pattern", "zeros", capsys=capsys
    )
    assert code == EXIT_OK


@pytest.mark.parametrize(
    "owner,attr,argv",
    [
        ("codec", "encode", ("encode", "--word", "0000000000abcdef")),
        ("codec", "decode", ("decode", "--word", "00000abcdef001251")),
        ("codec", "correct_with_position", ("correct", "--word", "00000abcdefabcdef001251")),
        ("DuplicationChannel", "corrupt", ("corrupt", "--seed", "7", "--word", "00000abcdef001251")),
        ("channel", "apply_duplication", ("corrupt", "--i", "5", "--l", "6", "--word", "00000abcdef001251")),
    ],
)
def test_word_commands_call_the_public_functions(owner, attr, argv, monkeypatch, capsys):
    """Each word command runs the public library function, so a wrapper
    installed on that name, as a tracer installs one, sees the call."""
    import dupcode.channel
    import dupcode.codec

    target = {
        "codec": dupcode.codec,
        "channel": dupcode.channel,
        "DuplicationChannel": dupcode.channel.DuplicationChannel,
    }[owner]
    real = vars(target)[attr]
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, attr, spy)
    code, out, _ = run_cli(*argv[:1], "--q", "16", "--n", "16", *argv[1:], capsys=capsys)
    assert code == EXIT_OK and out.strip()
    assert len(calls) == 1


@pytest.mark.parametrize("l", ["1_0", "+1", "-1", " 1, +2", "١", "1,２", "²"])
def test_verify_ball_takes_only_ascii_digits_in_l(l, capsys):
    """int() alone would read "1_0" as 10, "+1" as 1 and a non-ASCII digit
    as its value; each part must be ASCII digits 0-9, as in parse_word."""
    code, out, err = run_cli("verify-ball", "--q", "2", "--n", "6", f"--l={l}", capsys=capsys)
    assert code == EXIT_USAGE
    assert out == "" and "error USAGE: --l expects comma-separated integers" in err
    code, out, _ = run_cli("verify-ball", "--q", "2", "--n", "6", "--l= 1, 2,,3 ", capsys=capsys)
    assert code == EXIT_OK and out.strip().endswith("disjoint: yes")


@pytest.mark.parametrize(
    "argv",
    [
        ("enum-code0", "--q", "2", "--len", "3", "--K", "1"),
        ("count-bad", "--q", "2", "--n", "3", "--K", "1"),
        ("verify-ball", "--q", "2", "--n", "3", "--l", "1"),
    ],
)
def test_negative_max_space_is_a_usage_error(argv, capsys):
    """A negative guard is a bad value (exit 2), not a guard refusal; a
    guard of 0 still refuses the enumeration (exit 5)."""
    code, out, err = run_cli(*argv, "--max-space=-1", capsys=capsys)
    assert code == EXIT_USAGE
    assert out == "" and "error USAGE: max_space must be >= 0, got -1" in err
    code, out, err = run_cli(*argv, "--max-space=0", capsys=capsys)
    assert code == EXIT_GUARD
    assert out == "" and "error GUARD" in err


# One valid argv per integer flag, each flag given as --flag=value.
INT_FLAGS = {
    "--q": ("encode", "--q=16", "--n=16", "--word=0000000000abcdef"),
    "--n": ("encode", "--q=16", "--n=16", "--word=0000000000abcdef"),
    "--seed": ("corrupt", "--q=16", "--n=16", "--seed=7", "--word=00000abcdef001251"),
    "--i": ("corrupt", "--q=16", "--n=16", "--i=5", "--l=6", "--word=00000abcdef001251"),
    "--l": ("corrupt", "--q=16", "--n=16", "--i=5", "--l=6", "--word=00000abcdef001251"),
    "--l-min": ("corrupt", "--q=16", "--n=16", "--seed=7", "--l-min=5", "--word=00000abcdef001251"),
    "--l-max": ("corrupt", "--q=16", "--n=16", "--seed=7", "--l-max=9", "--word=00000abcdef001251"),
    "--trials": ("roundtrip", "--q=16", "--n=16", "--trials=1", "--seed=0"),
    "--len": ("enum-code0", "--q=2", "--len=3", "--K=1"),
    "--K": ("enum-code0", "--q=2", "--len=3", "--K=1"),
    "--max-space": ("count-bad", "--q=2", "--n=3", "--K=1", "--max-space=100"),
    "--reps": ("bench", "--q=4", "--n=8", "--pattern=zeros", "--reps=1"),
}


@pytest.mark.parametrize("flag", INT_FLAGS)
def test_integer_flags_take_only_ascii_digits(flag, capsys):
    """Each integer flag takes ASCII digits after an optional "-": int()
    alone would read "1_0" as 10, "+7" and " 7" as 7 and "١٦" as 16."""
    argv = INT_FLAGS[flag]
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == EXIT_OK and out
    for bad in ("1_0", "+7", " 7", "١٦"):
        spelled = [f"{flag}={bad}" if a.startswith(f"{flag}=") else a for a in argv]
        assert spelled != list(argv)
        with pytest.raises(SystemExit) as exc:
            main(spelled)
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out == ""
        assert f"error: argument {flag}: invalid int value: {bad!r}" in err


def test_integer_flags_take_a_leading_minus(capsys):
    code, out, err = run_cli("roundtrip", "--q=16", "--n=16", "--trials=-1", "--seed=-7", capsys=capsys)
    assert code == EXIT_USAGE and out == ""
    assert "error USAGE: trials must be >= 0, got -1" in err  # the library's check, not argparse's


COMMANDS = ("encode", "decode", "corrupt", "correct", "roundtrip", "enum-code0", "count-bad", "verify-ball", "converse", "bench")


def _full_parser_output(argv, capsys):
    """(exit code, stdout, stderr) of the parser of every command on argv."""
    from dupcode.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    return (exc.value.code, *capsys.readouterr())


def _main_output(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize(
    "argv",
    [
        *([cmd, "--help"] for cmd in COMMANDS),
        ["-h"],
        [],
        ["no-such-command"],
        ["enc"],
        *([cmd, "--n", "4"] for cmd in COMMANDS[:4]),
    ],
    ids=lambda argv: " ".join(argv) or "no-command",
)
def test_main_prints_what_the_full_parser_prints(argv, capsys):
    """main builds the parser of the one command argv names, or of every
    command when it names none; either way the help, usage lines, errors
    and exit codes are those of the parser of every command."""
    want = _full_parser_output(argv, capsys)
    assert want[0] in (0, 2) and want[1] + want[2]
    assert _main_output(argv, capsys) == want


@pytest.mark.parametrize("cmd", COMMANDS)
def test_a_command_builds_only_its_own_subparser(cmd, monkeypatch, capsys):
    import argparse

    from dupcode.cli import build_parser

    added = []
    real = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    _main_output([cmd, "--help"], capsys)
    assert added == [cmd]
    added.clear()
    build_parser()
    assert added == list(COMMANDS)
