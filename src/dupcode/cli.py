"""Command-line front end.

Words travel over stdin/stdout in the textual format (digits 0-9a-z for
q <= 36, comma-separated integers otherwise), so the subcommands compose
under shell pipes:

    dupcode encode --q 16 --n 16 --word 0000000000abcdef \
      | dupcode corrupt --q 16 --n 16 --seed 7 \
      | dupcode correct --q 16 --n 16 \
      | dupcode decode --q 16 --n 16

Exit codes: 0 success, 2 usage error, 3 malformed word/codeword,
4 verification failure, 5 enumeration guard exceeded, 1 unexpected defect.
Positions printed in text mode are 1-based; JSON payloads carry the same
0-based offsets the library uses. Every JSON payload is stamped with
``"schema": "dupcode-report/1"``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Sequence

# A process builds the parser of the one command its argv names and imports
# only the modules that command runs: encode, decode and correct import
# codec, and corrupt channel. The six tool commands live in tools, which
# this module imports only for one of them or for a parser of every command
# (help, or an argv that names no command); json loads only for --json.
from . import core
from .core import (
    GuardExceededError,
    InternalDefectError,
    MalformedCodewordError,
    MalformedWordError,
    VerificationError,
)

SCHEMA = "dupcode-report/1"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_VERIFICATION = 4
EXIT_GUARD = 5


def _fail(code: str, message: str) -> None:
    print(f"dupcode: error {code}: {message}", file=sys.stderr)


def _read_word_text(args: argparse.Namespace) -> str:
    if getattr(args, "word", None) is not None:
        return args.word
    if getattr(args, "infile", None) is not None:
        with open(args.infile, "rb") as fh:
            data = fh.read()
    else:
        data = sys.stdin.buffer.read()
    # every byte reaches parse_word, which names the first one outside the alphabet
    return data.decode("utf-8", "surrogateescape").strip()


def _write_text(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "outfile", None) is not None:
        with open(args.outfile, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    """Write either the plain-text form or the JSON report of a result."""
    if args.json:
        import json

        payload = {"schema": SCHEMA, **payload}
        _write_text(args, json.dumps(payload, sort_keys=True))
    else:
        _write_text(args, text)


def _add_word_io(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--word", help="input word inline (default: read stdin)")
    src.add_argument("--in", dest="infile", metavar="FILE", help="read the input word from FILE")
    p.add_argument("--out", dest="outfile", metavar="FILE", help="write the output to FILE (default: stdout)")


def _int(text: str) -> int:
    """The value of an integer flag: ASCII digits, after an optional "-".

    int() alone would also take "1_0", "+7", " 7" and non-ASCII digits.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _float(text: str) -> float:
    """The value of a float flag: float()'s decimal syntax after an optional
    "-", in ASCII digits, so without the "_", "+" and spaces float() takes."""
    if not re.fullmatch(r"-?((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)", text, re.I | re.A):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return float(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=_int, required=True, help="alphabet size (2..256)")
    p.add_argument("--n", type=_int, required=True, help="message length in symbols")
    p.add_argument("--json", action="store_true", help="emit a JSON report instead of plain text")


def _add_word(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_word_io(p)


def _add_corrupt(p: argparse.ArgumentParser) -> None:
    _add_word(p)
    p.add_argument("--seed", type=_int, help="PRNG seed for a random duplication")
    p.add_argument("--i", type=_int, help="explicit 0-based duplication offset (with --l)")
    p.add_argument("--l", type=_int, help="explicit duplication half-length (with --i)")
    p.add_argument("--l-min", type=_int, help="smallest random half-length (default: the code threshold K)")
    p.add_argument("--l-max", type=_int, help="largest random half-length (default: input length)")


def _cmd_encode(args: argparse.Namespace) -> int:
    from . import codec
    params = core.derive_params(args.q, args.n)
    x = core.parse_word(_read_word_text(args), args.q)
    y = codec.encode(x, params)
    text = core.format_word(y, args.q)
    _emit(args, {"command": "encode", "q": args.q, "n": args.n, "word": text}, text)
    return EXIT_OK


def _cmd_decode(args: argparse.Namespace) -> int:
    from . import codec
    params = core.derive_params(args.q, args.n)
    y = core.parse_word(_read_word_text(args), args.q)
    x = codec.decode(y, params)
    text = core.format_word(x, args.q)
    _emit(args, {"command": "decode", "q": args.q, "n": args.n, "word": text}, text)
    return EXIT_OK


def _cmd_corrupt(args: argparse.Namespace) -> int:
    from .channel import ChannelSpec, DuplicationChannel, apply_duplication
    params = core.derive_params(args.q, args.n)
    w = core.parse_word(_read_word_text(args), args.q)
    explicit = args.i is not None or args.l is not None
    if explicit:
        if args.i is None or args.l is None:
            raise _UsageError("--i and --l must be given together")
        i, l = args.i, args.l
        z = apply_duplication(w, i, l)
    else:
        if args.seed is None:
            raise _UsageError("either --seed or both --i and --l are required")
        spec = ChannelSpec(seed=args.seed, l_min=args.l_min, l_max=args.l_max)
        z, dup = DuplicationChannel(spec, params).corrupt(w)
        i, l = dup.i, dup.l
    text = core.format_word(z, args.q)
    if not args.json:
        print(
            f"dupcode: corrupt: duplicated {l} symbols at position {i + 1} (1-based)",
            file=sys.stderr,
        )
    _emit(
        args,
        {"command": "corrupt", "q": args.q, "n": args.n, "word": text, "i": i, "l": l},
        text,
    )
    return EXIT_OK


def _cmd_correct(args: argparse.Namespace) -> int:
    from . import codec
    params = core.derive_params(args.q, args.n)
    y = core.parse_word(_read_word_text(args), args.q)
    fixed, removal = codec.correct_with_position(y, params)
    text = core.format_word(fixed, args.q)
    if not args.json and removal is not None:
        print(
            f"dupcode: correct: removed {removal.l} symbols at position {removal.i + 1} (1-based)",
            file=sys.stderr,
        )
    payload = {
        "command": "correct",
        "q": args.q,
        "n": args.n,
        "word": text,
        "i": None if removal is None else removal.i,
        "l": 0 if removal is None else removal.l,
    }
    _emit(args, payload, text)
    return EXIT_OK


class _UsageError(Exception):
    """Flag combinations argparse cannot express; mapped to exit code 2."""


# (name, help, argument adder, handler) of each word command. The six tool
# commands are tools.TOOL_COMMANDS, in the same form; help lists these first.
WORD_COMMANDS = (
    ("encode", "message (n symbols) -> duplication-free codeword (n+1 symbols)", _add_word, _cmd_encode),
    ("decode", "codeword (n+1 symbols) -> message (n symbols)", _add_word, _cmd_decode),
    ("corrupt", "apply one tandem duplication (seeded or explicit)", _add_corrupt, _cmd_corrupt),
    ("correct", "remove a single duplication from a corrupted codeword", _add_word, _cmd_correct),
)


def _rows(name: str | None) -> tuple:
    """The table rows a parser of an argv that starts with name needs: the
    row of the command it names, or every row if it names none."""
    for row in WORD_COMMANDS:
        if row[0] == name:
            return (row,)
    from .tools import TOOL_COMMANDS

    return tuple(row for row in TOOL_COMMANDS if row[0] == name) or WORD_COMMANDS + TOOL_COMMANDS


def _parser(rows: tuple) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dupcode",
        description="Encode, corrupt, and repair words under single long tandem duplications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, add_arguments, handler in rows:
        p = sub.add_parser(name, help=summary)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, as -h and a mistyped command see it."""
    return _parser(_rows(None))


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser(_rows(argv[0] if argv else None)).parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        _fail("USAGE", str(exc))
        return EXIT_USAGE
    except (MalformedWordError, MalformedCodewordError) as exc:
        _fail("MALFORMED", str(exc))
        return EXIT_MALFORMED
    except VerificationError as exc:
        _fail("VERIFICATION", str(exc))
        return EXIT_VERIFICATION
    except GuardExceededError as exc:
        _fail("GUARD", str(exc))
        return EXIT_GUARD
    except InternalDefectError as exc:
        _fail("INTERNAL", str(exc))
        return EXIT_INTERNAL
    except ValueError as exc:
        _fail("USAGE", str(exc))
        return EXIT_USAGE
    except OSError as exc:
        _fail("USAGE", str(exc))
        return EXIT_USAGE


def entrypoint() -> None:
    """Console entry point, also run by `python -m dupcode`.

    dupcode calls no BLAS routine, so numpy's OpenBLAS is asked for one
    thread instead of a pool of one per CPU. This runs before any import of
    numpy; a value the user set wins, and importing dupcode as a library
    leaves the environment alone.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
