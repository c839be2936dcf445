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
import sys
from typing import TYPE_CHECKING, Sequence

# Each command imports the modules it runs, so a process compiles no other:
# encode, decode and correct import codec, corrupt imports channel, bench
# both, and the brute-force and roundtrip commands analysis, which loads
# numpy. The same goes for json (--json only) and random, statistics and
# time (bench only).
from . import core
from .core import (
    GuardExceededError,
    InternalDefectError,
    MalformedCodewordError,
    MalformedWordError,
    VerificationError,
)

if TYPE_CHECKING:
    import random

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


def _add_common(p: argparse.ArgumentParser, *, need_n: bool = True) -> None:
    p.add_argument("--q", type=int, required=True, help="alphabet size (2..256)")
    if need_n:
        p.add_argument("--n", type=int, required=True, help="message length in symbols")
    p.add_argument("--json", action="store_true", help="emit a JSON report instead of plain text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dupcode",
        description="Encode, corrupt, and repair words under single long tandem duplications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="message (n symbols) -> duplication-free codeword (n+1 symbols)")
    _add_common(p)
    _add_word_io(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="codeword (n+1 symbols) -> message (n symbols)")
    _add_common(p)
    _add_word_io(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("corrupt", help="apply one tandem duplication (seeded or explicit)")
    _add_common(p)
    _add_word_io(p)
    p.add_argument("--seed", type=int, help="PRNG seed for a random duplication")
    p.add_argument("--i", type=int, help="explicit 0-based duplication offset (with --l)")
    p.add_argument("--l", type=int, help="explicit duplication half-length (with --i)")
    p.add_argument("--l-min", type=int, help="smallest random half-length (default: the code threshold K)")
    p.add_argument("--l-max", type=int, help="largest random half-length (default: input length)")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("correct", help="remove a single duplication from a corrupted codeword")
    _add_common(p)
    _add_word_io(p)
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("roundtrip", help="randomized encode/corrupt/correct/decode battery")
    _add_common(p)
    p.add_argument("--trials", type=int, required=True, help="number of random messages")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed")
    p.add_argument("--sweep", action="store_true", help="check every (offset, half-length) instead of sampling")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("enum-code0", help="enumerate all duplication-free words of a given length")
    p.add_argument("--q", type=int, required=True, help="alphabet size (2..256)")
    p.add_argument("--len", dest="length", type=int, required=True, help="word length to enumerate")
    p.add_argument("--K", type=int, required=True, help="squares with half-length >= K are forbidden")
    p.add_argument("--list", dest="list_words", action="store_true", help="also print the words")
    p.add_argument("--max-space", type=int, help="override the q**len enumeration guard")
    p.add_argument("--json", action="store_true", help="emit a JSON report instead of plain text")
    p.set_defaults(func=_cmd_enum_code0)

    p = sub.add_parser("count-bad", help="count words of length n containing a long square")
    p.add_argument("--q", type=int, required=True, help="alphabet size (2..256)")
    p.add_argument("--n", type=int, required=True, help="word length to enumerate")
    p.add_argument("--K", type=int, required=True, help="count squares with half-length >= K")
    p.add_argument("--max-space", type=int, help="override the q**n enumeration guard")
    p.add_argument("--json", action="store_true", help="emit a JSON report instead of plain text")
    p.set_defaults(func=_cmd_count_bad)

    p = sub.add_parser("verify-ball", help="exhaustively check single-duplication balls are disjoint")
    p.add_argument("--q", type=int, required=True, help="alphabet size (2..256)")
    p.add_argument("--n", type=int, required=True, help="length of the duplication-free source words")
    p.add_argument("--l", required=True, help="comma-separated duplication half-lengths, e.g. 1,2,3")
    p.add_argument("--max-space", type=int, help="override the q**n enumeration guard")
    p.add_argument("--json", action="store_true", help="emit a JSON report instead of plain text")
    p.set_defaults(func=_cmd_verify_ball)

    p = sub.add_parser("converse", help="redundancy floor when the guaranteed length drops below log_q n")
    _add_common(p)
    p.add_argument("--c", type=float, required=True, help="shortfall: duplications of length log_q(n) - c")
    p.set_defaults(func=_cmd_converse)

    p = sub.add_parser("bench", help="time encode/decode/correct on synthetic messages")
    _add_common(p)
    p.add_argument(
        "--pattern",
        choices=("zeros", "random", "adversarial"),
        required=True,
        help="message family: all zeros, uniform random, or run-heavy",
    )
    p.add_argument("--reps", type=int, required=True, help="number of repetitions")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for the random pattern and corruptions")
    p.set_defaults(func=_cmd_bench)

    return parser


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


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    from . import analysis
    report = analysis.roundtrip_suite(args.q, args.n, args.trials, args.seed, sweep=args.sweep)
    d = report.to_dict()
    lines = [
        f"roundtrip q={args.q} n={args.n} trials={args.trials} sweep={args.sweep}",
        f"corruptions checked: {report.corruptions_checked}",
        f"encode ms p50/p90/max: {d['encode_ms']['p50']:.3f}/{d['encode_ms']['p90']:.3f}/{d['encode_ms']['max']:.3f}",
        f"decode ms p50/p90/max: {d['decode_ms']['p50']:.3f}/{d['decode_ms']['p90']:.3f}/{d['decode_ms']['max']:.3f}",
        f"correct ms p50/p90/max: {d['correct_ms']['p50']:.3f}/{d['correct_ms']['p90']:.3f}/{d['correct_ms']['max']:.3f}",
        "all corruptions inverted: yes",
    ]
    _emit(args, {"command": "roundtrip", **d}, "\n".join(lines))
    return EXIT_OK


def _cmd_enum_code0(args: argparse.Namespace) -> int:
    from . import analysis
    report = analysis.enumerate_code0(
        args.q, args.length, args.K, want_words=args.list_words, max_space=args.max_space
    )
    d = report.to_dict()
    lines = [
        f"q={args.q} len={args.length} K={args.K} count={report.count} "
        f"bound={float(report.bound):.6g} holds={'yes' if d['holds'] else 'no'}"
    ]
    if args.list_words and report.words is not None:
        lines.extend(core.format_word(w, args.q) for w in report.words)
    _emit(args, {"command": "enum-code0", **d}, "\n".join(lines))
    return EXIT_OK


def _cmd_count_bad(args: argparse.Namespace) -> int:
    from . import analysis
    report = analysis.count_bad_words(args.q, args.n, args.K, max_space=args.max_space)
    d = report.to_dict()
    text = (
        f"q={args.q} n={args.n} K={args.K} count={report.count} "
        f"bound={float(report.bound):.6g} holds={'yes' if d['holds'] else 'no'}"
    )
    _emit(args, {"command": "count-bad", **d}, text)
    return EXIT_OK


def _cmd_verify_ball(args: argparse.Namespace) -> int:
    from . import analysis
    parts = [part.strip() for part in args.l.split(",") if part.strip() != ""]
    for part in parts:
        # int() alone would also take "1_0", "+1" and non-ASCII digits
        if not (part.isascii() and part.isdigit()):
            raise _UsageError(f"--l expects comma-separated integers, got {part!r}")
    if not parts:
        raise _UsageError("--l expects at least one half-length")
    l_set = [int(part) for part in parts]
    report = analysis.verify_ball_disjointness(args.q, args.n, l_set, max_space=args.max_space)
    d = report.to_dict()
    lines = [
        f"l={e.l}: words={e.eligible_words} images={e.images} collisions={len(e.collisions)}"
        for e in report.entries
    ]
    lines.append("disjoint: " + ("yes" if d["disjoint"] else "no"))
    _emit(args, {"command": "verify-ball", **d}, "\n".join(lines))
    if not d["disjoint"]:
        raise VerificationError("duplication balls intersect; witnesses in the report")
    return EXIT_OK


def _cmd_converse(args: argparse.Namespace) -> int:
    from . import analysis
    report = analysis.converse_gap(args.q, args.n, args.c)
    d = report.to_dict()
    text = (
        f"q={args.q} n={args.n} c={args.c}: guaranteed half-length {report.l:.4f} "
        f"needs redundancy >= {report.eta_lower_bound:.4f}"
        f" (exceeds one symbol: {'yes' if report.exceeds_one else 'no'})"
    )
    _emit(args, {"command": "converse", **d}, text)
    return EXIT_OK


def _bench_message(pattern: str, q: int, n: int, K: int, rng: random.Random) -> core.Word:
    if pattern == "zeros":
        return bytes(n)
    if pattern == "random":
        return bytes(rng.randrange(q) for _ in range(n))
    # run-heavy: cycle the alphabet in runs of 2K symbols. Most encoder
    # iterations find their square at the front (70 of 75 at n = 2^14,
    # q = 4), but through a full hashed scan (75 scans), not the all-equal
    # prefix test; few squares have half-length K (6 of 75), so there are
    # far fewer iterations than the (n + 1) / K bound.
    run = 2 * K
    return bytes((j // run) % q for j in range(n))


def _cmd_bench(args: argparse.Namespace) -> int:
    import random
    import statistics
    import time

    from . import codec
    from .channel import apply_duplication

    params = core.derive_params(args.q, args.n)
    if args.reps < 1:
        raise _UsageError("--reps must be >= 1")
    if args.n + 1 < params.K:
        raise _UsageError(
            f"bench corrupts each codeword with a duplication of half-length >= K = {params.K}, "
            f"which a codeword of n + 1 = {args.n + 1} symbols cannot hold (n + 1 < K)"
        )
    rng = random.Random(args.seed)
    enc_t: list[float] = []
    dec_t: list[float] = []
    cor_t: list[float] = []
    for _ in range(args.reps):
        x = _bench_message(args.pattern, args.q, args.n, params.K, rng)
        t0 = time.perf_counter()
        y = codec.encode(x, params)
        enc_t.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        back = codec.decode(y, params)
        dec_t.append(time.perf_counter() - t0)
        if back != x:
            raise VerificationError("decode(encode(x)) != x during bench")
        l = rng.randint(params.K, len(y))
        i = rng.randint(0, len(y) - l)
        z = apply_duplication(y, i, l)
        t0 = time.perf_counter()
        fixed = codec.correct(z, params)
        cor_t.append(time.perf_counter() - t0)
        if fixed != y:
            raise VerificationError("correct failed during bench")

    def stats(ts: list[float]) -> dict:
        return {
            "median_ms": statistics.median(ts) * 1e3,
            "mean_ms": statistics.fmean(ts) * 1e3,
            "max_ms": max(ts) * 1e3,
        }

    payload = {
        "command": "bench",
        "q": args.q,
        "n": args.n,
        "pattern": args.pattern,
        "reps": args.reps,
        "encode": stats(enc_t),
        "decode": stats(dec_t),
        "correct": stats(cor_t),
    }
    lines = [f"bench q={args.q} n={args.n} pattern={args.pattern} reps={args.reps}"]
    for stage in ("encode", "decode", "correct"):
        s = payload[stage]
        lines.append(
            f"{stage}: median {s['median_ms']:.3f} ms, mean {s['mean_ms']:.3f} ms, max {s['max_ms']:.3f} ms"
        )
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


class _UsageError(Exception):
    """Flag combinations argparse cannot express; mapped to exit code 2."""


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
