"""The six tool commands of the command line: the randomized battery
(roundtrip), the brute-force bound checkers (enum-code0, count-bad,
verify-ball), the converse bound and bench.

Their flags and handlers live here rather than in cli, so a word command
(encode, decode, corrupt, correct) compiles none of them: cli imports this
module only to run one of these commands or to build the parser of every
command. Each handler imports the modules it runs: analysis, which loads
numpy, and for bench codec, channel, random, statistics and time.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from . import core
from .cli import EXIT_OK, _add_common, _emit, _float, _int, _UsageError
from .core import VerificationError

if TYPE_CHECKING:
    import random


def _add_roundtrip(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--trials", type=_int, required=True, help="number of random messages")
    p.add_argument("--seed", type=_int, required=True, help="PRNG seed")
    p.add_argument("--sweep", action="store_true", help="check every (offset, half-length) instead of sampling")


def _add_enum_code0(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=_int, required=True, help="alphabet size (2..256)")
    p.add_argument("--len", dest="length", type=_int, required=True, help="word length to enumerate")
    p.add_argument("--K", type=_int, required=True, help="squares with half-length >= K are forbidden")
    p.add_argument("--list", dest="list_words", action="store_true", help="also print the words")
    p.add_argument("--max-space", type=_int, help="override the q**len enumeration guard")
    p.add_argument("--json", action="store_true", help="emit a JSON report instead of plain text")


def _add_count_bad(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=_int, required=True, help="alphabet size (2..256)")
    p.add_argument("--n", type=_int, required=True, help="word length to enumerate")
    p.add_argument("--K", type=_int, required=True, help="count squares with half-length >= K")
    p.add_argument("--max-space", type=_int, help="override the q**n enumeration guard")
    p.add_argument("--json", action="store_true", help="emit a JSON report instead of plain text")


def _add_verify_ball(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=_int, required=True, help="alphabet size (2..256)")
    p.add_argument("--n", type=_int, required=True, help="length of the duplication-free source words")
    p.add_argument("--l", required=True, help="comma-separated duplication half-lengths, e.g. 1,2,3")
    p.add_argument("--max-space", type=_int, help="override the q**n enumeration guard")
    p.add_argument("--json", action="store_true", help="emit a JSON report instead of plain text")


def _add_converse(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--c", type=_float, required=True, help="shortfall: duplications of length log_q(n) - c")


def _add_bench(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument(
        "--pattern",
        choices=("zeros", "random", "adversarial"),
        required=True,
        help="message family: all zeros, uniform random, or run-heavy",
    )
    p.add_argument("--reps", type=_int, required=True, help="number of repetitions")
    p.add_argument("--seed", type=_int, default=0, help="PRNG seed for the random pattern and corruptions")


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
    # run-heavy: cycle the alphabet in runs of 2K symbols. Most blocks cut
    # a square at the front (70 of 75 at n = 2^14, q = 4), found by a full
    # hashed scan, not the all-equal prefix test, and one search covers a
    # whole batch of front cuts (8 searches for the 75 blocks). Few squares
    # have half-length K (6 of 75), so there are far fewer blocks than the
    # (n + 1) / K bound.
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


# (name, help, argument adder, handler) of each tool command, as cli.WORD_COMMANDS.
TOOL_COMMANDS = (
    ("roundtrip", "randomized encode/corrupt/correct/decode battery", _add_roundtrip, _cmd_roundtrip),
    ("enum-code0", "enumerate all duplication-free words of a given length", _add_enum_code0, _cmd_enum_code0),
    ("count-bad", "count words of length n containing a long square", _add_count_bad, _cmd_count_bad),
    ("verify-ball", "exhaustively check single-duplication balls are disjoint", _add_verify_ball, _cmd_verify_ball),
    ("converse", "redundancy floor when the guaranteed length drops below log_q n", _add_converse, _cmd_converse),
    ("bench", "time encode/decode/correct on synthetic messages", _add_bench, _cmd_bench),
)
