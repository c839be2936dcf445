"""Seeded workloads and the closed loop that times each message's stages.

A message goes through four stages, one after another: encode, corrupt
(one random tandem duplication of half-length >= K), correct and decode;
corrupt and correct repeat `corrections` times on the same codeword, and
the first corrected word is decoded. The library workloads
call dupcode in this process; cli-pipe runs each stage as a fresh
`python -m dupcode` process, one at a time. Messages are generated from
the seed outside the timed spans, and every stage's output is checked
outside them too.

Each stage call is timed twice: in wall seconds, which the traced run's
spans share, and in CPU seconds of the process that did the work, which
the end-to-end metrics report. On a shared virtual machine a call's wall
time also counts the time the hypervisor gave its CPU to other guests
(steal time); the kernel leaves steal time out of a process's CPU time.
CPU time still follows the other guests' load (shared cores, caches and
memory bandwidth), by a third from one minute to the next, so before each
stage call the gauge, a fixed loop that does not touch dupcode, measures
how fast the CPU runs just then, and run.py rescales each message's
timings by the median of its gauge samples.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Sequence

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SHIM = Path(__file__).resolve().parent / "cli_shim.py"

Q = 4
STAGES = ("encode", "corrupt", "correct", "decode")

#: CPU seconds of one gauge loop on the baseline machine (Intel Xeon at
#: 2.1 GHz, Python 3.11) in a quiet minute. It only fixes the unit of the
#: rescaled timings: a timing is reported times GAUGE_NOMINAL_S over the
#: gauge measured beside it.
GAUGE_NOMINAL_S = 0.015
#: Gauge loops before each process a workload starts: a message of
#: cli-pipe has four stage calls, and a setup interpreter one, where a
#: zeros message has eighteen.
GAUGE_PER_PROCESS = 3


def gauge(samples: int = 1) -> float:
    """Median CPU seconds of `samples` runs of a fixed pure-Python loop:
    how fast the CPU runs just now.

    It calls nothing of dupcode, so no change to dupcode can move it.
    """
    times = []
    for _ in range(samples):
        c0 = process_time()
        s = 0
        for i in range(200_000):
            s += i * i % 7
        times.append(process_time() - c0)
    return statistics.median(times)


def zeros_message(rng: random.Random, n: int, K: int) -> list[int]:
    # The only workload where windows and seqword do most of the work: at
    # n = 2^17 a message forces about 3,540 encoder iterations; windows
    # takes ~84% of encode (build, apply_append/apply_delete, find_absent)
    # and seqword ~92% of decode. repeats answers from its all-equal fast
    # path (~2% of encode), so this is its bypass case. The seeded last K
    # symbols make every message distinct, so a result cache cannot help.
    # One message: ~1.4-2.0 s encode, ~0.7-1.1 s decode.
    return [0] * (n - K) + [rng.randrange(Q) for _ in range(K)]


def random_message(rng: random.Random, n: int, K: int) -> list[int]:
    # For the cli layer, the text layer of core (parse_word, format_word)
    # and what each fresh process pays again: import, parsing, and the cold
    # hash power tables of repeats, so repeats (~43% of a CLI encode) is
    # measured here as well as in zeros' correct. A uniform message needs no
    # encoder iteration and its codeword ends in flag 0, so windows and
    # seqword are idle. The four commands take ~2.2-3.0 s per message at
    # n = 2^18.
    return rng.choices(range(Q), k=n)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    message: Callable[[random.Random, int, int], list[int]]
    cli: bool
    #: Corruptions of each codeword, each corrected and checked. A library
    #: correct costs 1-3% of an encode and follows the drawn duplication
    #: length, so one sample per message would leave correct_s the noisiest
    #: metric; a CLI correct costs as much as an encode, so it gets one.
    corrections: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("zeros", 1 << 17, zeros_message, cli=False, corrections=8),
        Workload("cli-pipe", 1 << 18, random_message, cli=True),
    )
}


@dataclass
class Message:
    """What one message cost: wall and CPU seconds of each stage call that returned.

    A message is encoded once, its codeword corrupted and corrected
    `corrections` times, and the first corrected word decoded.
    """

    id: str
    attempted: int
    times: dict[str, list[float]] = field(default_factory=lambda: {s: [] for s in STAGES})
    cpu: dict[str, list[float]] = field(default_factory=lambda: {s: [] for s in STAGES})
    #: gauge() samples taken just before each stage call.
    gauge: list[float] = field(default_factory=list)
    failed: int = 0
    rss_kib: int = 0

    @property
    def roundtrip(self) -> float | None:
        """Wall seconds of encode, the first corruption and its correction, and the first decode."""
        return _first_calls(self.times)

    @property
    def cpu_roundtrip(self) -> float | None:
        """The same four calls in CPU seconds."""
        return _first_calls(self.cpu)

    @property
    def scale(self) -> float:
        """What this message's CPU seconds are multiplied by to rescale them."""
        return GAUGE_NOMINAL_S / statistics.median(self.gauge)


def _first_calls(times: dict[str, list[float]]) -> float | None:
    if not all(times.values()):
        return None
    return sum(t[0] for t in times.values())


def _note(msg_id: str, what: str) -> None:
    print(f"[bench] message {msg_id} failed: {what}", file=sys.stderr)


def library_message(codec, channel, params, x: Sequence[int], msg_id: str, corrections: int) -> Message:
    """Run one message through the library; codec may be a stand-in module."""
    from dupcode.repeats import is_dup_free  # never wrapped by tracing.install

    m = Message(msg_id, attempted=2 + 2 * corrections)

    def timed(stage: str, fn: Callable, *args):
        m.gauge.append(gauge())
        t0, c0 = perf_counter(), process_time()
        out = fn(*args)
        c1, t1 = process_time(), perf_counter()
        m.times[stage].append(t1 - t0)
        m.cpu[stage].append(c1 - c0)
        return out

    passed = 0
    try:
        y = timed("encode", codec.encode, x, params)
        passed += len(y) == params.n + 1 and is_dup_free(y, params.K)
        fixed = []
        for _ in range(corrections):
            z, dup = timed("corrupt", channel.corrupt, y)
            passed += len(z) == len(y) + dup.l
            fixed.append(timed("correct", codec.correct, z, params))
            passed += fixed[-1] == y
        d = timed("decode", codec.decode, fixed[0], params)
        passed += tuple(d) == tuple(x)
    except Exception as exc:  # a stage that raises fails, and so does every later stage
        _note(msg_id, repr(exc))
    m.failed = m.attempted - passed
    if m.failed and m.roundtrip is not None:
        _note(msg_id, f"{m.failed} stage call(s) gave a wrong output")
    return m


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: Sequence[str], err_path: Path) -> tuple[float, float, int, int, float]:
    """Run `python argv` to completion in the checkout.

    Returns (start, end, exit code, peak RSS in KiB, CPU seconds: user plus
    system). stdout is discarded and stderr kept in err_path.
    """
    env = child_env()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    t1 = perf_counter()
    return t0, t1, os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def time_setup(runs: int) -> list[tuple[float, float]]:
    """CPU seconds of fresh interpreters that import dupcode, one per run,
    each with the gauge measured just before it."""
    err = WORK / "setup.err"
    # Untimed first import: byte-compiles the package in a fresh checkout.
    spawn(["-c", "import dupcode"], err)
    out = []
    for _ in range(runs):
        g = gauge(GAUGE_PER_PROCESS)
        _, _, code, _, cpu = spawn(["-c", "import dupcode"], err)
        if code != 0:
            raise RuntimeError(f"`import dupcode` exited {code}: {err.read_text()[-500:]}")
        out.append((cpu, g))
    return out


def _text(word: Sequence[int]) -> str:
    return "".join(map(str, word))


def cli_message(
    params, x: Sequence[int], corrupt_seeds: Sequence[int], msg_id: str, rec: tracing.Recorder | None
) -> Message:
    """Run one message through CLI processes, one at a time, each reading the last one's file.

    With rec, each process runs under cli_shim.py and its spans are adopted
    under a `cli.process` span (spawn to reap) with a `cli.startup` child
    (spawn to entry into cli.main).
    """
    from dupcode.repeats import is_dup_free

    m = Message(msg_id, attempted=2 + 2 * len(corrupt_seeds))
    spans_path = WORK / "child-spans.json"
    err = WORK / "stage.err"
    x_text = _text(x)
    (WORK / "x.txt").write_text(x_text + "\n", encoding="ascii")
    y_text = ""
    checks = {
        "encode": lambda out: len(out) == params.n + 1 and is_dup_free([int(s) for s in out], params.K),
        "corrupt": lambda out: len(out) >= len(y_text) + params.K,
        "correct": lambda out: out == y_text,
        "decode": lambda out: out == x_text,
    }
    plan = [("encode", ["encode"], "x", "y")]
    for r, seed in enumerate(corrupt_seeds):
        plan.append(("corrupt", ["corrupt", "--seed", str(seed)], "y", f"z{r}"))
        plan.append(("correct", ["correct"], f"z{r}", f"c{r}"))
    plan.append(("decode", ["decode"], "c0", "d"))
    prefix = [str(SHIM), str(spans_path)] if rec is not None else ["-m", "dupcode"]
    passed = 0
    for stage, args, src, dst in plan:
        src_path, dst_path = WORK / f"{src}.txt", WORK / f"{dst}.txt"
        argv = [*prefix, *args, "--q", str(Q), "--n", str(params.n), "--in", str(src_path), "--out", str(dst_path)]
        # A command that exits 0 without writing must not pass on an earlier message's file.
        dst_path.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
        m.gauge.append(gauge(GAUGE_PER_PROCESS))
        t0, t1, code, rss, cpu = spawn(argv, err)
        if code != 0:
            _note(msg_id, f"{stage} exited {code}: {err.read_text()[-500:]}")
            break
        m.times[stage].append(t1 - t0)
        m.cpu[stage].append(cpu)
        m.rss_kib = max(m.rss_kib, rss)
        if rec is not None:
            child = tracing.load(spans_path)
            root = rec.add("cli.process", t0, t1, -1, msg_id)
            rec.add("cli.startup", t0, child[0][tracing.START], root, msg_id)
            rec.extend(child, root, msg_id)
        try:
            out = dst_path.read_text(encoding="ascii").strip()
        except (OSError, UnicodeDecodeError) as exc:
            _note(msg_id, f"{stage} output unreadable: {exc!r}")
            break
        if stage == "encode":
            y_text = out
        if checks[stage](out):
            passed += 1
        else:
            _note(msg_id, f"{stage} gave a wrong output")
    m.failed = m.attempted - passed
    return m


def closed_loop(seconds: float, run_one: Callable[[int], Message]) -> list[Message]:
    """One caller, messages back to back, until `seconds` have passed (at least one)."""
    out: list[Message] = []
    deadline = perf_counter() + seconds
    while not out or perf_counter() < deadline:
        out.append(run_one(len(out)))
    return out


def run_phase(
    wl: Workload,
    n: int,
    rng: random.Random,
    seconds: float,
    tag: str,
    rec: tracing.Recorder | None = None,
    codec=None,
) -> list[Message]:
    """Closed loop over seeded messages of length n; rec set means traced."""
    import dupcode.codec
    from dupcode import ChannelSpec, DuplicationChannel, derive_params

    params = derive_params(Q, n)
    codec = codec or dupcode.codec
    channel = DuplicationChannel(ChannelSpec(seed=rng.randrange(1 << 31)), params)

    def run_one(j: int) -> Message:
        x = wl.message(rng, n, params.K)
        msg_id = f"{tag}/{j}"
        if wl.cli:
            seeds = [rng.randrange(1 << 31) for _ in range(wl.corrections)]
            return cli_message(params, x, seeds, msg_id, rec)
        if rec is not None:
            rec.msg = msg_id
        return library_message(codec, channel, params, x, msg_id, wl.corrections)

    return closed_loop(seconds, run_one)


def warm_up(wl: Workload, rng: random.Random) -> None:
    """Fill the library's lazy tables before timing (untimed, unchecked).

    Library users pay these once per process, so the library workloads
    time warm calls. A duplication of a whole codeword is the longest word
    correct can see, so the hash power tables reach full size here; a
    random message keeps this cheap. CLI processes pay the tables every
    time, so cli-pipe is not warmed.
    """
    if wl.cli:
        return
    from dupcode import apply_duplication, correct, decode, derive_params, encode

    params = derive_params(Q, wl.n)
    y = encode(random_message(rng, wl.n, params.K), params)
    decode(correct(apply_duplication(y, 0, len(y)), params), params)
