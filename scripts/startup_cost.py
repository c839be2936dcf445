#!/usr/bin/env python3
"""Start-up cost of each word command, in one or two checkouts.

For encode, decode, corrupt and correct of a uniform random message over
q = 4, its codeword and one duplication of that: the dupcode modules the
command loads, their cold compile() time in a fresh interpreter, and the
median CPU time (os.wait4) of `python -m dupcode` over N runs, alternating
between the checkouts. Children run with PYTHONDONTWRITEBYTECODE=1.

    python3 scripts/startup_cost.py --runs 24 src ../parent/src
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

LOADS = "import sys, dupcode.cli\ndupcode.cli.main(sys.argv[1:])\nprint(*sorted(m[8:] for m in sys.modules if m[:8] == 'dupcode.'))"
COMPILE = "import sys, time\nfor p in sys.argv[1:]:\n    s = open(p).read()\n    t = time.process_time()\n    compile(s, p, 'exec')\n    print(f'{(time.process_time() - t) * 1e3:.1f}')"
INPUT = {"encode": "x", "decode": "y", "corrupt": "y", "correct": "z"}  # message, codeword, corrupted codeword


def child_env(src: str) -> dict:
    return {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}


def child_out(src: str, code: str, args: list) -> list:
    """The words `python -c code args` prints."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=child_env(src), capture_output=True, text=True, check=True)
    return proc.stdout.split()


def child_cpu(src: str, argv: list) -> float:
    """CPU seconds of one `python -m dupcode argv` process."""
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "dupcode", *argv], child_env(src), file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{argv[0]} failed in {src}")
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="a directory holding the dupcode package")
    ap.add_argument("other", nargs="?", help="a second one, run alternately with the first")
    ap.add_argument("--runs", type=int, default=24, help="processes per command and checkout")
    ap.add_argument("--n", type=int, default=1 << 18, help="message length")
    args = ap.parse_args()
    srcs = [os.path.abspath(s) for s in (args.src, args.other) if s]
    sys.path.insert(0, srcs[0])
    from dupcode import apply_duplication, derive_params, encode, format_word

    params = derive_params(4, args.n)
    x = bytes(random.Random(1).choices(range(4), k=args.n))
    y = encode(x, params)
    with tempfile.TemporaryDirectory() as tmp:
        for name, word in (("x", x), ("y", y), ("z", apply_duplication(y, args.n // 3, params.K))):
            Path(tmp, name).write_text(format_word(word, 4))
        for cmd, name in INPUT.items():
            argv = [cmd, "--q", "4", "--n", str(args.n), "--in", str(Path(tmp, name)), "--out", os.devnull]
            argv += ["--seed", "7"] * (cmd == "corrupt")
            for src in srcs:
                modules = ["__init__", *child_out(src, LOADS, argv)]
                ms = child_out(src, COMPILE, [str(Path(src, "dupcode", f"{m}.py")) for m in modules])
                times = " ".join(f"{m} {t}" for m, t in zip(modules, ms))
                print(f"{cmd} in {src}: loads {' '.join(modules[1:])}; compile ms {times} (total {sum(map(float, ms)):.1f})")
            cpu = {src: [] for src in srcs}
            for src in [s for run in range(args.runs) for s in srcs[:: (-1) ** run]]:
                cpu[src].append(child_cpu(src, argv))
            print(f"{cmd}: median CPU ms over {args.runs} runs:", *(f"{statistics.median(cpu[s]) * 1e3:.1f}" for s in srcs))


if __name__ == "__main__":
    main()
