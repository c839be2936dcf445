"""dupcode's own modules, numpy, and the stdlib modules only some commands
use are loaded only by the code that computes with them.

`import dupcode` imports no submodule: each public name is imported from
its defining module on first access. Each CLI command imports the modules
it runs, so a process compiles no module it has no use for.

Each check runs in a fresh interpreter, since the test process itself has
every module loaded long before these tests run.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dupcode
from dupcode import apply_duplication, correct, derive_params, encode, format_word, repeats

from oracles import naive_leftmost, scan_by_length_leftmost

SRC = str(Path(dupcode.__file__).resolve().parent.parent)


# Modules a decode or corrupt process has no use for: numpy, and the stdlib
# that dataclasses (inspect with ast, dis and tokenize), --json (json) and
# bench (statistics with decimal and fractions) would pull in.
HEAVY = ("numpy", "dataclasses", "inspect", "json", "statistics")
LOADED = f"sorted(m for m in {HEAVY!r} if m in sys.modules)"
# The dupcode submodules a process has imported, by their short names.
OWN = "sorted(m.split('.')[1] for m in sys.modules if m.startswith('dupcode.'))"


def run_fresh(code: str, openblas_threads: str | None = None) -> str:
    """Run code in a new interpreter that imports dupcode from this tree,
    with OPENBLAS_NUM_THREADS unset or set to openblas_threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_dupcode_leaves_numpy_unloaded():
    assert run_fresh(f"import sys, dupcode, dupcode.cli; print({LOADED})") == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--q", "16", "--n", "16", "--word", "0123456789abcdef0"],  # flag 0
        ["decode", "--q", "16", "--n", "16", "--word", "00000abcdef001251"],  # one block
        ["corrupt", "--q", "16", "--n", "16", "--seed", "7", "--word", "00000abcdef001251"],
    ],
    ids=["decode-flag0", "decode-blocks", "corrupt"],
)
def test_decode_and_corrupt_leave_numpy_unloaded(argv):
    code = (
        "import sys, dupcode.cli\n"
        f"code = dupcode.cli.main({argv!r})\n"
        f"print(code, {LOADED})"
    )
    assert run_fresh(code) == "0 []"


# A square-free codeword (flag 0), a codeword with one block, a message whose
# codeword is the word plus a 0, and one duplication of (3, 7) in that codeword.
FLAG0 = "0123456789abcdef0"
BLOCK = "00000abcdef001251"
SQUARE_FREE = "0123456789abcdef"
DUPLICATED = "012" + "3456789" * 2 + "abcdef0"
DECODE = ["cli", "codec", "core"]
WORD_STAGE = [*DECODE, "repeats"]


@pytest.mark.parametrize(
    "argv,modules",
    [
        ([], []),
        (["decode", "--word", FLAG0], DECODE),
        (["decode", "--word", BLOCK], [*DECODE, "seqword"]),
        (["corrupt", "--seed", "7", "--word", BLOCK], ["channel", "cli", "core"]),
        (["encode", "--word", SQUARE_FREE], WORD_STAGE),
        (["correct", "--word", DUPLICATED], WORD_STAGE),
        (["converse", "--c", "1"], ["analysis", "channel", "cli", "codec", "core", "repeats", "tools"]),
        (["bench", "--pattern", "random", "--reps", "1"], ["channel", "cli", "codec", "core", "repeats", "tools"]),
        (["--help"], ["cli", "core", "tools"]),
    ],
    ids=["import", "decode-flag0", "decode-blocks", "corrupt", "encode", "correct", "converse", "bench", "help"],
)
def test_each_process_loads_only_the_modules_it_runs(argv, modules):
    """The exact set, so a module imported eagerly again fails here. A word
    command never loads tools, and loads repeats only for a square search."""
    if argv:
        argv = [argv[0], "--q", "16", "--n", "16", *argv[1:]]
        code = (
            "import sys, dupcode.cli\n"
            "try:\n"
            f"    code = dupcode.cli.main({argv!r})\n"
            "except SystemExit as exc:  # --help\n"
            "    code = exc.code\n"
            f"print(code, {OWN})"
        )
        assert run_fresh(code) == f"0 {modules!r}"
    else:
        assert run_fresh(f"import sys, dupcode\nprint({OWN})") == "[]"


def test_an_encode_that_cuts_a_square_loads_windows_and_numpy():
    """The window index computes its codes with numpy, so an encode that
    writes a block loads both, even when, as here (m = 17 <= 96), the
    square search itself scans without numpy."""
    argv = ["encode", "--q", "16", "--n", "16", "--word", "0000000000abcdef"]
    code = (
        "import sys, dupcode.cli\n"
        f"code = dupcode.cli.main({argv!r})\n"
        f"print(code, {OWN}, 'numpy' in sys.modules)"
    )
    assert run_fresh(code) == "0 ['cli', 'codec', 'core', 'repeats', 'windows'] True"


def test_codec_keeps_the_search_names_it_calls(monkeypatch):
    """find_leftmost_long and is_dup_free are names of codec itself, loading
    repeats when they run: they answer as repeats' functions do, and a spy
    set on them sees every search of encode and correct's final check."""
    import dupcode.codec as codec
    import dupcode.repeats as repeats

    assert {"find_leftmost_long", "is_dup_free"} <= set(vars(codec))
    params = derive_params(4, 64)
    words = [bytes(64), bytes(range(4)) * 16, bytes(_random_word(4, 64, 3)), b"\x00\x01" * 3]
    for w in words:
        assert codec.find_leftmost_long(w, params.K) == repeats.find_leftmost_long(w, params.K)
        assert codec.is_dup_free(w, params.K) is repeats.is_dup_free(w, params.K)
    calls = []
    for name in ("find_leftmost_long", "is_dup_free"):
        real = vars(codec)[name]
        monkeypatch.setattr(codec, name, lambda w, K, real=real, name=name: calls.append(name) or real(w, K))
    y = encode(bytes(64), params)
    searches = calls.count("find_leftmost_long")
    assert searches >= 2 and calls == ["find_leftmost_long"] * searches  # the last finds no square
    calls.clear()
    assert correct(apply_duplication(y, 3, params.K), params) == y
    assert calls == ["is_dup_free"]


def test_decode_json_still_writes_its_report():
    code = (
        "import dupcode.cli\n"
        "dupcode.cli.main(['decode', '--q', '16', '--n', '16', '--json', '--word', '00000abcdef001251'])\n"
    )
    report = json.loads(run_fresh(code))
    assert report == {
        "command": "decode",
        "n": 16,
        "q": 16,
        "schema": "dupcode-report/1",
        "word": "0000000000abcdef",
    }


def test_bench_still_runs_in_a_fresh_process():
    code = (
        "import dupcode.cli\n"
        "dupcode.cli.main(['bench', '--q', '4', '--n', '64', '--pattern', 'random', '--reps', '1', '--json'])\n"
    )
    report = json.loads(run_fresh(code))
    assert report["command"] == "bench" and report["reps"] == 1
    assert set(report["encode"]) == {"median_ms", "mean_ms", "max_ms"}


RUN_MAIN = (
    "import os, runpy, sys\n"
    "sys.argv = ['dupcode', 'decode', '--q', '16', '--n', '16', '--word', '0123456789abcdef0']\n"
    "try:\n"
    "    runpy.run_module('dupcode', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    print(exc.code, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


@pytest.mark.parametrize("user,expect", [(None, "1"), ("4", "4")], ids=["unset", "user-set"])
def test_cli_process_limits_openblas_threads_unless_the_user_chose(user, expect):
    """dupcode calls no BLAS routine, so a CLI process asks numpy's OpenBLAS
    for one thread instead of one per CPU; a value the user set wins."""
    assert run_fresh(RUN_MAIN, openblas_threads=user) == f"0 {expect}"


def test_library_import_leaves_the_environment_alone():
    code = "import os, dupcode, dupcode.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_fresh(code) == "None"


def test_every_public_name_resolves_from_its_defining_module():
    """Each name in __all__ is the object its defining module holds, and the
    lazy table names that module rather than one that imports the name."""
    code = (
        "import importlib, dupcode\n"
        "homes = {'Word': 'dupcode.core'}  # a type alias carries no __module__ of its own\n"
        "bad = []\n"
        "for name in dupcode.__all__:\n"
        "    value = getattr(dupcode, name)\n"
        "    home = homes.get(name, getattr(value, '__module__', None))\n"
        "    if value is not getattr(importlib.import_module(home), name) or home != f'dupcode.{dupcode._LAZY[name]}':\n"
        "        bad.append(name)\n"
        "print(bad)"
    )
    assert run_fresh(code) == "[]"


def test_submodules_are_attributes_after_a_bare_import():
    code = (
        "import dupcode\n"
        "names = [m.__name__ for m in (dupcode.codec, dupcode.core, dupcode.channel, dupcode.repeats, dupcode.seqword)]\n"
        "from dupcode import analysis\n"
        "print(names + [analysis.__name__, analysis.count_bad_words is dupcode.count_bad_words])"
    )
    expect = [f"dupcode.{m}" for m in ("codec", "core", "channel", "repeats", "seqword", "analysis")]
    assert run_fresh(code) == repr([*expect, True])


def test_star_import_and_dir_cover_all():
    code = (
        "import dupcode\n"
        "listed = set(dir(dupcode))\n"
        "ns = {}\n"
        "exec('from dupcode import *', ns)\n"
        "print(sorted(n for n in dupcode.__all__ if n not in ns or n not in listed))"
    )
    assert run_fresh(code) == "[]"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="nonexistent"):
        dupcode.nonexistent


def _random_word(q: int, m: int, seed: int) -> tuple:
    rng = random.Random(seed)
    return tuple(rng.randrange(q) for _ in range(m))


def test_encode_and_correct_of_square_free_words_leave_numpy_unloaded(tmp_path):
    """Random messages past the direct-scan cutoff have no long square, so
    encode and correct prove that with the sampled certificates alone, at
    n = 300 and at n = 2**14."""
    sizes = (300, 1 << 14)
    want = {}
    for n in sizes:
        params = derive_params(4, n)
        x = _random_word(4, n, 12)
        y = encode(x, params)
        z = apply_duplication(y, 40, 150)
        assert correct(z, params) == y
        (tmp_path / f"x{n}").write_text(format_word(x, 4))
        (tmp_path / f"z{n}").write_text(format_word(z, 4))
        want[n] = format_word(y, 4)
    code = (
        "import sys, dupcode.cli\n"
        f"d = {str(tmp_path)!r}\n"
        "codes = [dupcode.cli.main([cmd, '--q', '4', '--n', str(n), '--in', f'{d}/{src}{n}', '--out', f'{d}/{dst}{n}'])\n"
        f"         for n in {sizes!r} for cmd, src, dst in (('encode', 'x', 'y'), ('correct', 'z', 'fixed'))]\n"
        f"print(codes, {LOADED})"
    )
    assert run_fresh(code) == "[0, 0, 0, 0] []"
    for n in sizes:
        assert (tmp_path / f"y{n}").read_text().strip() == want[n]
        assert (tmp_path / f"fixed{n}").read_text().strip() == want[n]


def _search_fresh(w, K: int) -> str:
    """find_leftmost_long(w, K) in a fresh process: the square as (i, l) or
    None, and whether the search loaded numpy."""
    code = (
        "import sys\n"
        "from dupcode import find_leftmost_long\n"
        f"d = find_leftmost_long({w!r}, {K})\n"
        "print(d and (d.i, d.l), 'numpy' in sys.modules)"
    )
    return run_fresh(code)


def test_a_square_with_few_repeated_blocks_is_answered_without_numpy():
    """The block scan verifies a square whose sampled blocks repeat at most
    _REPEATS times itself: a planted square (60, 60) in 260 symbols."""
    w = list(_random_word(4, 200, 5))
    w[120:120] = w[60:120]  # the 60 symbols at 60 repeated: a square (60, 60)
    expect = naive_leftmost(w, 21)
    assert expect is not None and expect <= (60, 60)
    assert _search_fresh(w, 21) == f"{expect} False"


def test_a_long_square_past_the_cutoff_still_takes_the_numpy_scan():
    """The block scan leaves a word whose sampled blocks repeat more than
    _REPEATS times to the hashed scan, which loads numpy: a planted square
    of half-length 300 in 800 symbols repeats 27 of its 11-symbol blocks."""
    w = list(_random_word(4, 500, 5))
    w[400:400] = w[100:400]  # a square (100, 300)
    assert repeats._scan_blocks(bytes(w), 21) is False
    expect = naive_leftmost(w, 21)
    assert expect is not None and expect <= (100, 300)
    assert _search_fresh(w, 21) == f"{expect} True"


def test_a_uniform_word_with_a_repeated_block_is_answered_without_numpy():
    """A uniform word of 2**12 symbols over q = 4 (K = 25, 13-symbol blocks)
    whose sampled blocks hold one repeat: the block scan proves it free of
    long squares by verifying that pair, and loads no numpy."""
    K = derive_params(4, 1 << 12).K
    w = random.Random(108).randbytes(1 << 12).translate(bytes(b % 4 for b in range(256)))
    s, cover = repeats._sparse_cover(K)
    blocks = [w[a : a + s] for x in cover for a in range(x, len(w) - s + 1, s)]
    assert len(blocks) - len(set(blocks)) == 1
    assert scan_by_length_leftmost(list(w), K) is None
    assert _search_fresh(w, K) == "None False"


def test_startup_cost_script_reports_each_word_command():
    """scripts/startup_cost.py with one run of one checkout; its timings
    vary from run to run, so only the modules it names are checked."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "startup_cost.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--runs", "1", "--n", "300", SRC], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    loads = {line.split()[0]: line.split(": loads ")[1].split(";")[0] for line in lines if ": loads " in line}
    assert loads == {
        "encode": "cli codec core repeats",
        "decode": "cli codec core",
        "corrupt": "channel cli core",
        "correct": "cli codec core repeats",
    }
    assert [line.split(":")[0] for line in lines if "median CPU ms over 1 runs" in line] == list(loads)
