"""numpy is loaded only by the code that computes with it.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded long before these tests run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dupcode

SRC = str(Path(dupcode.__file__).resolve().parent.parent)


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports dupcode from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_dupcode_leaves_numpy_unloaded():
    assert run_fresh("import sys, dupcode; print('numpy' in sys.modules)") == "False"


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
        "print(code, 'numpy' in sys.modules)"
    )
    assert run_fresh(code) == "0 False"


def test_lazy_names_resolve():
    code = (
        "import dupcode, dupcode.analysis, dupcode.windows\n"
        "print(dupcode.WindowIndex is dupcode.windows.WindowIndex,"
        " dupcode.roundtrip_suite is dupcode.analysis.roundtrip_suite)"
    )
    assert run_fresh(code) == "True True"


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
