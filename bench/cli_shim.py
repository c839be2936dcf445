"""Run one dupcode CLI command with the benchmark's span wrappers installed.

Usage: python bench/cli_shim.py SPANS_FILE <dupcode arguments>

The process's spans are written to SPANS_FILE as JSON when the command
ends, however it ends; the exit code is the command's own. The time from
spawn to the start of the `cli.main` span is the process's start-up.
"""

import sys

import tracing

import dupcode.cli


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    tracing.install(rec)
    try:
        return dupcode.cli.main(argv)
    finally:
        rec.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
