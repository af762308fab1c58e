"""Run a module as __main__ in a fresh interpreter, between two reference loops.

    python3 perfbench/cold.py MODULE [ARGS...]

The last stderr line is `reference <before_s> <after_s>`, the reference loop
times in this process, which the benchmark uses to normalise the process's
wall time.  The exit code is the module's.
"""

import runpy
import sys

from speed import reference_loop


def main() -> None:
    before = reference_loop()
    module, sys.argv = sys.argv[1], sys.argv[1:]
    code = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    print(f"reference {before!r} {reference_loop()!r}", file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
