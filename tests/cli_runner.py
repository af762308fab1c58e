"""Run the command line in this process and keep what it wrote.

`run(args)` runs `delpezzo ARGS...` through `delpezzo.cli.main` and returns
its exit code, its stdout and stderr, and the exception that ended it.
"""

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Optional

from delpezzo.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str
    # the SystemExit of a non-zero exit, or what the command raised (exit 1)
    exception: Optional[BaseException]

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def _set_environment(values):
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def run(args, env=None) -> Result:
    """Run `delpezzo ARGS...`; `env` sets variables for the run, None unsets one."""
    env = env or {}
    saved = {name: os.environ.get(name) for name in env}
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    _set_environment(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(list(args))
    except SystemExit as exc:
        code = exc.code or 0
        exception = exc if code else None
    except Exception as exc:  # a raw traceback, which no expected exit is
        code, exception = 1, exc
    finally:
        _set_environment(saved)
    return Result(code, out.getvalue(), err.getvalue(), exception)
