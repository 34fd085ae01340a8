"""An in-process runner for the command line, shared by the CLI tests."""

from __future__ import annotations

import io
import os
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import pytest


class _Copying(io.BytesIO):
    """A byte stream that also copies every write into `mixed`."""

    def __init__(self, mixed: io.BytesIO) -> None:
        super().__init__()
        self.mixed = mixed

    def write(self, data) -> int:
        self.mixed.write(data)
        return super().write(data)


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # both streams, interleaved as written


class CliRunner:
    """Runs an entry point `main(args=..., prog_name=...)` in process with
    stdout and stderr captured, every LANDAU_* variable unset and `env`
    applied (a None value unsets), and the SystemExit it raises read as the
    exit code."""

    def invoke(
        self,
        main: Callable[..., object],
        args: Sequence[str],
        prog_name: str = "landau",
        env: Mapping[str, str | None] | None = None,
    ) -> Result:
        changes = {name: None for name in os.environ if name.startswith("LANDAU_")}
        changes.update(env or {})
        saved_env = {name: os.environ.get(name) for name in changes}
        saved_streams = sys.stdout, sys.stderr
        mixed = io.BytesIO()
        out, err = _Copying(mixed), _Copying(mixed)
        sys.stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
        sys.stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace",
                                      write_through=True)
        _set_env(changes)
        exit_code = 0
        try:
            main(args=list(args), prog_name=prog_name)
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
        finally:
            for stream in (sys.stdout, sys.stderr):
                stream.flush()
                stream.detach()  # a collected wrapper would close its stream
            sys.stdout, sys.stderr = saved_streams
            _set_env(saved_env)
        return Result(exit_code, _text(out), _text(err), _text(mixed))


def _text(stream: io.BytesIO) -> str:
    return stream.getvalue().decode("utf-8", "replace")


def _set_env(values: Mapping[str, str | None]) -> None:
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()
