"""Run a snippet in a fresh `python -O` interpreter, where assert is gone.

A check that decides a result must still fire there; the snippet runs with
the package under test importable and exits 3 if the interpreter was not
actually optimizing.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import noether

_PRELUDE = "import sys\nif not sys.flags.optimize:\n    sys.exit(3)\n"


def run_optimized(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(noether.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-O", "-c", _PRELUDE + script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
