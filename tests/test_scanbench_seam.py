"""The benchmark's traced pass wraps functions of noether by name
(scanbench/layers.py); a name it wraps or reads that is renamed or deleted
fails every traced pass.  This installs the wrappers in a fresh
interpreter, so they never patch the modules of this test session."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import noether

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import layers
metrics = layers.install().report(0.0)["metrics"]
print(len(metrics))
"""


def test_traced_pass_wrappers_install_and_report():
    src = str(Path(noether.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(ROOT / "scanbench")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
