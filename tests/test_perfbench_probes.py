"""The benchmark's traced run must find every layer probe it installs.

``perfbench/traced.py`` wraps named functions and methods of the program
and lists any it cannot find under ``missing`` instead of failing, so a
refactor that renames or moves a probed entry point would silently drop
that layer from the per-layer numbers.  The patches rebind module
globals, so they are installed in a child interpreter, never in the
test process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
from traced import Recorder, install
recorder = Recorder()
install(recorder)
print(json.dumps(recorder.missing))
"""


def test_every_trace_probe_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    child = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == []
