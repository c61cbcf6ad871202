"""Cold-start guard: the default import path must not load scipy.

Every ``python -m repro`` process pays for what ``import repro.cli``
pulls in.  scipy (via ``scipy.optimize.linprog``) costs more than half
a second and ~40 MB of RSS, and only the covering-LP helpers use it, so
it is imported at those call sites.  Each case runs in a fresh
interpreter, because this test process has usually imported scipy
already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return its ``extra`` dict plus
    the loaded ``scipy`` modules under the ``"scipy"`` key."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    script = (
        f"extra = {{}}\n{code}\n"
        "import json, sys\n"
        "print(json.dumps(dict(extra, scipy=sorted(\n"
        "    k for k in sys.modules if k.split('.')[0] == 'scipy'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "statement",
    [
        "import repro",
        "import repro.cli",
        "from repro.engine import WorkerServer, ping_worker",
    ],
)
def test_default_import_path_does_not_load_scipy(statement):
    assert _run(statement)["scipy"] == []


def test_fractional_optimum_loads_scipy_on_first_call():
    report = _run(
        "import sys\nfrom repro import SetSystem\n"
        "from repro.offline.lp import fractional_optimum\n"
        "extra['before'] = 'scipy' in sys.modules\n"
        "extra['value'], _ = fractional_optimum(\n"
        "    SetSystem(3, [[0, 1], [1, 2], [0, 2]]))\n"
    )
    assert report["before"] is False
    assert report["value"] == pytest.approx(1.5)
    assert "scipy.optimize" in report["scipy"]
