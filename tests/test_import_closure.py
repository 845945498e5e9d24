"""The walk, the oracle and the campaign load no HTTP code.

``repro.obs``, ``repro.fuzz`` and the fuzz corpus load their HTTP-facing
parts (the stats server, the distributed coordinator and worker, the
``repro.api`` ingest layer) only on first use, so a process that only
walks or fuzzes never imports them.  Each check runs in a fresh
interpreter on this checkout's ``src``: the test process itself has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FORBIDDEN = (
    "repro.api",
    "repro.httpd",
    "repro.obs.server",
    "repro.fuzz.dist",
    "http.server",
    "http.client",
    "urllib.request",
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "module", ["repro.bpf.verifier", "repro.fuzz.oracle", "repro.fuzz.campaign"]
)
def test_no_http_code_is_loaded(module):
    code = (
        "import json, sys\n"
        f"import {module}\n"
        f"forbidden = {FORBIDDEN!r}\n"
        "print(json.dumps(sorted(\n"
        "    m for m in sys.modules\n"
        "    if any(m == f or m.startswith(f + '.') for f in forbidden)\n"
        ")))\n"
    )
    assert json.loads(run_fresh(code)) == []


def test_lazy_names_still_resolve():
    code = (
        "import repro.fuzz, repro.obs\n"
        "from repro.fuzz import Coordinator, CoordinatorConfig, run_worker\n"
        "from repro.fuzz import dist\n"
        "from repro.obs import StatsServer, server\n"
        "assert StatsServer is server.StatsServer\n"
        "assert Coordinator is dist.Coordinator\n"
        "assert CoordinatorConfig is dist.CoordinatorConfig\n"
        "assert run_worker is dist.run_worker\n"
        "for package in (repro.fuzz, repro.obs):\n"
        "    names = {}\n"
        "    exec(f'from {package.__name__} import *', names)\n"
        "    missing = set(package.__all__) - set(names)\n"
        "    assert not missing, (package.__name__, missing)\n"
        "print('ok')\n"
    )
    assert run_fresh(code) == "ok\n"


def test_unknown_names_still_raise():
    import repro.fuzz
    import repro.obs

    for package in (repro.fuzz, repro.obs):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
