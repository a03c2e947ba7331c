"""The program's entry points import neither a graph library nor the
``repro analyze`` tables.

networkx is a test-only dependency (the topology oracle compares
against it). Importing networkx 3.6 under CPython 3.11 adds about
0.17 s and 18 MiB to a fresh process, so a test fails if any entry
point pulls it back in. ``repro.analysis.cli`` is loaded only by
``repro analyze``; the simulation entry points that the benchmark times
must not load it.
"""

import os
import subprocess
import sys

import repro

_IMPORTS = """
import sys
import repro
import repro.multihop.runner
import repro.experiments.shootout
"""


def _run_probe(code: str) -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_entry_points_do_not_import_networkx():
    _run_probe(_IMPORTS + """
import repro.experiments.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "networkx")
assert not loaded, loaded
""")


def test_entry_points_do_not_import_the_analyze_cli():
    _run_probe(_IMPORTS + """
assert "repro.analysis.cli" not in sys.modules
""")
