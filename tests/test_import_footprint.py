"""The program's entry points import no graph library.

networkx is a test-only dependency (the topology oracle compares
against it). Importing networkx 3.6 under CPython 3.11 adds about
0.17 s and 18 MiB to a fresh process, so this test fails if any entry
point pulls it back in.
"""

import os
import subprocess
import sys

import repro

_PROBE = """
import sys
import repro
import repro.multihop.runner
import repro.experiments.shootout
import repro.experiments.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "networkx")
assert not loaded, loaded
"""


def test_entry_points_do_not_import_networkx():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
