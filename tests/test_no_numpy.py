"""``repro`` has no runtime dependency: every subpackage imports, and a
Fig. 17 query runs, with numpy unimportable."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None          # any `import numpy` now raises
import repro
names = [i.name for i in pkgutil.walk_packages(repro.__path__, "repro.")
         if i.name.rsplit(".", 1)[-1] != "__main__"]
for name in names:
    importlib.import_module(name)
from repro.tpch import DistributedTpch
r = DistributedTpch().start().run_query(1)
assert r.elapsed > 0 and r.exchange_bytes > 0
print(len(names))
"""


def test_repro_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    res = subprocess.run([sys.executable, "-c", SCRIPT], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) > 50
