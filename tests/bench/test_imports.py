"""``repro.bench`` sits below the RPC stack: importing it, in a fresh
interpreter, loads no protocol module -- so ``repro.obs`` can import
``repro.bench.stats`` at module level.  Each subpackage also imports first,
on its own, since the ``repro`` package loads its names on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    res = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_import_repro_bench_loads_no_protocol():
    assert _fresh("import sys, repro.bench; print(sorted(m for m in "
                  "sys.modules if m.startswith('repro.protocols')))") == "[]"


@pytest.mark.parametrize("package", ["repro.thrift", "repro.protocols",
                                     "repro.obs", "repro.ycsb"])
def test_subpackage_imports_first(package):
    assert _fresh(f"import {package}; print('ok')") == "ok"
