"""Smoke test: the quickstart's --trace output feeds scripts/obs_dump.py
cleanly -- the artifact pipeline CI publishes nightly."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def run(cmd, **kw):
    return subprocess.run(
        cmd, cwd=REPO, capture_output=True, text=True, timeout=120, **kw)


def test_quickstart_trace_then_obs_dump_runs_clean(tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.prom"

    qs = run([sys.executable, "examples/quickstart.py",
              "--trace", str(trace_path),
              "--metrics-out", str(metrics_path)])
    assert qs.returncode == 0, qs.stderr
    assert "first trace:" in qs.stdout
    assert "hint attribution" in qs.stdout
    assert trace_path.exists() and metrics_path.exists()

    # the file is well-formed Chrome trace JSON with embedded span ids
    doc = json.loads(trace_path.read_text())
    events = doc["traceEvents"]
    assert any("trace_id" in (ev.get("args") or {}) for ev in events)

    dump = run([sys.executable, "scripts/obs_dump.py", str(trace_path),
                "--metrics", str(metrics_path)])
    assert dump.returncode == 0, dump.stderr
    assert "traces" in dump.stdout
    assert "attempt#0" in dump.stdout          # nested tree rendered
    assert "server" in dump.stdout             # cross-node child present
    assert "hint attribution" in dump.stdout
    assert "hatrpc_" in dump.stdout            # metrics echoed


def test_obs_dump_rejects_garbage_input(tmp_path):
    """Unreadable or wrong-shaped input is a usage error (exit 2 with an
    ``error:`` line), never a traceback."""
    cases = [
        ("trace", "{not json"),
        ("trace", "42"),
        ("trace", '{"traceEvents": 5}'),
        ("trace", '{"traceEvents": [5]}'),
        ("trace", '{"traceEvents": [{"ph": "X", "ts": "x", '
                  '"args": {"trace_id": "t"}}]}'),
        ("series", '{"type":"sample","t":"x"}\n'),
        ("series", '{"type":"sample","t":0,"metrics":{"a":"x"}}\n'),
        ("series", '{"type":"sample","t":0,"tags":5}\n'),
        ("series", '{"type":"event","t":0,"kind":["slo_violation"]}\n'),
    ]
    for i, (mode, text) in enumerate(cases):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(text)
        cmd = [sys.executable, "scripts/obs_dump.py"]
        cmd += [str(bad)] if mode == "trace" else ["--series", str(bad)]
        res = run(cmd)
        assert res.returncode == 2, (text, res.stderr)
        assert res.stderr.startswith("error: "), (text, res.stderr)
