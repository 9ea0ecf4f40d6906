"""Machine-readable benchmark records: the ``BENCH_<tag>.json`` pipeline.

Every figure benchmark emits one :class:`BenchRecord` -- figure id, scale,
a hash of its configuration, and a flat dict of named metrics -- into the
process-wide :data:`SINK`.  ``scripts/run_all_figures.py`` (and, via an
atexit hook, a plain pytest run of ``benchmarks/``) flushes the sink to a
single JSON file that ``scripts/check_bench_regression.py`` compares with
the committed baseline, value for value.

Schema (``SCHEMA_VERSION`` guards compatibility)::

    {
      "schema": 1,
      "scale": "small",
      "records": [
        {
          "figure": "fig04",
          "name": "protocol_latency",
          "scale": "small",
          "config": {...},                # the parameter grid that ran
          "config_hash": "9f3a...",       # sha256 of canonical config JSON
          "metrics": {
            "latency_us.busy.direct_writeimm.512":
                {"value": 3.21, "unit": "us"},
            ...
          },
          "meta": {...}                   # free-form (not compared)
        }, ...
      ]
    }

A cell written before directions were dropped may still carry a
``"better"`` key; it is loaded and ignored.

Scale: :func:`bench_scale` is the one reader of ``REPRO_BENCH_SCALE``
(default ``small``).  Output path resolution: ``REPRO_BENCH_OUT`` env var
if set, else ``BENCH_<scale>.json`` in the current directory.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "SINK",
    "BenchRecord",
    "BenchSink",
    "bench_scale",
    "config_hash",
    "default_bench_path",
    "load_bench",
    "metric",
    "write_bench",
]

SCHEMA_VERSION = 1


def metric(value: float, unit: str = "") -> Dict[str, Any]:
    """One metric cell."""
    return {"value": float(value), "unit": unit}


def bench_scale() -> str:
    """The figure grid to run: ``REPRO_BENCH_SCALE``, default ``small``."""
    return os.environ.get("REPRO_BENCH_SCALE", "small")


def config_hash(config: Dict[str, Any]) -> str:
    """Stable short hash of a JSON-serializable config dict."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"),
                       default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class BenchRecord:
    """One benchmark's machine-readable result."""

    figure: str                       # e.g. "fig04"
    name: str                         # e.g. "protocol_latency"
    scale: str                        # REPRO_BENCH_SCALE at run time
    config: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.figure, self.name, self.scale)

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "figure": self.figure,
            "name": self.name,
            "scale": self.scale,
            "config": self.config,
            "config_hash": self.config_hash,
            "metrics": self.metrics,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "BenchRecord":
        for req in ("figure", "name", "scale", "metrics"):
            if req not in d:
                raise ValueError(f"bench record missing field {req!r}")
        if not isinstance(d["metrics"], dict):
            raise ValueError("bench record field 'metrics' is not an object")
        for mname, m in d["metrics"].items():
            if not isinstance(m, dict):
                raise ValueError(f"metric {mname!r} is not an object")
            value = m.get("value")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"metric {mname!r} has no value that is "
                                 f"a number: {value!r}")
        return cls(figure=d["figure"], name=d["name"], scale=d["scale"],
                   config=d.get("config", {}), metrics=d["metrics"],
                   meta=d.get("meta", {}))


def default_bench_path() -> str:
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        return out
    return f"BENCH_{bench_scale()}.json"


def write_bench(records: List[BenchRecord], path: Optional[str] = None
                ) -> str:
    """Write one BENCH_*.json; returns the path written."""
    path = path or default_bench_path()
    scales = sorted({r.scale for r in records})
    doc = {
        "schema": SCHEMA_VERSION,
        "scale": scales[0] if len(scales) == 1 else scales,
        "records": [r.to_dict() for r in records],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def load_bench(path: str) -> List[BenchRecord]:
    """Load and validate one BENCH_*.json."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "records" not in doc:
        raise ValueError(f"{path}: not a BENCH file (no 'records')")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema {schema!r} != supported {SCHEMA_VERSION}")
    return [BenchRecord.from_dict(d) for d in doc["records"]]


class BenchSink:
    """Process-wide accumulator the benchmarks emit into."""

    def __init__(self) -> None:
        self.records: List[BenchRecord] = []
        self._flushed = False

    def add(self, record: BenchRecord) -> None:
        # Replace a same-key record (a re-run of the same figure in one
        # process) instead of duplicating it.
        self.records = [r for r in self.records if r.key != record.key]
        self.records.append(record)
        self._flushed = False

    def flush(self, path: Optional[str] = None) -> Optional[str]:
        """Write accumulated records (no-op when empty); returns path."""
        if not self.records:
            return None
        path = write_bench(self.records, path)
        self._flushed = True
        return path

    def clear(self) -> None:
        self.records = []
        self._flushed = True

    def _atexit_flush(self) -> None:
        # A pytest run of benchmarks/ emits records but never calls
        # flush(); write them on exit so `BENCH_*.json` always appears.
        if self.records and not self._flushed:
            try:
                path = self.flush()
                print(f"[repro.bench] wrote {path} "
                      f"({len(self.records)} records)")
            except OSError:  # pragma: no cover - best-effort at exit
                pass


SINK = BenchSink()
atexit.register(SINK._atexit_flush)
