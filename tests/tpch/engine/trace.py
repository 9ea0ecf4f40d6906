"""Record the per-query trace that ``repro.tpch`` replays for Fig. 17.

For each key ``(sf, seed, n_workers)`` the engine generates the database,
stripes ``orders``/``lineitem`` by orderkey over the workers (the other
tables are replicated), and runs every query's fragment on every stripe.
Per query it keeps:

* ``rows``: the rows each worker's fragment touches;
* ``partial_len``: the bytes of each worker's serialized partial;
* ``final_rows``: the merged partial rows plus the rows of the tables the
  coordinator's final stage touches.

Run from the repository root (the file names this command):

    PYTHONPATH=src python -m tests.tpch.engine.trace > src/repro/tpch/fig17_trace.json
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from .datagen import generate
from .fragments import PLANS
from .ser import deserialize_table, serialize_table
from .table import Table

# Fig. 17 at smoke and full scale, and a 2-worker key whose Q20 partials
# span two 64 KiB chunks.
KEYS = ((0.005, 1, 9), (0.01, 1, 9), (0.02, 2, 2))
RECORDED_AT = "39583a86246b1ca677a75175d21834ba1fe17714"
COMMAND = ("PYTHONPATH=src python -m tests.tpch.engine.trace"
           " > src/repro/tpch/fig17_trace.json")


def partition(db: Dict[str, Table], n_workers: int) -> List[Dict[str, Table]]:
    """Stripe orders+lineitem by orderkey; replicate the dimensions."""
    o, li = db["orders"], db["lineitem"]
    o_stripe = o["o_orderkey"] % n_workers
    l_stripe = li["l_orderkey"] % n_workers
    dims = {t: db[t] for t in ("region", "nation", "supplier", "customer",
                               "part", "partsupp")}
    parts = []
    for w in range(n_workers):
        part = dict(dims)
        part["orders"] = o.filter(o_stripe == w)
        part["lineitem"] = li.filter(l_stripe == w)
        parts.append(part)
    return parts


def concat(tables: List[Table]) -> Table:
    """The coordinator's merge of the workers' partials."""
    tables = [t for t in tables if len(t.names) > 0]
    non_empty = [t for t in tables if len(t) > 0]
    if not non_empty:
        return tables[0] if tables else Table({})
    out = non_empty[0]
    for t in non_empty[1:]:
        out = out.concat(t)
    return out


def record(sf: float, seed: int, n_workers: int) -> Dict[int, dict]:
    """``{query: {"final_rows", "rows", "partial_len"}}`` for one key."""
    db = generate(sf=sf, seed=seed)
    parts = partition(db, n_workers)
    out = {}
    for q in sorted(PLANS):
        plan = PLANS[q]
        rows = [sum(len(p[t]) for t in plan.touches) for p in parts]
        data = [serialize_table(plan.fragment(p)) for p in parts]
        merged = concat([deserialize_table(d) for d in data])
        final_rows = len(merged) + sum(len(db[t]) for t in plan.final_touches)
        out[q] = {"final_rows": final_rows, "rows": rows,
                  "partial_len": [len(d) for d in data]}
    return out


def render() -> str:
    """The trace file's text: one key per block, one query per line."""
    lines = [f'{{"recorded_at": "{RECORDED_AT}",',
             f' "command": "{COMMAND}",',
             ' "keys": [']
    for i, (sf, seed, n_workers) in enumerate(KEYS):
        lines.append(f'  {{"sf": {sf}, "seed": {seed}, '
                     f'"n_workers": {n_workers}, "queries": {{')
        queries = record(sf, seed, n_workers)
        lines += [f'   "{q}": {json.dumps(v)},' for q, v in queries.items()]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  }}" + ("," if i < len(KEYS) - 1 else ""))
    lines.append(" ]}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(render())
