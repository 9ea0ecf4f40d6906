"""Figure 6: the hint -> RDMA protocol design-space mapping.

Not a timing figure: the table itself is the artifact.  The bench
enumerates the (perf_goal x concurrency x payload) grid, prints the
selected (protocol, polling) cell for each, and asserts the mapping's
Figure 6 structure.
"""

import pytest

from benchmarks.figutil import emit_bench, fmt_rows
from repro.bench import metric
from repro.core.hints import resolve_hints
from repro.core.selector import select_protocol
from repro.sim.units import KiB

GOALS = ["latency", "throughput", "res_util"]
CONCURRENCY = [1, 8, 16, 17, 28, 29, 64, 512]
PAYLOADS = [64, 512, 4 * KiB, 8 * KiB, 48 * KiB, 64 * KiB, 512 * KiB]


def _select(goal, conc, payload):
    hints = resolve_hints({"shared": {"perf_goal": goal,
                                      "concurrency": conc,
                                      "payload_size": payload}}, None,
                          "server")
    return select_protocol(hints)


def _run():
    return {(g, c, p): _select(g, c, p)
            for g in GOALS for c in CONCURRENCY for p in PAYLOADS}


def test_fig06_selector_map(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    for goal in GOALS:
        fmt_rows(
            f"Fig. 6 mapping, perf_goal={goal} (protocol/polling)",
            ["concurrency"] + [f"{p}B" for p in PAYLOADS],
            [[str(c)] + [
                f"{table[(goal, c, p)].protocol}/"
                f"{table[(goal, c, p)].poll_mode.value}"
                for p in PAYLOADS] for c in CONCURRENCY])
    benchmark.extra_info["cells"] = len(table)
    emit_bench("fig06", "selector_map",
               {"cells": metric(len(table), unit="cells"),
                "rfp_cells": metric(
                    sum(1 for ch in table.values() if ch.protocol == "rfp"),
                    unit="cells")},
               config={"goals": GOALS, "concurrency": CONCURRENCY,
                       "payloads": PAYLOADS})

    # Structure of the mapping.
    for c in CONCURRENCY:
        for p in PAYLOADS:
            lat = table[("latency", c, p)]
            assert lat.protocol == "direct_writeimm"
            assert lat.poll_mode.value == "busy"
    # Small-message throughput is always Direct-WriteIMM.
    for c in CONCURRENCY:
        assert table[("throughput", c, 512)].protocol == "direct_writeimm"
    # The RFP switch needs BOTH >16 concurrency and very large payloads.
    assert table[("throughput", 64, 512 * KiB)].protocol == "rfp"
    assert table[("throughput", 8, 512 * KiB)].protocol == "direct_writeimm"
    assert table[("throughput", 64, 8 * KiB)].protocol == "direct_writeimm"
    # res_util converges to eager/rendezvous at scale, event polling.
    assert table[("res_util", 64, 512)].protocol == "eager_sendrecv"
    assert table[("res_util", 64, 64 * KiB)].protocol == "write_rndv"
    assert all(table[("res_util", c, p)].poll_mode.value == "event"
               for c in CONCURRENCY for p in PAYLOADS)
