"""Pass T's self-time rule and pass P's bucketing, on hand-made inputs."""

from dataclasses import dataclass

import pytest

from perfbench.passes import bucket_profile, stage_self_times


@dataclass
class Span:
    span_id: str
    parent_span_id: str
    name: str
    kind: str
    start: float
    end: float
    trace_id: str = "t"


def test_self_time_on_a_nested_tree_is_span_minus_children():
    spans = [
        Span("r", "", "Get", "client", 0.0, 10.0),
        Span("a", "r", "outer", "stage", 1.0, 9.0),
        Span("b", "a", "inner", "stage", 2.0, 5.0),
        Span("c", "b", "leaf", "stage", 3.0, 4.0),
        Span("d", "a", "inner", "stage", 6.0, 7.0),
    ]
    assert stage_self_times(spans) == pytest.approx(
        {"outer": 8 - 3 - 1, "inner": (3 - 1) + 1, "leaf": 1})


def test_self_time_reads_nesting_off_the_clock():
    # The program's shape: siblings by parent link, nested in time; the
    # server's poll began before the call and the reply's ACK ends after.
    spans = [
        Span("r", "", "Get", "client", 10.0, 20.0),
        Span("p", "r", "post", "stage", 10.0, 11.0),
        Span("w", "r", "cq_wait", "stage", 11.0, 19.5),
        Span("c", "r", "complete", "stage", 11.0, 20.0),
        Span("n1", "r", "network", "stage", 11.0, 14.0),
        Span("s", "r", "server", "server", 0.0, 17.0),
        Span("q", "s", "poll", "stage", 0.0, 15.0),
        Span("h", "s", "handler", "stage", 15.0, 16.0),
        Span("y", "s", "reply", "stage", 16.0, 17.0),
        Span("n2", "s", "network", "stage", 17.0, 21.0),
        # a second trace whose root is another op leaves the first alone
        Span("r2", "", "Put", "client", 0.0, 5.0, trace_id="u"),
        Span("x", "r2", "post", "stage", 0.0, 5.0, trace_id="u"),
    ]
    only_get = [s for s in spans if s.trace_id == "t"]
    got = stage_self_times(only_get)
    assert got == pytest.approx({
        "post": 1.0,
        "network": 3.0 + 3.0,       # request flight, then reply up to the end
        "poll": 1.0,                # 14..15: waited on the server, not a wire
        "handler": 1.0,
        "reply": 1.0,
    })
    assert sum(got.values()) == pytest.approx(10.0)     # nothing counted twice
    assert stage_self_times(spans)["post"] == pytest.approx(1.0 + 5.0)


def test_waiting_stage_owns_only_what_no_working_stage_covers():
    spans = [
        Span("r", "", "Echo", "client", 0.0, 10.0),
        Span("w", "r", "cq_wait", "stage", 0.0, 9.0),
        Span("n", "r", "network", "stage", 0.0, 6.0),
    ]
    assert stage_self_times(spans) == pytest.approx(
        {"network": 6.0, "cq_wait": 3.0})


def test_profile_buckets_credit_builtins_to_their_callers():
    core = ("/x/src/repro/sim/core.py", 10, "step")
    qp = ("/x/src/repro/verbs/qp.py", 20, "post")
    top = ("/x/src/repro/testbed.py", 5, "run")
    gen = ("kv_gen_1.py", 3, "write")
    drv = ("/x/perfbench/workloads.py", 7, "_client")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    pack = ("/usr/lib/python3/struct.py", 1, "pack")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    inner = ("~", 0, "<built-in method builtins.len>")
    stats = {
        core: (5, 5, 2.0, 9.0, {}),
        qp: (3, 3, 1.0, 2.0, {core: (3, 3, 1.0, 2.0)}),
        top: (1, 1, 0.25, 9.0, {}),
        gen: (4, 4, 0.5, 0.5, {qp: (4, 4, 0.5, 0.5)}),
        drv: (1, 1, 0.125, 9.0, {}),
        # 0.75 s of heappop: 0.5 called from sim, 0.25 from verbs
        heappop: (8, 8, 0.75, 0.75, {core: (6, 6, 0.5, 0.5),
                                     qp: (2, 2, 0.25, 0.25)}),
        pack: (2, 2, 0.25, 0.3, {gen: (2, 2, 0.25, 0.3)}),
        orphan: (1, 1, 0.0625, 0.0625, {}),
        inner: (2, 2, 0.03125, 0.03125, {pack: (2, 2, 0.03125, 0.03125)}),
    }
    assert bucket_profile(stats, generated="kv_gen_1.py") == pytest.approx({
        "sim": 2.0 + 0.5,
        "verbs": 1.0 + 0.25,
        "repro": 0.25,              # a module directly under repro/
        "idl": 0.5 + 0.25,          # generated code, and what it calls
        "perfbench": 0.125,
        "other": 0.0625 + 0.03125,  # no caller, or a foreign caller
    })
