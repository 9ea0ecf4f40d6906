"""Hint attribution: grouping stage timings by resolved hint tuple, and
the Chrome-JSON round trip that feeds scripts/obs_dump.py."""

from repro.obs import trace
from repro.obs.attribution import (HintKey, attribution_table,
                                   hint_attribution, payload_class,
                                   spans_from_chrome, _stage_stats)
from repro.obs.timeline import TimelineExporter
from repro.sim.units import KiB


def test_payload_classes():
    assert payload_class(None) == "unknown"
    assert payload_class(0) == "<=256B"
    assert payload_class(256) == "<=256B"
    assert payload_class(257) == "<=4KiB"
    assert payload_class(4 * KiB) == "<=4KiB"
    assert payload_class(64 * KiB) == "<=64KiB"
    assert payload_class(64 * KiB + 1) == ">64KiB"


def test_percentile_is_exact_nearest_rank():
    st = _stage_stats([40.0, 10.0, 30.0, 20.0])
    assert (st.p50, st.p95) == (20.0, 40.0)
    assert _stage_stats([7.0]).p50 == 7.0


def _make_traced_call(col, name, perf_goal, req_bytes, post_dur,
                      with_server=True):
    t = [0.0]

    def now():
        return t[0]

    act = col.start_call(name, "n1", now,
                         attrs={"perf_goal": perf_goal,
                                "req_bytes": req_bytes,
                                "concurrency": 4,
                                "protocol": "direct_writeimm"})
    act.begin_attempt(now())
    act.stage("serialize", 0.0, 0.0, nbytes=req_bytes)
    t[0] += post_dur
    act.stage("post", 0.0, t[0])
    if with_server:
        srv = col.server_call(act.context(), "server", "n0", now)
        srv.stage("handler", t[0], t[0] + 1e-6)
        srv.finish(t[0] + 1e-6)
    act.end_attempt(t[0])
    act.finish(t[0])


def test_grouping_by_hint_tuple_and_server_join():
    col = trace.TraceCollector()
    _make_traced_call(col, "Ping", "latency", 64, 2e-6)
    _make_traced_call(col, "Ping", "latency", 64, 4e-6)
    _make_traced_call(col, "Post", "throughput", 64 * KiB, 10e-6)

    report = hint_attribution(col.spans)
    lat = HintKey("latency", "<=256B", 4, "direct_writeimm")
    tput = HintKey("throughput", "<=64KiB", 4, "direct_writeimm")
    assert set(report) == {lat, tput}

    assert report[lat]["post"].count == 2
    assert report[lat]["post"].p50 == 2e-6
    assert report[lat]["post"].p95 == 4e-6
    assert report[lat]["post"].mean == 3e-6
    # zero-duration stages are kept -- an honest 0.00 row
    assert report[lat]["serialize"].count == 2
    assert report[lat]["serialize"].p95 == 0.0
    # server-side handler stages joined through the shared trace_id
    assert report[lat]["handler"].count == 2
    assert report[tput]["handler"].count == 1


def test_orphan_server_spans_are_skipped():
    col = trace.TraceCollector()
    ctx = trace.SpanContext("ab" * 16, "cd" * 8)
    srv = col.server_call(ctx, "server", "n0", lambda: 0.0)
    srv.stage("handler", 0.0, 1e-6)
    srv.finish(1e-6)
    assert hint_attribution(col.spans) == {}
    assert attribution_table(col.spans) == "(no attributable stage spans)"


def test_attribution_table_prints_tuple_once_per_block():
    col = trace.TraceCollector()
    _make_traced_call(col, "Ping", "latency", 64, 2e-6)
    text = attribution_table(col.spans)
    label = "latency/<=256B/c=4/direct_writeimm"
    assert text.count(label) == 1
    assert "serialize" in text and "post" in text and "handler" in text
    assert "p50(us)" in text and "p95(us)" in text


def test_chrome_roundtrip_preserves_tree_and_attribution():
    col = trace.TraceCollector()
    _make_traced_call(col, "Ping", "latency", 64, 2e-6)

    ex = TimelineExporter()
    ex.add_trace_spans(col.spans)
    doc = ex.to_dict()
    loaded = spans_from_chrome(doc)
    assert len(loaded) == len(col.spans)

    by_id = {s.span_id: s for s in loaded}
    orig_by_id = {s.span_id: s for s in col.spans}
    for sid, span in by_id.items():
        orig = orig_by_id[sid]
        assert span.trace_id == orig.trace_id
        assert span.parent_span_id == orig.parent_span_id
        assert span.kind == orig.kind
        assert span.node == orig.node
        assert abs(span.start - orig.start) < 1e-9
        assert abs(span.duration - orig.duration) < 1e-9

    # the attribution table computed from the file matches the live one
    assert attribution_table(loaded) == attribution_table(col.spans)
    # and the tree renders identically
    assert trace.format_trace(loaded) == trace.format_trace(col.spans)


def test_exporter_gives_each_node_its_own_pid():
    col = trace.TraceCollector()
    _make_traced_call(col, "Ping", "latency", 64, 2e-6)
    ex = TimelineExporter()
    ex.add_trace_spans(col.spans)
    events = ex.to_dict()["traceEvents"]
    names = {ev["args"]["name"]: ev["pid"] for ev in events
             if ev.get("ph") == "M" and ev["name"] == "process_name"}
    assert "node n1" in names and "node n0" in names
    assert names["node n1"] != names["node n0"]
    span_events = [ev for ev in events if ev.get("ph") == "X"]
    assert {ev["pid"] for ev in span_events} == set(names.values())
