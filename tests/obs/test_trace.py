"""Unit tests for the distributed-trace core: the context's wire field,
span-tree mechanics, head sampling, and the install contract."""

import pytest

from repro import frame
from repro.obs import trace


def collector(**kw):
    return trace.TraceCollector(**kw)


def fixed_clock(t=0.0):
    state = {"now": t}

    def now():
        return state["now"]

    now.advance = lambda dt: state.__setitem__("now", state["now"] + dt)
    return now


# -- the context on the wire (the format itself: tests/test_frame.py) --------

def test_envelope_roundtrip():
    ctx = trace.SpanContext("ab" * 16, "cd" * 8, sampled=True)
    data = frame.pack(trace=ctx) + b"payload"
    header, rest = frame.split(data)
    assert header.trace == ctx
    assert rest == b"payload"


def test_envelope_size_is_constant():
    ctx = trace.SpanContext("0" * 32, "0" * 16, sampled=False)
    assert len(frame.pack(trace=ctx)) == 30


def test_unenveloped_bytes_pass_through_identically():
    for payload in (b"", b"\x80\x01\x00\x01plain thrift", b"\xc4H\x01",
                    b"\xc4" + b"x" * 40):
        header, rest = frame.split(payload)
        assert header.trace is None
        assert rest == payload


def test_unknown_envelope_version_passes_through():
    ctx = trace.SpanContext("ab" * 16, "cd" * 8)
    data = bytearray(frame.pack(trace=ctx))
    data[4] = 99                                # the context's version byte
    header, rest = frame.split(bytes(data))
    assert header.trace is None
    assert rest == bytes(data)


# -- client call lifecycle ---------------------------------------------------

def test_attempts_are_siblings_under_the_root():
    col = collector()
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    act.begin_attempt(now())
    now.advance(1e-6)
    act.end_attempt(now(), status="error", error="QPError")
    act.begin_attempt(now())
    now.advance(1e-6)
    act.end_attempt(now())
    act.finish(now())

    spans = {s.name: s for s in col.spans}
    root = spans["Get"]
    assert root.parent_span_id == ""
    a0, a1 = spans["attempt#0"], spans["attempt#1"]
    assert a0.parent_span_id == root.span_id
    assert a1.parent_span_id == root.span_id
    assert a0.status == "error" and a0.attrs["error"] == "QPError"
    assert a1.status == "ok"


def test_stages_nest_under_the_open_attempt():
    col = collector()
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    act.begin_attempt(now())
    act.stage("post", now(), now(), nbytes=10)
    act.end_attempt(now())
    act.finish(now())
    spans = {s.name: s for s in col.spans}
    assert spans["post"].parent_span_id == spans["attempt#0"].span_id


def test_fault_event_after_end_attempt_is_root_level():
    col = collector()
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    act.begin_attempt(now())
    act.end_attempt(now(), status="error")
    act.event("retry", now())
    act.finish(now(), status="error")
    spans = {s.name: s for s in col.spans}
    assert spans["retry"].parent_span_id == spans["Get"].span_id
    assert spans["retry"].kind == "event"


def test_annotate_enriches_the_innermost_open_stage():
    col = collector()
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    act.open_stage("handler", now())
    act.annotate(op="get", key_bytes=3)
    act.close_stage(now())
    act.finish(now())
    spans = {s.name: s for s in col.spans}
    assert spans["handler"].attrs == {"op": "get", "key_bytes": 3}


def test_annotate_falls_back_to_the_root_span():
    col = collector()
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    act.annotate(resp_bytes=7)
    act.finish(now())
    root = next(s for s in col.spans if s.name == "Get")
    assert root.attrs["resp_bytes"] == 7


def test_late_span_after_finish_commits_directly():
    # A detached NIC process may record its network stage after the RPC
    # returned; the span must still land in the committed trace.
    col = collector()
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    act.finish(now())
    before = len(col.spans)
    act.stage("network", now(), now())
    assert len(col.spans) == before + 1


def test_late_span_on_a_dropped_call_is_dropped():
    col = collector(sample_rate=0.0)
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    act.finish(now())
    assert col.spans == []
    act.stage("network", now(), now())
    assert col.spans == []


# -- context emission policy -------------------------------------------------

def test_no_envelope_when_unsampled_and_unfaulted():
    col = collector(sample_rate=0.0)
    act = col.start_call("Get", "n1", fixed_clock())
    assert act.context() is None
    assert frame.pack(trace=act.context()) == b""


def test_envelope_appears_once_the_call_faults():
    col = collector(sample_rate=0.0)
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    assert act.context() is None
    act.event("timeout", now())                # marks the call faulted
    act.begin_attempt(now())
    header, rest = frame.split(frame.pack(trace=act.context()) + b"x")
    ctx = header.trace
    assert ctx is not None and rest == b"x"
    assert ctx.trace_id == act.trace_id


def test_envelope_carries_the_open_attempt_span_id():
    col = collector()
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    act.begin_attempt(now())
    ctx = frame.split(frame.pack(trace=act.context()))[0].trace
    assert ctx.span_id == act._attempt.span_id
    assert ctx.span_id != act.root_span_id


# -- sampling ----------------------------------------------------------------

def test_faulted_call_commits_even_at_sample_rate_zero():
    col = collector(sample_rate=0.0)
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    act.event("retry", now())
    act.finish(now())
    assert col.committed_calls == 1
    assert any(s.name == "retry" for s in col.spans)


def test_sampling_is_seed_deterministic():
    def run(seed):
        col = collector(sample_rate=0.5, seed=seed)
        now = fixed_clock()
        kept = []
        for i in range(50):
            act = col.start_call(f"c{i}", "n1", now)
            act.finish(now())
            kept.append(act.sampled)
        return kept

    assert run(7) == run(7)
    assert run(7) != run(8)                    # vanishing-probability flake
    k = run(7)
    assert 0 < sum(k) < len(k)                 # both outcomes occur


def test_sample_rate_bounds_validated():
    with pytest.raises(ValueError):
        collector(sample_rate=1.5)
    with pytest.raises(ValueError):
        collector(sample_rate=-0.1)


def test_ids_are_deterministic_across_runs():
    def ids():
        col = collector(seed=3)
        act = col.start_call("Get", "n1", fixed_clock())
        act.finish(0.0)
        return [(s.trace_id, s.span_id) for s in col.spans]

    assert ids() == ids()


# -- server calls ------------------------------------------------------------

def test_server_call_parents_to_the_wire_context():
    col = collector()
    now = fixed_clock()
    ctx = trace.SpanContext("ab" * 16, "cd" * 8)
    srv = col.server_call(ctx, "server", "n0", now)
    srv.stage("poll", now(), now())
    srv.finish(now())
    root = next(s for s in col.spans if s.name == "server")
    assert root.trace_id == ctx.trace_id
    assert root.parent_span_id == ctx.span_id
    assert root.kind == "server"


# -- trees / rendering -------------------------------------------------------

def test_build_trees_orphan_parent_becomes_root():
    col = collector()
    now = fixed_clock()
    ctx = trace.SpanContext("ab" * 16, "cd" * 8)  # client side never kept
    srv = col.server_call(ctx, "server", "n0", now)
    srv.finish(now())
    roots, children = trace.build_trees(col.spans)
    assert [r.name for r in roots] == ["server"]


def test_format_trace_renders_nested_tree():
    col = collector()
    now = fixed_clock()
    act = col.start_call("Get", "n1", now)
    act.begin_attempt(now())
    act.stage("post", now(), now())
    act.end_attempt(now())
    act.finish(now())
    text = trace.format_trace(col.spans)
    assert "Get" in text and "attempt#0" in text and "post" in text
    # the stage is indented under the attempt
    post_line = next(ln for ln in text.splitlines() if "post" in ln)
    attempt_line = next(ln for ln in text.splitlines()
                        if "attempt#0" in ln)
    assert post_line.index("post") > attempt_line.index("attempt#0")
    assert trace.format_trace([]) == "(empty trace)"


# -- install contract --------------------------------------------------------

def test_install_uninstall_current():
    assert trace.current() is None
    col = trace.install(sample_rate=0.25)
    try:
        assert trace.current() is col
        assert col.sample_rate == 0.25
    finally:
        trace.uninstall()
    assert trace.current() is None


def test_installed_context_manager():
    with trace.installed() as col:
        assert trace.current() is col
    assert trace.current() is None
