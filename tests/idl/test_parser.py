"""Parser tests, including the full Figure 7 hint grammar."""

import pytest

from repro.idl import ParseError, parse
from repro.idl.nodes import TypeRef

ECHO_IDL = """
// The Figure 1 example service.
service Echo {
    hint: perf_goal = latency;
    s_hint: concurrency = 16;
    c_hint: numa_binding = true;

    string Ping(1: string msg),
    void Post(1: binary payload) [
        hint: perf_goal = throughput, payload_size = 128KB;
        s_hint: polling = event;
    ]
    oneway void Deliver(1: i64 token);
}
"""


def test_service_level_hints():
    doc = parse(ECHO_IDL)
    svc = doc.service("Echo")
    assert [g.side for g in svc.hint_groups] == ["shared", "server", "client"]
    shared = svc.hint_groups[0]
    assert shared.hints[0].key == "perf_goal"
    assert shared.hints[0].value == "latency"
    assert svc.hint_groups[1].hints[0].value == 16
    assert svc.hint_groups[2].hints[0].value is True


def test_function_level_hints_and_size_suffix():
    doc = parse(ECHO_IDL)
    post = doc.service("Echo").functions[1]
    assert post.name == "Post"
    groups = {g.side: {h.key: h.value for h in g.hints}
              for g in post.hint_groups}
    assert groups["shared"] == {"perf_goal": "throughput",
                                "payload_size": 128 * 1024}
    assert groups["server"] == {"polling": "event"}


def test_function_shapes():
    doc = parse(ECHO_IDL)
    ping, post, deliver = doc.service("Echo").functions
    assert ping.return_type == TypeRef("string")
    assert ping.args[0].name == "msg" and ping.args[0].fid == 1
    assert post.return_type == TypeRef("void")
    assert deliver.oneway and deliver.return_type == TypeRef("void")
    assert deliver.args[0].type == TypeRef("i64")


def test_struct_enum_const_typedef():
    doc = parse("""
    typedef i64 Timestamp
    const i32 MAX_RETRIES = 5
    const string GREETING = "hi"
    const list<i32> FIBS = [1, 1, 2, 3, 5]
    const map<string, i32> AGES = {"bob": 30, "eve": 25}

    enum Color { RED, GREEN = 5, BLUE }

    struct Point {
        1: required double x,
        2: required double y,
        3: optional string label = "origin",
    }

    exception NotFound {
        1: string key,
    }
    """)
    assert doc.typedefs[0].name == "Timestamp"
    assert doc.typedefs[0].type == TypeRef("i64")
    consts = {c.name: c.value for c in doc.consts}
    assert consts == {"MAX_RETRIES": 5, "GREETING": "hi",
                      "FIBS": [1, 1, 2, 3, 5],
                      "AGES": {"bob": 30, "eve": 25}}
    assert doc.enums[0].members == [("RED", 0), ("GREEN", 5), ("BLUE", 6)]
    pt = doc.struct("Point")
    assert pt.fields[0].required == "required"
    assert pt.fields[2].default == "origin"
    assert doc.struct("NotFound").kind == "exception"


def test_nested_container_types():
    doc = parse("""
    struct Deep {
        1: map<string, list<map<i32, set<string>>>> payload,
    }
    """)
    t = doc.struct("Deep").fields[0].type
    assert t.name == "map"
    assert t.args[1].name == "list"
    assert t.args[1].args[0].name == "map"
    assert t.args[1].args[0].args[1] == TypeRef("set", (TypeRef("string"),))


def test_service_extends_and_throws():
    doc = parse("""
    exception Oops { 1: string why }
    service Base { void ping() }
    service Derived extends Base {
        i32 risky(1: i32 x) throws (1: Oops ouch),
    }
    """)
    derived = doc.service("Derived")
    assert derived.extends == "Base"
    assert derived.functions[0].throws[0].type == TypeRef("Oops")


def test_namespaces_and_includes():
    doc = parse("""
    include "shared.thrift"
    namespace py hat.gen
    namespace cpp hat
    """)
    assert doc.includes == ["shared.thrift"]
    assert doc.namespaces == {"py": "hat.gen", "cpp": "hat"}


def test_hints_must_precede_functions():
    """Fig. 7: service body is HintGroup* Function* -- hints after a
    function are a parse error."""
    with pytest.raises(ParseError):
        parse("""
        service Bad {
            void f(),
            hint: perf_goal = latency;
        }
        """)


def test_hint_list_comma_separated_semicolon_terminated():
    doc = parse("""
    service S {
        hint: perf_goal = throughput, concurrency = 32, payload_size = 512;
        void f(),
    }
    """)
    hints = doc.service("S").hint_groups[0].hints
    assert [h.key for h in hints] == ["perf_goal", "concurrency",
                                      "payload_size"]


def test_missing_semicolon_after_hint_list():
    with pytest.raises(ParseError):
        parse("service S { hint: perf_goal = latency void f() }")


def test_plain_thrift_file_still_parses():
    """HatRPC is fully backward compatible with hint-free Thrift IDL."""
    doc = parse("""
    struct Req { 1: string q }
    service Search {
        list<string> query(1: Req req),
        void warmup(),
    }
    """)
    assert len(doc.service("Search").functions) == 2
    assert doc.service("Search").hint_groups == []


def test_error_reports_location():
    with pytest.raises(ParseError, match=r"<idl>:3:\d+"):
        parse("\n\nstruct {")


# -- parameterized hints (the cacheable extension) ----------------------------

CACHED_IDL = """
service KV {
    hint: perf_goal = latency;

    binary Get(1: binary key) [
        hint: cacheable(ttl = 200us);
    ]
    void Put(1: binary key, 2: binary value)
}
"""


def test_parameterized_hint_parses_to_dict():
    doc = parse(CACHED_IDL)
    get = doc.service("KV").functions[0]
    hint = get.hint_groups[0].hints[0]
    assert hint.key == "cacheable"
    assert hint.value == {"ttl": pytest.approx(200e-6)}


def test_time_unit_suffixes():
    idl = """
    service S {
        void F() [ hint: cacheable(ttl = 2ms); ]
        void G() [ hint: cacheable(ttl = 0.5s); ]
        void H() [ hint: cacheable(ttl = 750ns); ]
    }
    """
    fns = parse(idl).service("S").functions
    ttls = [fn.hint_groups[0].hints[0].value["ttl"] for fn in fns]
    assert ttls == [pytest.approx(2e-3), pytest.approx(0.5),
                    pytest.approx(750e-9)]


def test_parameterized_hint_allows_trailing_comma():
    idl = "service S { void F() [ hint: cacheable(ttl = 1ms,); ] }"
    hint = parse(idl).service("S").functions[0].hint_groups[0].hints[0]
    assert hint.value == {"ttl": pytest.approx(1e-3)}


def test_parameterized_hint_rejects_missing_equals():
    with pytest.raises(ParseError):
        parse("service S { void F() [ hint: cacheable(ttl 1ms); ] }")


def test_parameterized_hint_mixes_with_plain_hints():
    idl = """
    service S {
        void F() [ hint: payload_size = 1KB, cacheable(ttl = 1ms); ]
    }
    """
    hints = {h.key: h.value
             for h in parse(idl).service("S").functions[0]
             .hint_groups[0].hints}
    assert hints["payload_size"] == 1024
    assert hints["cacheable"]["ttl"] == pytest.approx(1e-3)
