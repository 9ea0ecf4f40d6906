"""Code generator tests: generated modules must be importable and correct."""

import re

import pytest

from repro.idl import compile_idl, load_idl
from repro.idl.validator import HintValidationError
from repro.thrift import TBinaryProtocol, TMemoryBuffer

KV_IDL = """
enum Status { OK = 0, MISSING = 1 }

const i32 DEFAULT_TTL = 300

typedef binary Blob

exception KVError {
    1: string message,
    2: i32 code,
}

struct Entry {
    1: required string key,
    2: optional Blob value,
    3: optional map<string, string> tags,
    4: optional list<i64> versions,
    5: optional Status status = 0,
}

service KVStore {
    hint: perf_goal = throughput, concurrency = 64;

    Entry Get(1: string key) throws (1: KVError notfound) [
        hint: payload_size = 1KB;
    ]
    void Put(1: Entry entry),
    map<string, Entry> MultiGet(1: list<string> keys) [
        hint: payload_size = 16KB;
        c_hint: numa_binding = true;
    ]
    oneway void Touch(1: string key),
}
"""


@pytest.fixture(scope="module")
def gen():
    return load_idl(KV_IDL, "kv_gen")


def test_module_has_expected_symbols(gen):
    for sym in ["Status", "DEFAULT_TTL", "KVError", "Entry",
                "KVStoreIface", "KVStoreClient", "KVStoreProcessor",
                "Get_args", "Get_result", "Put_args", "Put_result",
                "MultiGet_args", "MultiGet_result", "Touch_args",
                "SERVICE_HINTS", "SERVICE_FUNCTIONS", "SERVICE_ONEWAY"]:
        assert hasattr(gen, sym), sym


def test_enum_and_const(gen):
    assert gen.Status.OK == 0
    assert gen.Status.MISSING == 1
    assert gen.Status._VALUES_TO_NAMES[1] == "MISSING"
    assert gen.DEFAULT_TTL == 300


def test_struct_roundtrip_binary(gen):
    entry = gen.Entry(key="k1", value=b"\x01\x02", tags={"a": "b"},
                      versions=[1, 2, 3], status=gen.Status.MISSING)
    buf = TMemoryBuffer()
    entry.write(TBinaryProtocol(buf))
    out = gen.Entry()
    out.read(TBinaryProtocol(TMemoryBuffer(buf.getvalue())))
    assert out == entry


def test_struct_skips_unknown_fields(gen):
    """An Entry writer vs a reader struct lacking some fields."""
    slim = load_idl("""
    struct Entry { 1: required string key }
    """, "slim_gen")
    entry = gen.Entry(key="k", value=b"v" * 100, versions=[9])
    buf = TMemoryBuffer()
    entry.write(TBinaryProtocol(buf))
    out = slim.Entry()
    out.read(TBinaryProtocol(TMemoryBuffer(buf.getvalue())))
    assert out.key == "k"


def test_required_field_enforced_on_write(gen):
    from repro.thrift import TProtocolException
    entry = gen.Entry(key=None)
    with pytest.raises(TProtocolException, match="required"):
        entry.write(TBinaryProtocol(TMemoryBuffer()))


def test_exception_is_raisable(gen):
    with pytest.raises(gen.KVError):
        raise gen.KVError(message="gone", code=404)


def test_service_hints_map(gen):
    hints = gen.SERVICE_HINTS["KVStore"]
    assert hints["service"]["shared"] == {"perf_goal": "throughput",
                                          "concurrency": 64}
    assert hints["functions"]["Get"]["shared"]["payload_size"] == 1024
    assert hints["functions"]["MultiGet"]["client"]["numa_binding"] is True
    assert "Put" not in hints["functions"]  # no function-level hints


def test_service_functions_and_oneway(gen):
    assert gen.SERVICE_FUNCTIONS["KVStore"] == ["Get", "Put", "MultiGet",
                                                "Touch"]
    assert gen.SERVICE_ONEWAY["KVStore"] == ["Touch"]


def test_invalid_hint_strict_raises():
    bad = "service S { hint: perf_goal = warp_speed; void f(), }"
    with pytest.raises(HintValidationError):
        load_idl(bad, "bad_gen")


def test_invalid_hint_nonstrict_filters():
    bad = "service S { hint: perf_goal = warp_speed, concurrency = 8; void f(), }"
    mod = load_idl(bad, "filtered_gen", strict_hints=False)
    assert mod.SERVICE_HINTS["S"]["service"]["shared"] == {"concurrency": 8}
    assert "warp_speed" in mod.__hatrpc_source__  # warning comment survives


def test_generated_source_is_stable():
    assert compile_idl(KV_IDL) == compile_idl(KV_IDL)


def test_service_extends_inherits_methods():
    mod = load_idl("""
    service Base { i32 ping(1: i32 x), }
    service Child extends Base { i32 pong(1: i32 y), }
    """, "ext_gen")
    assert issubclass(mod.ChildClient, mod.BaseClient)
    assert issubclass(mod.ChildProcessor, mod.BaseProcessor)
    assert gen_has_method(mod.ChildClient, "ping")
    assert gen_has_method(mod.ChildClient, "pong")
    assert mod.SERVICE_FUNCTIONS["Child"] == ["ping", "pong"]


def gen_has_method(cls, name):
    return callable(getattr(cls, name, None))


def test_default_values_applied(gen):
    e = gen.Entry(key="x")
    assert e.status == 0
    assert e.value is None


@pytest.mark.parametrize("which", ["hatkv", "atb"])
def test_generated_modules_carry_one_codec_per_struct(which):
    """The benchmark modules hold one codec per struct: a compiled
    ``_write_<S>`` / ``_read_<S>`` pair and the ``_SPEC_<S>`` table of the
    field loop, and no per-value protocol call or protocol type test."""
    from repro.atb.idl import atb_idl
    from repro.hatkv.idl import hatkv_idl
    idl = (hatkv_idl("function", concurrency=48) if which == "hatkv"
           else atb_idl(goal="latency", payload=64))
    src = compile_idl(idl)
    for needle in ("isinstance(", "oprot.", "iprot.read_", "iprot.skip"):
        assert needle not in src, needle
    assert not re.search(r"prot\.(read|write)_(?!message_)|\.skip\(", src)
    structs = re.findall(
        r'^class (\w+)\(\w+\):\n    """IDL (?:struct|exception) ', src, re.M)
    assert structs
    for s in structs:
        for prefix in (f"def _read_{s}(", f"def _write_{s}(",
                       f"_SPEC_{s} = "):
            assert src.count(prefix) == 1, prefix
    assert len(re.findall(r"^def _(read|write)_", src, re.M)) \
        == 2 * len(structs)
    assert len(re.findall(r"^_SPEC_", src, re.M)) == len(structs)


def test_application_exception_skips_an_unknown_field():
    """A field TApplicationException does not know -- a struct holding a
    list, ahead of the message -- is skipped, and the rest decodes."""
    from repro.thrift import TApplicationException, TType
    buf = TMemoryBuffer()
    prot = TBinaryProtocol(buf)
    prot.write_field_begin("extra", TType.STRUCT, 9)
    prot.write_field_begin("xs", TType.LIST, 1)
    prot.write_list_begin(TType.I64, 2)
    prot.write_i64(1)
    prot.write_i64(2)
    prot.write_field_stop()
    prot.write_field_begin("message", TType.STRING, 1)
    prot.write_string("boom")
    prot.write_field_begin("type", TType.I32, 2)
    prot.write_i32(TApplicationException.INTERNAL_ERROR)
    prot.write_field_stop()
    rprot = TBinaryProtocol(TMemoryBuffer(buf.getvalue()))
    exc = TApplicationException()
    exc.read(rprot)
    assert (exc.type, exc.message, str(exc)) == (
        TApplicationException.INTERNAL_ERROR, "boom", "boom")
    assert rprot.trans.rpos == len(buf.getvalue())
