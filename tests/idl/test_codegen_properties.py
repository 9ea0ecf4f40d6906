"""Property-based IDL pipeline tests: generated structs round-trip for
arbitrary schemas and values."""

import keyword

from hypothesis import given, settings, strategies as st

from repro.idl import compile_idl, load_idl
from repro.thrift import TBinaryProtocol, TMemoryBuffer

_MODULE_N = [0]

_FIELD_TYPES = {
    "bool": st.booleans(),
    "i16": st.integers(-2**15, 2**15 - 1),
    "i32": st.integers(-2**31, 2**31 - 1),
    "i64": st.integers(-2**63, 2**63 - 1),
    "double": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=20),
    "binary": st.binary(max_size=30),
    "list<i32>": st.lists(st.integers(-1000, 1000), max_size=5),
    "map<string, i64>": st.dictionaries(st.text(max_size=5),
                                        st.integers(-10, 10), max_size=4),
}

_ident = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s) and s not in ("hint",))


@st.composite
def _schemas(draw):
    n = draw(st.integers(1, 6))
    names = draw(st.lists(_ident, min_size=n, max_size=n, unique=True))
    types = [draw(st.sampled_from(sorted(_FIELD_TYPES))) for _ in range(n)]
    return list(zip(names, types))


@settings(max_examples=40, deadline=None)
@given(_schemas(), st.data())
def test_generated_struct_roundtrips(schema, data):
    fields = "\n".join(f"    {i + 1}: {t} {name},"
                       for i, (name, t) in enumerate(schema))
    idl = f"struct Fuzz {{\n{fields}\n}}\n"
    _MODULE_N[0] += 1
    mod = load_idl(idl, f"fuzz_gen_{_MODULE_N[0]}")
    values = {name: data.draw(_FIELD_TYPES[t], label=name)
              for name, t in schema}
    original = mod.Fuzz(**values)
    buf = TMemoryBuffer()
    original.write(TBinaryProtocol(buf))
    out = mod.Fuzz()
    out.read(TBinaryProtocol(TMemoryBuffer(buf.getvalue())))
    assert out == original


@settings(max_examples=40, deadline=None)
@given(_schemas())
def test_codegen_deterministic_and_valid(schema):
    fields = "\n".join(f"    {i + 1}: {t} {name},"
                       for i, (name, t) in enumerate(schema))
    idl = f"struct Fuzz {{\n{fields}\n}}\n"
    a = compile_idl(idl)
    b = compile_idl(idl)
    assert a == b
    compile(a, "<gen>", "exec")


@settings(max_examples=30, deadline=None)
@given(st.lists(_ident, min_size=1, max_size=5, unique=True),
       st.sampled_from(["latency", "throughput", "res_util"]),
       st.integers(1, 512))
def test_hinted_service_always_plans(fn_names, goal, conc):
    """Any combination of functions/goals yields a valid channel plan."""
    fns = "\n".join(f"    void {name}()," for name in fn_names)
    idl = (f"service S {{\n"
           f"    hint: perf_goal = {goal}, concurrency = {conc};\n"
           f"{fns}\n}}\n")
    _MODULE_N[0] += 1
    mod = load_idl(idl, f"plan_fuzz_{_MODULE_N[0]}")
    from repro.core.runtime import service_plan_of
    plan = service_plan_of(mod, "S")
    assert set().union(*(ch.functions for ch in plan.channels)) == \
        set(fn_names)
    for name in fn_names:
        assert plan.channel_for(name).protocol in (
            "direct_writeimm", "eager_sendrecv", "write_rndv", "rfp")
