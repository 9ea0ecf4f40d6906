"""Hint schema, merging, and hierarchical resolution tests."""

import pytest
from hypothesis import given, strategies as st

from repro.core.hints import (
    DEFAULT_HINTS,
    HintError,
    ResolvedHints,
    merge_hint_groups,
    resolve_hints,
    validate_hint,
)
from repro.idl import load_idl
from repro.idl.nodes import Hint, HintGroup


def test_validate_known_keys():
    assert validate_hint("perf_goal", "latency") == "latency"
    assert validate_hint("concurrency", 16) == 16
    assert validate_hint("payload_size", 1024) == 1024
    assert validate_hint("numa_binding", True) is True
    assert validate_hint("transport", "tcp") == "tcp"


@pytest.mark.parametrize("key,value", [
    ("perf_goal", "warp"),
    ("concurrency", 0),
    ("concurrency", "sixteen"),
    ("concurrency", True),        # bools are not ints for hints
    ("payload_size", -1),
    ("transport", "carrier_pigeon"),
    ("polling", "psychic"),
    ("numa_binding", 1),
])
def test_validate_rejects_bad_values(key, value):
    with pytest.raises(HintError):
        validate_hint(key, value)


def test_validate_rejects_unknown_key():
    with pytest.raises(HintError, match="undefined hint key"):
        validate_hint("quantumness", 11)


def test_idl_refuses_the_unread_batch_size_hint():
    # No component reads a batching factor: an IDL that declares one is
    # refused by name rather than accepted and silently dropped.
    idl = """
    service Batched {
        hint: batch_size = 4;
        void Ping()
    }
    """
    with pytest.raises(HintError, match="undefined hint key 'batch_size'"):
        load_idl(idl, "batched_gen")


def test_merge_groups_same_side_later_wins():
    groups = [
        HintGroup("shared", [Hint("perf_goal", "latency"),
                             Hint("concurrency", 4)]),
        HintGroup("shared", [Hint("perf_goal", "throughput")]),
        HintGroup("server", [Hint("polling", "event")]),
    ]
    merged = merge_hint_groups(groups)
    assert merged["shared"] == {"perf_goal": "throughput", "concurrency": 4}
    assert merged["server"] == {"polling": "event"}
    assert merged["client"] == {}


def test_resolution_precedence_chain():
    service = {"shared": {"perf_goal": "latency", "concurrency": 8},
               "server": {"polling": "event"}}
    function = {"shared": {"perf_goal": "throughput"},
                "server": {"payload_size": 65536}}
    r = resolve_hints(service, function, "server")
    # function shared overrides service shared:
    assert r.perf_goal == "throughput"
    # service shared survives when unchallenged:
    assert r.concurrency == 8
    # side-specific layers apply:
    assert r.polling == "event"
    assert r.payload_size == 65536


def test_function_side_beats_everything():
    service = {"shared": {"perf_goal": "latency"},
               "client": {"perf_goal": "throughput"}}
    function = {"shared": {"perf_goal": "res_util"},
                "client": {"perf_goal": "latency"}}
    assert resolve_hints(service, function, "client").perf_goal == "latency"


def test_sides_are_isolated():
    service = {"server": {"numa_binding": True},
               "client": {"numa_binding": False}}
    assert resolve_hints(service, None, "server").numa_binding is True
    assert resolve_hints(service, None, "client").numa_binding is False


def test_defaults_fill_gaps():
    r = resolve_hints({}, None, "server")
    for key, value in DEFAULT_HINTS.items():
        assert getattr(r, key) == value
    assert r.polling is None


def test_resolution_validates_values():
    with pytest.raises(HintError):
        resolve_hints({"shared": {"perf_goal": "bogus"}}, None, "server")


def test_resolution_side_must_be_concrete():
    with pytest.raises(HintError):
        resolve_hints({}, None, "shared")


# -- property tests -----------------------------------------------------------

_hint_values = {
    "perf_goal": st.sampled_from(["latency", "throughput", "res_util"]),
    "concurrency": st.integers(1, 1024),
    "payload_size": st.integers(1, 1 << 20),
    "numa_binding": st.booleans(),
    "transport": st.sampled_from(["rdma", "tcp"]),
    "polling": st.sampled_from(["busy", "event"]),
    "priority": st.sampled_from(["high", "normal", "low"]),
}


def _hint_dicts():
    return st.dictionaries(st.sampled_from(sorted(_hint_values)),
                           st.none(), max_size=4).flatmap(
        lambda keys: st.fixed_dictionaries(
            {k: _hint_values[k] for k in keys}))


def _side_maps():
    return st.fixed_dictionaries({
        "shared": _hint_dicts(), "server": _hint_dicts(),
        "client": _hint_dicts()})


@given(_side_maps(), _side_maps(), st.sampled_from(["server", "client"]))
def test_resolution_total_and_idempotent(service, function, side):
    r1 = resolve_hints(service, function, side)
    r2 = resolve_hints(service, function, side)
    assert r1 == r2
    assert isinstance(r1, ResolvedHints)
    # resolved values always validate
    for key in DEFAULT_HINTS:
        validate_hint(key, getattr(r1, key))


@given(_side_maps(), st.sampled_from(["server", "client"]))
def test_function_level_none_equals_empty(service, side):
    assert resolve_hints(service, None, side) == \
        resolve_hints(service, {}, side)


@given(_hint_dicts(), st.sampled_from(["server", "client"]))
def test_function_side_always_wins(fn_side_hints, side):
    service = {"shared": {"perf_goal": "latency", "concurrency": 7}}
    function = {side: fn_side_hints}
    r = resolve_hints(service, function, side)
    for key, value in fn_side_hints.items():
        assert getattr(r, key, r.polling) == value or \
            (key == "polling" and r.polling == value)


# -- the cacheable hint -------------------------------------------------------

def test_validate_cacheable_accepts_well_formed_params():
    assert validate_hint("cacheable", {"ttl": 2e-4}) == {"ttl": 2e-4}
    assert validate_hint("cacheable", {"ttl": 1}) == {"ttl": 1}


@pytest.mark.parametrize("value", [
    {},                                   # ttl is mandatory
    {"ttl": 0},                           # must be positive
    {"ttl": -1e-3},
    {"ttl": True},                        # bools are not numbers
    {"ttl": float("nan")},                # NaN is not positive
    {"ttl": "200us"},                     # the number, not its text
    {"ttl": 1e-3, "hot_promote": 8},      # a parameter the hint dropped
    {"ttl": 1e-3, "warmup": 5},           # unknown parameter
    "200us",                              # not a parameter dict at all
])
def test_validate_cacheable_rejects_malformed(value):
    with pytest.raises(HintError):
        validate_hint("cacheable", value)


def test_cacheable_hint_view_and_default():
    from repro.core.hints import CacheableHint, cacheable_hint

    fn_map = merge_hint_groups([HintGroup(side="shared", hints=[
        Hint("cacheable", {"ttl": 1e-3})])])
    resolved = resolve_hints({}, fn_map, "client")
    assert cacheable_hint(resolved) == CacheableHint(ttl=1e-3)
    assert cacheable_hint(resolve_hints({}, None, "client")) is None
