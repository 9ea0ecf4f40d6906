"""The hierarchical hint scheme (Section 4.1).

Hints live at two vertical levels -- **service** and **function** -- and
three lateral sides -- **shared** (``hint:``), **server** (``s_hint:``),
**client** (``c_hint:``).  Resolution for one RPC function on one side
applies, in increasing precedence:

    defaults < service.shared < service.<side>
             < function.shared < function.<side>

i.e. function-level hints override the same keys at service level (the
paper's override rule), and side-specific hints override shared ones within
a level.

Supported keys (the paper's performance-oriented categories of Fig. 6, plus
the NUMA-binding / hybrid-transport hints of Section 3.3 and the priority
hint motivating function-level granularity in Section 4.1):

=============== ======== ===========================================
key             type     values
=============== ======== ===========================================
perf_goal       str      latency | throughput | res_util
concurrency     int      expected concurrent clients (>= 1)
payload_size    int      expected payload bytes (> 0)
numa_binding    bool     bind worker threads to the NIC's NUMA node
transport       str      rdma | tcp        (hybrid transports)
polling         str      busy | event      (explicit override)
priority        str      high | normal | low
tunable         bool     allow the online tuner to re-resolve choices
cacheable       dict     ``cacheable(ttl = <dur>)``
=============== ======== ===========================================

``tunable`` extends the paper's grammar for the closed-loop tuner: a
tunable service's channel plan is provisioned with alternate channels so
an attached :class:`~repro.core.tuner.HintTuner` can re-route functions
at runtime; the declared hints remain the starting point and the
fallback.

``cacheable`` extends the grammar for the client hot-key cache: a
read function marked ``cacheable(ttl = 200us)`` lets the server grant
per-key leases of ``ttl`` seconds on its replies (the client may serve
the key locally until the lease expires or a newer version is
observed).  Writers to a leased key are held until every outstanding
lease has expired, so a cached read can never return a value older than
the last acknowledged write.  The parsed value is a dict and rides in
:attr:`ResolvedHints.extras`; :func:`cacheable_hint` gives the typed
view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

__all__ = [
    "CacheableHint",
    "DEFAULT_HINTS",
    "HINT_SCHEMA",
    "HintError",
    "HintSpec",
    "ResolvedHints",
    "cacheable_hint",
    "merge_hint_groups",
    "resolve_hints",
    "validate_hint",
]

SIDES = ("shared", "server", "client")


class HintError(ValueError):
    """An undefined hint key or unsupported value."""


@dataclass(frozen=True)
class HintSpec:
    key: str
    type: type
    check: Callable[[Any], bool]
    describe: str

    def validate(self, value: Any) -> Any:
        if self.type is int and isinstance(value, bool):
            raise HintError(f"hint {self.key!r}: expected int, got bool")
        if not isinstance(value, self.type):
            raise HintError(
                f"hint {self.key!r}: expected {self.type.__name__}, "
                f"got {type(value).__name__} ({value!r})")
        if not self.check(value):
            raise HintError(
                f"hint {self.key!r}: unsupported value {value!r} "
                f"({self.describe})")
        return value


HINT_SCHEMA: Dict[str, HintSpec] = {
    spec.key: spec for spec in [
        HintSpec("perf_goal", str,
                 lambda v: v in ("latency", "throughput", "res_util"),
                 "one of latency|throughput|res_util"),
        HintSpec("concurrency", int, lambda v: v >= 1, "integer >= 1"),
        HintSpec("payload_size", int, lambda v: v > 0, "bytes > 0"),
        HintSpec("numa_binding", bool, lambda v: True, "bool"),
        HintSpec("transport", str, lambda v: v in ("rdma", "tcp"),
                 "one of rdma|tcp"),
        HintSpec("polling", str, lambda v: v in ("busy", "event"),
                 "one of busy|event"),
        HintSpec("priority", str, lambda v: v in ("high", "normal", "low"),
                 "one of high|normal|low"),
        HintSpec("tunable", bool, lambda v: True, "bool"),
        HintSpec("cacheable", dict, lambda v: _check_cacheable(v),
                 "cacheable(ttl = <seconds > 0>)"),
    ]
}


def _check_cacheable(value: Dict[str, Any]) -> bool:
    if set(value) != {"ttl"}:
        return False
    ttl = value["ttl"]
    return not isinstance(ttl, bool) and isinstance(ttl, (int, float)) \
        and ttl > 0

DEFAULT_HINTS: Dict[str, Any] = {
    "perf_goal": "throughput",
    "concurrency": 1,
    "payload_size": 4096,
    "numa_binding": False,
    "transport": "rdma",
    "priority": "normal",
    "tunable": False,
    # 'polling' has no default: absent means "derive from perf_goal".
}


def validate_hint(key: str, value: Any) -> Any:
    """Validate one pair; raises HintError for unknown keys or bad values."""
    spec = HINT_SCHEMA.get(key)
    if spec is None:
        raise HintError(f"undefined hint key {key!r} "
                        f"(known: {', '.join(sorted(HINT_SCHEMA))})")
    return spec.validate(value)


def merge_hint_groups(groups: Iterable) -> Dict[str, Dict[str, Any]]:
    """Merge HintGroup-like objects into one {side: {key: value}} map.

    This is the paper's 'merging process [that] group[s] common hints from
    the same level': multiple groups of the same side collapse, with later
    declarations overriding earlier ones key-by-key.
    """
    merged: Dict[str, Dict[str, Any]] = {s: {} for s in SIDES}
    for group in groups:
        side = getattr(group, "side", None) or group["side"]
        if side not in merged:
            raise HintError(f"unknown hint side {side!r}")
        hints = getattr(group, "hints", None)
        items = ([(h.key, h.value) for h in hints] if hints is not None
                 else list(group["hints"].items()))
        for key, value in items:
            merged[side][key] = value
    return merged


@dataclass(frozen=True)
class ResolvedHints:
    """The effective hints for one function on one side."""

    perf_goal: str
    concurrency: int
    payload_size: int
    numa_binding: bool
    transport: str
    priority: str
    tunable: bool = False
    polling: Optional[str] = None   # None -> selector derives from perf_goal
    extras: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, m: Mapping[str, Any]) -> "ResolvedHints":
        known = {k: m[k] for k in DEFAULT_HINTS if k in m}
        base = dict(DEFAULT_HINTS)
        base.update(known)
        return cls(polling=m.get("polling"),
                   extras={k: v for k, v in m.items()
                           if k not in DEFAULT_HINTS and k != "polling"},
                   **base)


@dataclass(frozen=True)
class CacheableHint:
    """Typed view of the ``cacheable(...)`` hint (seconds on the sim clock)."""

    ttl: float


def cacheable_hint(resolved: ResolvedHints) -> Optional[CacheableHint]:
    """The function's cacheable config, or None when the hint is absent."""
    raw = resolved.extras.get("cacheable")
    if raw is None:
        return None
    return CacheableHint(ttl=float(raw["ttl"]))


def resolve_hints(service_map: Mapping[str, Mapping[str, Any]],
                  function_map: Optional[Mapping[str, Mapping[str, Any]]],
                  side: str) -> ResolvedHints:
    """Apply the precedence chain for one function and side.

    ``service_map`` / ``function_map`` are {side: {key: value}} maps as
    produced by :func:`merge_hint_groups` (function_map may be None for a
    function with no hints of its own).
    """
    if side not in ("server", "client"):
        raise HintError(f"resolution side must be server|client, not {side!r}")
    out: Dict[str, Any] = {}
    layers: List[Mapping[str, Any]] = [
        service_map.get("shared", {}),
        service_map.get(side, {}),
    ]
    if function_map:
        layers += [function_map.get("shared", {}), function_map.get(side, {})]
    for layer in layers:
        for key, value in layer.items():
            out[key] = validate_hint(key, value)
    return ResolvedHints.from_mapping(out)
