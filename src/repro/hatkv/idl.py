"""The KVService IDL of Figure 10, in -Service and -Function variants.

Payload geometry follows Section 5.4: 24-byte keys, 10 fields x 100 bytes
(=1000-byte values), batch size 10 for the Multi ops.  So per call:

* GET: ~24 B request, ~1 KB response;
* PUT: ~1 KB request, tiny response;
* MultiGET: ~240 B request, ~10 KB response;
* MultiPUT: ~10 KB request, tiny response.

The -Function variant states those asymmetries with lateral c_hint/s_hint
payload sizes; the -Service variant only sets service-level hints (the
paper's HatRPC-Service ablation).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.idl import load_idl

__all__ = ["hatkv_idl", "load_hatkv_module"]


def hatkv_idl(variant: str = "function", concurrency: int = 128,
              priorities: Optional[Mapping[str, str]] = None,
              cacheable: Optional[Mapping[str, object]] = None) -> str:
    """The KVService IDL text.

    ``priorities`` optionally maps function names to a ``priority`` hint
    level (``high``/``normal``/``low``) for admission-controlled
    deployments -- e.g. ``{"Scan": "low"}`` marks scans as first to shed
    under overload.  Opt-in because the priority hint also feeds the
    selector (low-priority functions take the resource-efficient polling
    path), which changes the channel plan.

    ``cacheable`` optionally marks Get as client-cacheable, e.g.
    ``{"ttl": 200e-6}``: the server grants per-key leases of ``ttl``
    seconds on Get replies (see the ``cacheable`` hint in
    :mod:`repro.core.hints`).  Any other key is refused.
    """
    if variant not in ("service", "function"):
        raise ValueError("variant must be 'service' or 'function'")
    fn_hints = {
        "Get": "[ c_hint: payload_size = 64; s_hint: payload_size = 1KB; ]",
        "Put": "[ c_hint: payload_size = 1KB; s_hint: payload_size = 64; ]",
        # Delete mirrors Put's payload geometry (tiny request, tiny reply)
        # so it shares Put's channel and leaves the plan shape unchanged.
        "Delete": "[ c_hint: payload_size = 1KB; "
                  "s_hint: payload_size = 64; ]",
        "MultiGet": "[ c_hint: payload_size = 512; "
                    "s_hint: payload_size = 10KB; ]",
        "MultiPut": "[ c_hint: payload_size = 10KB; "
                    "s_hint: payload_size = 64; ]",
        "Scan": "[ c_hint: payload_size = 64; "
                "s_hint: payload_size = 10KB; ]",
    } if variant == "function" else {k: "" for k in
                                     ("Get", "Put", "Delete", "MultiGet",
                                      "MultiPut", "Scan")}
    for fn, level in (priorities or {}).items():
        if fn not in fn_hints:
            raise KeyError(f"unknown KVService function {fn!r}")
        if level not in ("high", "normal", "low"):
            raise ValueError(f"priority for {fn!r} must be high/normal/low, "
                             f"not {level!r}")
        clause = f"hint: priority = {level};"
        block = fn_hints[fn]
        fn_hints[fn] = f"[ {clause} ]" if not block \
            else block[:-1].rstrip() + f" {clause} ]"
    if cacheable is not None:
        unknown = sorted(set(cacheable) - {"ttl"})
        if unknown:
            raise ValueError(f"unknown cacheable key {unknown[0]!r}")
        ttl = float(cacheable["ttl"])
        if ttl <= 0:
            raise ValueError(f"cacheable ttl must be > 0, not {ttl!r}")
        clause = f"hint: cacheable(ttl = {ttl:.9f});"
        block = fn_hints["Get"]
        fn_hints["Get"] = f"[ {clause} ]" if not block \
            else block[:-1].rstrip() + f" {clause} ]"
    return f"""
// HatKV service (Figure 10).  Variant: HatRPC-{variant.capitalize()}.

// Get's reply distinguishes "absent" from "stored an empty value":
// a bare binary return conflated the two (b"" either way), so a shard
// router could not tell a misrouted key from an empty one.
// version/lease are the cacheable-hint protocol fields: the key's write
// version and the granted lease duration in seconds (0 = not cacheable
// or a writer was in flight).  Both stay unset (None on the wire's
// skip-None encoding) when the service carries no cacheable hint, so
// uncached deployments keep today's byte-identical replies.
struct GetResult {{
    1: bool found,
    2: binary value,
    3: i64 version,
    4: double lease,
}}

service KVService {{
    hint: concurrency = {concurrency}, perf_goal = throughput;

    GetResult Get(1: binary key) {fn_hints['Get']}
    void Put(1: binary key, 2: binary value) {fn_hints['Put']}
    void Delete(1: binary key) {fn_hints['Delete']}
    list<binary> MultiGet(1: list<binary> keys) {fn_hints['MultiGet']}
    void MultiPut(1: list<binary> keys, 2: list<binary> values) {fn_hints['MultiPut']}
    list<binary> Scan(1: binary start_key, 2: i32 count) {fn_hints['Scan']}
}}
"""


def load_hatkv_module(variant: str = "function", concurrency: int = 128,
                      priorities: Optional[Mapping[str, str]] = None,
                      cacheable: Optional[Mapping[str, object]] = None):
    return load_idl(hatkv_idl(variant, concurrency, priorities, cacheable),
                    f"hatkv_gen_{variant}")
