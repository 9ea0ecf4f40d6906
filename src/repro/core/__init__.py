"""HatRPC core: the paper's primary contribution.

* :mod:`repro.core.hints` -- the hierarchical hint schema and resolution
  rules (service/function levels x shared/server/client sides);
* :mod:`repro.core.selector` -- the hint -> (protocol, polling) mapping of
  Figure 6;
* :mod:`repro.core.trdma` -- TRdma: the TSocket-compatible bridge
  between Thrift and the RDMA engine;
* :mod:`repro.core.engine` -- the hint-aware RDMA communication engine;
* :mod:`repro.core.runtime` -- HatRPC server/client assembly on top of
  IDL-generated code (the paper's TServerRdma is ``HatRpcServer``'s list
  of per-channel servers).
"""

from repro.core.hints import (
    DEFAULT_HINTS,
    HINT_SCHEMA,
    HintError,
    ResolvedHints,
    merge_hint_groups,
    resolve_hints,
    validate_hint,
)
from repro.core.selector import ProtocolChoice, select_protocol
from repro.core.trdma import TRdma
from repro.core.engine import HatRpcEngine, ServicePlan, build_service_plan, pinned_plan
from repro.core.runtime import HatRpcClient, HatRpcServer, hatrpc_connect

__all__ = [
    "DEFAULT_HINTS",
    "HINT_SCHEMA",
    "HatRpcClient",
    "HatRpcEngine",
    "ServicePlan",
    "HatRpcServer",
    "HintError",
    "ProtocolChoice",
    "ResolvedHints",
    "TRdma",
    "build_service_plan",
    "hatrpc_connect",
    "pinned_plan",
    "merge_hint_groups",
    "resolve_hints",
    "select_protocol",
    "validate_hint",
]
