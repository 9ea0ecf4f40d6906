"""TPC-H traffic for Fig. 17: a recorded per-query trace replayed over RPC.

Substitutes for the paper's "commercial database system applying the HatRPC
approach" (Section 5.5): each of the 22 TPC-H queries runs as its recorded
pattern of work over partitioned data on the simulated cluster -- rows
touched per worker, the bytes of each worker's partial, the rows of the
coordinator's final stage -- and the inter-node exchange runs over the RPC
layer under test (vanilla Thrift on IPoIB, HatRPC-Service, or
HatRPC-Function).  Compute cost is charged per row touched; exchange
traffic is the recorded serialized size of each intermediate result,
shipped in framed chunks as a Thrift-based engine would stream it.
"""

from repro.tpch.distributed import (
    QUERIES, DistributedTpch, QueryTrace, TpchResult,
)

__all__ = ["DistributedTpch", "QUERIES", "QueryTrace", "TpchResult"]
