"""The RDMA RPC protocols of the paper's Section 3 (Figure 3).

Nine representative protocols, the Hybrid-EagerRNDV baseline and the two
YCSB comparator schemes (Section 5.4), all built on :mod:`repro.verbs`
behind one client and one server (:class:`~repro.protocols.base.RpcClient`
/ :class:`~repro.protocols.base.RpcServer`).  A protocol is one registry
row; the rows, as registered (``*`` = calls may be pipelined):

====================== ================ ================ ===================================
name                   client end       server end       parameters
====================== ================ ================ ===================================
eager_sendrecv *       TwoSidedEndpoint TwoSidedEndpoint eager="max_msg", flavor="write"
write_rndv             TwoSidedEndpoint TwoSidedEndpoint eager=None, flavor="write"
read_rndv              TwoSidedEndpoint TwoSidedEndpoint eager=None, flavor="read"
hybrid_eager_rndv      TwoSidedEndpoint TwoSidedEndpoint eager="eager_threshold", flavor="write"
hybrid_eager_readrndv  TwoSidedEndpoint TwoSidedEndpoint eager="eager_threshold", flavor="read"
direct_write_send *    DirectWriteEndpoint (both ends)   flavor=F_SEPARATE
chained_write_send *   DirectWriteEndpoint (both ends)   flavor=F_CHAINED
direct_writeimm *      DirectWriteEndpoint (both ends)   flavor=F_IMM
pilaf                  BypassClientEnd  BypassServerEnd  request_path=REQ_SEND, metadata_reads=2
farm                   BypassClientEnd  BypassServerEnd  request_path=REQ_WRITE, metadata_reads=1
rfp                    RfpClientEnd     BypassServerEnd  request_path=REQ_WRITE, metadata_reads=1
herd                   HerdClientEnd    HerdServerEnd    request_path=REQ_WRITE, metadata_reads=0
====================== ================ ================ ===================================

and the scheme each one is (Figure 3):

* ``eager_sendrecv`` (a) SEND into pre-posted ring slots; memcpy both sides
* ``direct_write_send`` (b) RDMA WRITE to pre-known buffer + separate SEND notify
* ``chained_write_send`` (c) same, WRITE+SEND chained into one doorbell
* ``write_rndv`` (d) RTS/CTS handshake, payload via RDMA WRITE(+IMM)
* ``read_rndv`` (e) RTS with source rkey, target RDMA READs, FIN
* ``direct_writeimm`` (f) single RDMA WRITE_WITH_IMM to pre-known buffer
* ``pilaf`` (g) request via SEND; response fetched with 3 RDMA READs
* ``farm`` (h) request WRITE + server memory polling; 2-READ response
* ``rfp`` (i) request WRITE + memory polling; 1-READ response
* ``hybrid_eager_rndv`` eager below 4 KB, Write-RNDV above (vanilla RDMA baseline)
* ``hybrid_eager_readrndv`` eager below 4 KB, Read-RNDV above (AR-gRPC)
* ``herd`` request WRITE + memory polling; response pushed back in small SENDs
"""

from repro.protocols.base import (
    HDR_BYTES,
    ProtoConfig,
    ProtocolError,
    RpcClient,
    RpcServer,
    get_protocol,
    protocol_names,
)
from repro.protocols import directwrite, serverbypass, twosided  # registers
from repro.protocols.srq import SRQ_SERVERS, SrqEagerServer

__all__ = [
    "HDR_BYTES",
    "ProtoConfig",
    "ProtocolError",
    "RpcClient",
    "RpcServer",
    "SRQ_SERVERS",
    "SrqEagerServer",
    "get_protocol",
    "protocol_names",
]
