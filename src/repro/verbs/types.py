"""Work requests, completions, and state enums -- the verbs vocabulary."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Opcode",
    "QPState",
    "SendWR",
    "Sge",
    "WC",
    "WCOpcode",
    "WCStatus",
]


class Opcode(enum.Enum):
    """Send-side work request opcodes (ibv_wr_opcode subset used by RPC)."""

    SEND = "send"
    RDMA_WRITE = "rdma_write"
    RDMA_WRITE_WITH_IMM = "rdma_write_with_imm"
    RDMA_READ = "rdma_read"


class WCOpcode(enum.Enum):
    """Completion opcodes (ibv_wc_opcode subset)."""

    SEND = "send"
    RDMA_WRITE = "rdma_write"
    RDMA_READ = "rdma_read"
    RECV = "recv"
    RECV_RDMA_WITH_IMM = "recv_rdma_with_imm"


class WCStatus(enum.Enum):
    SUCCESS = "success"
    LOC_LEN_ERR = "loc_len_err"          # recv buffer too small for SEND
    REM_ACCESS_ERR = "rem_access_err"    # bad rkey / out-of-bounds remote op
    RNR_RETRY_EXC_ERR = "rnr_retry_exc"  # receiver-not-ready retries exhausted
    RETRY_EXC_ERR = "retry_exc"          # transport retries exhausted (link/peer dead)
    WR_FLUSH_ERR = "wr_flush_err"        # QP moved to error state

    @property
    def is_error(self) -> bool:
        return self is not WCStatus.SUCCESS

    @property
    def retryable(self) -> bool:
        """Whether a fresh connection could plausibly clear this status.

        RNR exhaustion and transport-retry exhaustion are congestion/link
        conditions that pass; flushes mean the QP died and a reconnect is
        required but sensible.  Access and length errors are programming
        bugs -- retrying cannot fix them.
        """
        return self in (WCStatus.RNR_RETRY_EXC_ERR, WCStatus.RETRY_EXC_ERR,
                        WCStatus.WR_FLUSH_ERR)


class QPState(enum.Enum):
    RESET = "reset"
    INIT = "init"
    RTR = "rtr"    # ready to receive
    RTS = "rts"    # ready to send
    ERROR = "error"


@dataclass(slots=True)
class Sge:
    """Scatter/gather element: a slice of a registered memory region."""

    addr: int
    length: int
    lkey: int


@dataclass(slots=True)
class SendWR:
    """Send-side work request.

    ``next`` chains WRs into one doorbell (Chained-Write-Send, Fig. 3c).
    ``remote_addr``/``rkey`` are required for RDMA_{WRITE,READ}* opcodes.
    """

    opcode: Opcode
    sge: Sge
    wr_id: int = 0
    remote_addr: int = 0
    rkey: int = 0
    imm: int = 0
    signaled: bool = True
    next: Optional["SendWR"] = None

    def chain_length(self) -> int:
        n, wr = 0, self
        while wr is not None:
            n += 1
            wr = wr.next
        return n


@dataclass(slots=True)
class WC:
    """Work completion."""

    wr_id: int
    opcode: WCOpcode
    status: WCStatus = WCStatus.SUCCESS
    byte_len: int = 0
    imm: int = 0
    qp_num: int = 0
    #: For RECV completions: the address the payload landed at.
    addr: int = 0

    @property
    def ok(self) -> bool:
        return self.status is WCStatus.SUCCESS
