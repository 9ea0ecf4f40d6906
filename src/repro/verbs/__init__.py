"""Simulated RDMA verbs.

This package substitutes for libibverbs + a ConnectX-5 HCA (the hardware the
paper's testbed uses, which is unavailable here).  It exposes the verbs
programming model -- protection domains, memory regions with lkey/rkey,
queue pairs, completion queues with busy/event polling, work requests
(SEND / RDMA WRITE / RDMA READ / WRITE_WITH_IMM, chained WR lists) -- and
charges each operation its cost on the simulated CPU, PCIe, NIC, and wire,
per :class:`~repro.verbs.costmodel.CostModel`.

The protocols of the paper's Section 3 (Figure 3) are written against this
API exactly as they would be against real verbs.
"""

from repro.verbs.costmodel import CostModel
from repro.verbs.errors import (
    CQOverflowError,
    MemoryAccessError,
    QPStateError,
    VerbsError,
    WCError,
)
from repro.verbs.memory import Memory
from repro.verbs.types import (
    Opcode,
    QPState,
    SendWR,
    Sge,
    WC,
    WCOpcode,
    WCStatus,
)
from repro.verbs.device import Device, MR, PD
from repro.verbs.cq import CQ, CompChannel
from repro.verbs.qp import QP, SRQ
from repro.verbs.cm import ConnectionRequest, Listener

__all__ = [
    "CQ",
    "CQOverflowError",
    "CompChannel",
    "ConnectionRequest",
    "CostModel",
    "Device",
    "Listener",
    "MR",
    "Memory",
    "MemoryAccessError",
    "Opcode",
    "PD",
    "QP",
    "QPState",
    "QPStateError",
    "SRQ",
    "SendWR",
    "Sge",
    "VerbsError",
    "WC",
    "WCError",
    "WCOpcode",
    "WCStatus",
]
