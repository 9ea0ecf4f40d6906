"""Deterministic discrete-event simulation kernel.

This package is the substrate that replaces the paper's physical testbed
(10-node InfiniBand EDR cluster).  Everything above it -- the simulated verbs
layer, the RDMA protocols, the Thrift transports, the benchmarks -- runs as
coroutine processes inside a :class:`~repro.sim.core.Simulator`.

Blocking convention
-------------------
Any operation that can block simulated time is a *generator coroutine* and
must be driven with ``yield from`` (or ``yield`` for a bare event).  Plain
function calls never advance simulated time.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.cpu import CpuScheduler, SpinToken
from repro.sim.sync import Gate, Lane, Store
from repro.sim.cluster import Cluster, ClusterSpec, Node, NodeSpec
from repro.sim.units import GiB, KiB, MiB, Gbps, ms, ns, us

__all__ = [
    "AllOf",
    "AnyOf",
    "Cluster",
    "ClusterSpec",
    "CpuScheduler",
    "Event",
    "Gate",
    "GiB",
    "Gbps",
    "Interrupt",
    "KiB",
    "Lane",
    "MiB",
    "Node",
    "NodeSpec",
    "Process",
    "SimulationError",
    "Simulator",
    "SpinToken",
    "Store",
    "Timeout",
    "ms",
    "ns",
    "us",
]
