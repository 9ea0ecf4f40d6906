"""Nodes and clusters.

A :class:`Node` models one machine of the paper's testbed: a CPU complex
(cores under a fair-share scheduler, split across NUMA domains) to which a
NIC (:class:`repro.verbs.device.Device`) and a kernel TCP stack
(:class:`repro.netfab.tcp.TcpStack`) attach themselves.

The default :class:`ClusterSpec` mirrors Section 5.1: 10 nodes, each a
28-core Xeon Gold 6132 (2 NUMA domains of 14 cores), 192 GB RAM, connected
by 100 Gbps InfiniBand EDR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sim.core import Simulator
from repro.sim.cpu import CpuScheduler

__all__ = ["Cluster", "ClusterSpec", "Node", "NodeSpec"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one machine."""

    cores: int = 28
    numa_domains: int = 2
    ram_bytes: int = 192 * 1024**3

    @property
    def cores_per_numa(self) -> int:
        return self.cores // self.numa_domains


class Node:
    """One machine: a named CPU complex with attachment points."""

    def __init__(self, sim: Simulator, name: str, spec: NodeSpec):
        self.sim = sim
        self.name = name
        self.spec = spec
        self.cpu = CpuScheduler(sim, spec.cores)
        # Attachment points, filled in by the owning subsystems.
        self.nic: Any = None          # repro.verbs.device.Device
        self.tcp: Any = None          # repro.netfab.tcp.TcpStack
        self.props: Dict[str, Any] = {}
        # Liveness (fault injection): subsystems register hooks so a crash
        # fails their live state (QPs, TCP connections) and a restore lets
        # servers re-listen.
        self.up = True
        self.crashes = 0
        self._crash_hooks: List[Callable[[], None]] = []
        self._restore_hooks: List[Callable[[], None]] = []

    def compute(self, cpu_seconds, times: int = 1):
        """Event that fires after ``times`` back-to-back pieces of
        ``cpu_seconds`` -- or the tuple of pieces ``cpu_seconds`` -- of
        fair-shared CPU work (one job)."""
        return self.cpu.compute(cpu_seconds, times)

    # -- liveness ----------------------------------------------------------
    def on_crash(self, hook: Callable[[], None]) -> None:
        self._crash_hooks.append(hook)

    def on_restore(self, hook: Callable[[], None]) -> None:
        self._restore_hooks.append(hook)

    def crash(self) -> None:
        """Fail-stop: kill the node's live connection state.

        In-flight operations targeting this node complete with transport
        errors; nothing here touches durable state (HatKV's LMDB survives,
        as a real machine's disk would).  Idempotent.
        """
        if not self.up:
            return
        self.up = False
        self.crashes += 1
        for hook in self._crash_hooks:
            hook()

    def restore(self) -> None:
        """Bring the node back up (fresh connection state, durable data intact)."""
        if self.up:
            return
        self.up = True
        for hook in self._restore_hooks:
            hook()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name}: {self.spec.cores} cores>"


@dataclass(frozen=True)
class ClusterSpec:
    """Topology of the testbed (Section 5.1 defaults)."""

    n_nodes: int = 10
    node: NodeSpec = field(default_factory=NodeSpec)


class Cluster:
    """A set of nodes sharing one simulator.

    The network fabric (:class:`repro.netfab.fabric.Fabric`) is built on top
    of a cluster by the netfab package; keeping it out of this class avoids a
    sim -> netfab dependency.
    """

    def __init__(self, sim: Simulator, spec: Optional[ClusterSpec] = None):
        self.sim = sim
        self.spec = spec or ClusterSpec()
        self.nodes: List[Node] = [
            Node(sim, f"node{i}", self.spec.node)
            for i in range(self.spec.n_nodes)
        ]
        self._by_name = {n.name: n for n in self.nodes}

    def __getitem__(self, key: int | str) -> Node:
        if isinstance(key, str):
            return self._by_name[key]
        return self.nodes[key]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)
