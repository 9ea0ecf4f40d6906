"""The switched fabric: per-node full-duplex ports and wire timing.

Model
-----
Every node has one port with independent TX and RX sides.  Sending ``n``
bytes from A to B:

1. occupies A's TX side for ``n / rate`` (serialization onto the wire),
2. propagates for ``wire_latency`` (cables + one switch hop),
3. occupies B's RX side for ``n / rate`` (arrival serialization -- this is
   what produces incast queueing when many clients target one server).

Steady-state pipelined throughput of a flow is the full link ``rate``
(successive messages overlap stages); single-message latency is
``2*n/rate + wire_latency``, which slightly over-counts serialization for a
store-and-forward switch -- absorbed into calibration, since only relative
protocol behaviour matters for the reproduction.

Fault model
-----------
Ports carry scheduled *fault windows* (installed by
:mod:`repro.faults.injector`), evaluated purely against the simulated clock
so replays are deterministic:

* a **down window** takes the port hard-down: TCP transmissions raise
  :class:`LinkDownError` in the sender, and the verbs datapath turns it into
  transport-retry exhaustion (``WCStatus.RETRY_EXC_ERR``);
* a **drop window** loses individual messages with a seeded probability --
  RC and TCP both recover by retransmission, so drops surface as latency,
  not errors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import obs
from repro.sim.core import Simulator
from repro.sim.cluster import Cluster, Node
from repro.sim.sync import Resource
from repro.sim.units import Gbps, us

__all__ = ["Fabric", "FabricParams", "LinkDownError", "Port"]


class LinkDownError(ConnectionError):
    """Transmission attempted while the link is in a down window."""


@dataclass(frozen=True)
class FabricParams:
    """Physical-layer constants (InfiniBand EDR, Section 5.1)."""

    link_rate: float = 100 * Gbps   # bytes/second payload rate
    wire_latency: float = 1.0 * us  # one-way propagation incl. switch hop
    per_message_wire_overhead: int = 30  # headers/CRC bytes per message
    #: retransmission delay charged per message lost in a drop window
    retransmit_timeout: float = 200 * us


class Port:
    """One node's full-duplex attachment to the switch."""

    def __init__(self, sim: Simulator, node: Node, params: FabricParams):
        self.sim = sim
        self.node = node
        self.params = params
        self.tx = Resource(sim, 1)
        self.rx = Resource(sim, 1)
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        # Fault windows, evaluated against sim.now (see module docstring).
        self._down_windows: List[Tuple[float, float]] = []
        self._drop_windows: List[Tuple[float, float, float, random.Random]] = []
        self.faults_seen = 0     # messages refused by a down window
        self.drops = 0           # messages lost in a drop window

    def wire_time(self, nbytes: int) -> float:
        return (nbytes + self.params.per_message_wire_overhead) / self.params.link_rate

    # -- fault windows -------------------------------------------------------
    def schedule_down(self, start: float, end: float) -> None:
        """Mark the port hard-down for ``[start, end)`` of simulated time."""
        if end <= start:
            raise ValueError("down window must have positive duration")
        self._down_windows.append((start, end))

    def schedule_drops(self, start: float, end: float, drop_prob: float,
                       seed: int = 0) -> None:
        """Lose messages with probability ``drop_prob`` during the window.

        Each window owns its seeded RNG, so the drop pattern is a pure
        function of (seed, sequence of transmissions) -- deterministic under
        the deterministic event loop.
        """
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if end <= start:
            raise ValueError("drop window must have positive duration")
        self._drop_windows.append((start, end, drop_prob,
                                   random.Random(seed)))

    def is_down(self, at: float) -> bool:
        if not self._down_windows:      # the common case: no faults armed
            return False
        return any(s <= at < e for s, e in self._down_windows)

    def roll_drop(self, at: float) -> bool:
        """One drop decision for a message crossing this port at ``at``."""
        for s, e, p, rng in self._drop_windows:
            if s <= at < e and rng.random() < p:
                self.drops += 1
                return True
        return False


class Fabric:
    """A single-switch network over a cluster's nodes."""

    def __init__(self, sim: Simulator, cluster: Cluster,
                 params: FabricParams | None = None):
        self.sim = sim
        self.cluster = cluster
        self.params = params or FabricParams()
        self.ports: Dict[str, Port] = {
            node.name: Port(sim, node, self.params) for node in cluster
        }
        reg = obs.current()
        if reg is not None:
            reg.probe("netfab", self._probe_totals)

    def _probe_totals(self) -> Dict[str, int]:
        """Fabric-wide port counter totals (read lazily at snapshot time)."""
        totals = {"bytes_sent": 0, "bytes_received": 0, "messages_sent": 0,
                  "drops": 0, "faults_seen": 0}
        for port in self.ports.values():
            totals["bytes_sent"] += port.bytes_sent
            totals["bytes_received"] += port.bytes_received
            totals["messages_sent"] += port.messages_sent
            totals["drops"] += port.drops
            totals["faults_seen"] += port.faults_seen
        return totals

    def port_of(self, node: Node) -> Port:
        return self.ports[node.name]

    # -- fault interface (used by the verbs datapath and the injector) -------
    def link_down(self, a: Node, b: Node) -> bool:
        """True when the path a<->b is inside a down window right now."""
        now = self.sim.now
        return (self.ports[a.name].is_down(now)
                or self.ports[b.name].is_down(now))

    def roll_drop(self, src: Node, dst: Node) -> bool:
        """One seeded drop decision for a message src->dst at sim.now."""
        now = self.sim.now
        # Either endpoint's drop window can lose the message; short-circuit
        # keeps at most one RNG draw per port per message (deterministic).
        if self.ports[src.name].roll_drop(now):
            return True
        return src is not dst and self.ports[dst.name].roll_drop(now)

    def transmit(self, src: Node, dst: Node, nbytes: int,
                 rate_cap: float | None = None):
        """Coroutine: move ``nbytes`` from src's NIC to dst's NIC.

        Returns (via StopIteration) the simulated arrival time.  ``rate_cap``
        lets a slower upper layer (IPoIB TCP) bound its achievable rate below
        the raw link rate.  Raises :class:`LinkDownError` in the *sender's*
        process when the path is inside a down window; messages in drop
        windows are retransmitted after a timeout (loss shows up as latency).
        """
        if nbytes < 0:
            raise ValueError("negative transmit size")
        sp = self.ports[src.name]
        dp = self.ports[dst.name]
        # transmit() runs inline in the sender's process (TcpConn.send
        # delegates here per segment), so a traced RPC's context is on the
        # active process -- record the wire time as a "network" stage.
        ap = self.sim.active_process
        ctx = ap.trace_ctx if ap is not None else None
        t0 = self.sim.now
        if self.link_down(src, dst):
            sp.faults_seen += 1
            raise LinkDownError(
                f"link {src.name}->{dst.name} is down at t={self.sim.now}")
        while self.roll_drop(src, dst):
            # Lost on the wire: the reliable layer above (TCP / RC) waits a
            # retransmission timeout and tries again.
            yield self.sim.timeout(self.params.retransmit_timeout)
            if self.link_down(src, dst):
                sp.faults_seen += 1
                raise LinkDownError(
                    f"link {src.name}->{dst.name} went down during "
                    f"retransmission at t={self.sim.now}")
        ser = sp.wire_time(nbytes)
        if rate_cap is not None:
            ser = max(ser, nbytes / rate_cap)
        # Loopback still costs serialization through the NIC but skips the
        # wire; real IB HCAs loop back internally.
        yield from sp.tx.use(ser)
        sp.bytes_sent += nbytes
        sp.messages_sent += 1
        if src is not dst:
            yield self.sim.timeout(self.params.wire_latency)
            yield from dp.rx.use(ser)
        dp.bytes_received += nbytes
        if ctx is not None:
            ctx.stage("network", t0, self.sim.now, nbytes=nbytes,
                      transport="tcp")
        return self.sim.now
