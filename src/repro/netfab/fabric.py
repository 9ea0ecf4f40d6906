"""The switched fabric: per-node full-duplex ports and wire timing.

Model
-----
Every node has one port with independent TX and RX sides.  Sending ``n``
bytes from A to B:

1. occupies A's TX side for ``n / rate`` (serialization onto the wire),
2. propagates for ``wire_latency`` (cables + one switch hop),
3. occupies B's RX side for ``n / rate`` (arrival serialization -- this is
   what produces incast queueing when many clients target one server),
   booked when the frame leaves A's TX side for when it arrives.

Steady-state pipelined throughput of a flow is the full link ``rate``
(successive messages overlap stages); single-message latency is
``2*n/rate + wire_latency``, which slightly over-counts serialization for a
store-and-forward switch -- absorbed into calibration, since only relative
protocol behaviour matters for the reproduction.

Each side of a port is a :class:`~repro.sim.sync.Lane`: a FIFO server
whose every holder leaves after a fixed time is fully described by the
time it next falls free, so occupying it is one timeout at
``max(now, free_at) + duration`` -- no acquire event, no waiter queue.  A
frame that has been booked onto a side leaves whole: a TCP sender
interrupted mid-serialization keeps the port until its last byte is out.

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
from repro.sim.sync import Lane
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
        self.tx = Lane(sim)
        self.rx = Lane(sim)
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

    # -- a path: this port to ``dst`` ----------------------------------------
    def path_down(self, dst: "Port", at: float) -> bool:
        """True when the path to ``dst`` is inside a down window at ``at``."""
        return self.is_down(at) or dst.is_down(at)

    def path_drop(self, dst: "Port", at: float) -> bool:
        """One seeded drop decision for a message to ``dst`` at ``at``."""
        # Either endpoint's drop window can lose the message; short-circuit
        # keeps at most one RNG draw per port per message (deterministic).
        return self.roll_drop(at) or (dst is not self and dst.roll_drop(at))


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
        if sp.path_down(dp, t0):
            sp.faults_seen += 1
            raise LinkDownError(
                f"link {src.name}->{dst.name} is down at t={self.sim.now}")
        while sp.path_drop(dp, self.sim.now):
            # Lost on the wire: the reliable layer above (TCP / RC) waits a
            # retransmission timeout and tries again.
            yield self.sim.timeout(self.params.retransmit_timeout)
            if sp.path_down(dp, self.sim.now):
                sp.faults_seen += 1
                raise LinkDownError(
                    f"link {src.name}->{dst.name} went down during "
                    f"retransmission at t={self.sim.now}")
        ser = sp.wire_time(nbytes)
        if rate_cap is not None:
            ser = max(ser, nbytes / rate_cap)
        # Loopback still costs serialization through the NIC but skips the
        # wire; real IB HCAs loop back internally.  The RX side is booked as
        # the frame leaves, for when it arrives (``Lane.hold``'s ``after``).
        yield sp.tx.hold(ser)
        sp.bytes_sent += nbytes
        sp.messages_sent += 1
        if src is not dst:
            yield dp.rx.hold(ser, after=self.params.wire_latency)
        dp.bytes_received += nbytes
        if ctx is not None:
            ctx.stage("network", t0, self.sim.now, nbytes=nbytes,
                      transport="tcp")
        return self.sim.now
