"""Closed-loop hint auto-tuning: Figure 6's selection algorithm, online.

The paper's hints are static IDL declarations: the author states the
expected payload size and concurrency, the selector maps them to a
protocol/polling choice, and the plan is fixed at build time.  Declared
hints go stale the moment the workload shifts -- and the attribution layer
already measures exactly the per-(function, payload-class) stage costs the
selection was predicated on.  :class:`HintTuner` closes that loop:

* every completed call feeds one ``(payload, latency)`` sample into a
  :class:`~repro.obs.attribution.WindowedAttribution` keyed by
  ``(function, payload_class, choice)``;
* every ``epoch_samples`` observations per function, the tuner re-runs
  :func:`~repro.core.selector.select_protocol` with the *observed* p95
  payload (and declared or observed concurrency) in place of the declared
  hints;
* when the re-resolved choice differs from the live one, the switch is
  gated by **hysteresis** -- the same target must win ``confirm_epochs``
  consecutive epochs, a minimum dwell time must have passed since the
  last switch, the per-function switch rate is capped, and (once both
  choices have confident measurement windows) the candidate must beat the
  incumbent's p50 by ``improvement_threshold`` -- so the tuner cannot
  flap;
* an accepted switch calls ``engine.retarget``: pure client-side
  re-routing onto a channel the tunable plan already provisioned (and the
  server is already serving), so both peers converge without any wire
  negotiation.  The tuner's **plan epoch** rides on every request
  (the frame header's ``epoch`` field) and is echoed by the server; samples whose echoed
  epoch predates the current plan are dropped as stale -- the split-brain
  guard for calls in flight across a switch.

Declared hints remain the fallback throughout: below-confidence windows
never switch, a disabled tuner observes nothing, and an engine with no
tuner attached pays one ``is None`` check per call -- zero-cost-when-off
like the rest of the observability stack.

A post-switch **revert watch** keeps the loop honest: if the switched-to
choice's measured p50 regresses beyond ``revert_threshold`` against the
pre-switch baseline, the tuner switches back and puts the failed choice on
an epoch cooldown.

One tuner may be shared by every client engine of a service (they must be
built from the same hint map): samples pool across engines -- which is
what makes convergence fast at high client counts -- and a switch
re-routes all of them together.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.core.selector import ProtocolChoice, select_protocol
from repro.obs.attribution import (StageStats, WindowedAttribution,
                                   payload_class)

__all__ = ["HintTuner", "TunerConfig", "TunerDecision"]

#: the attribution stage name the tuner's end-to-end samples land under
CALL_STAGE = "call"


def _choice_label(protocol: str, poll) -> str:
    return f"{protocol or 'tcp'}/{poll.value}"


@dataclass(frozen=True)
class TunerConfig:
    """Hysteresis and confidence knobs for one :class:`HintTuner`."""

    #: ring-buffer depth per (function, payload-class, choice) window
    window: int = 128
    #: minimum samples before ANY decision (the confidence floor: below
    #: it, declared hints stand)
    min_samples: int = 16
    #: observations per function between decision points (the epoch)
    epoch_samples: int = 32
    #: consecutive epochs the same target must win before a switch
    confirm_epochs: int = 2
    #: minimum sim time between switches of the same function
    min_dwell: float = 5e-4
    #: measured-vs-measured gate: the candidate's p50 must beat the
    #: incumbent's by this fraction (only once both windows are confident;
    #: an unmeasured candidate switches on the selector's prior)
    improvement_threshold: float = 0.05
    #: post-switch regression that triggers a revert.  Deliberately loose:
    #: the baseline window predates the switch, and comparing latency
    #: windows across eras is noisy under contention -- the forward
    #: improvement gate is the optimizer, the revert is the safety net
    #: against a selection that is *egregiously* wrong in practice.
    revert_threshold: float = 2.0
    #: epochs a reverted-from choice stays blocked
    cooldown_epochs: int = 8
    #: switch-rate cap: at most this many switches per function ...
    max_switch_rate: int = 4
    #: ... within this much sim time
    rate_window: float = 1e-2
    #: 'declared' re-resolves with the hinted concurrency; 'observed'
    #: uses the number of engines sharing this tuner (one per client
    #: connection in the runtime)
    concurrency_source: str = "declared"
    #: a disabled tuner observes nothing: declared hints stand untouched
    enabled: bool = True


@dataclass(frozen=True)
class TunerDecision:
    """One online-tuner re-plan: the replayable record of a switch/revert.

    The tuner appends one per acted-on decision (holds are counted, not
    recorded) and mirrors it into the engine's fault trace / distributed
    trace as a ``tuner_switch`` / ``tuner_revert`` event, so a converged
    run's decision sequence is as inspectable as its fault sequence.
    """

    time: float                 # sim time of the decision
    function: str
    kind: str                   # 'switch' | 'revert'
    from_choice: str            # 'protocol/poll' labels
    to_choice: str
    channel: int                # target ChannelPlan.index
    epoch: int                  # plan epoch AFTER the decision
    reason: str

    def label(self) -> str:
        return (f"[{self.kind}] {self.function}: {self.from_choice} -> "
                f"{self.to_choice} (ch{self.channel}, epoch {self.epoch}; "
                f"{self.reason})")


@dataclass
class _FnState:
    payloads: Deque[int]
    seen: int = 0
    epochs: int = 0
    holds: int = 0
    pending: Optional[str] = None
    pending_choice: Optional[ProtocolChoice] = None
    pending_count: int = 0
    last_switch: float = float("-inf")
    switch_times: Deque[float] = field(default_factory=deque)
    #: (choice_key, channel, choice, measured_p50, payload_class) of the
    #: incumbent at the moment of the last switch -- the revert baseline
    prev: Optional[Tuple[str, int, ProtocolChoice, float, str]] = None
    cooldown: Dict[str, int] = field(default_factory=dict)


class HintTuner:
    """Online re-resolution of protocol/polling choices from live stats.

    Attach with ``engine.attach_tuner(tuner)`` (repeatable across engines
    built from the same tunable plan).  The engine feeds :meth:`observe`
    on every completed call and :meth:`observe_error` on oversize
    failures; everything else is internal.
    """

    def __init__(self, config: Optional[TunerConfig] = None):
        self.cfg = config or TunerConfig()
        self.enabled = self.cfg.enabled
        #: monotonically increasing plan epoch; rides on the wire
        self.epoch = 0
        self.decisions: List[TunerDecision] = []
        #: observers called with each TunerDecision as it lands (the phased
        #: bench harness annotates epoch switches into its live stream)
        self.on_decision: List[Any] = []
        self.switches = 0
        self.reverts = 0
        self.holds = 0
        self.stale_samples = 0
        self.urgent_switches = 0
        self._engines: List[Any] = []
        self._attr = WindowedAttribution(window=self.cfg.window)
        self._fns: Dict[str, _FnState] = {}
        # -- metrics (captured once; None = obs disabled) --
        reg = obs.current()
        if reg is not None:
            self._m_switch = reg.counter("tuner.switches")
            self._m_revert = reg.counter("tuner.reverts")
            self._m_hold = reg.counter("tuner.holds")
            self._m_stale = reg.counter("tuner.stale_samples")
            self._m_epoch = reg.gauge("tuner.epoch")
        else:
            self._m_switch = self._m_revert = None
            self._m_hold = self._m_stale = self._m_epoch = None

    # -- wiring --------------------------------------------------------------
    def bind(self, engine) -> None:
        """Called by ``engine.attach_tuner``; engines must share the same
        hint-map-derived plan shape (identical channel indices)."""
        if engine in self._engines:
            return
        if self._engines and self.epoch:
            # A late joiner starts from the declared plan; bring its routes
            # up to the tuner's current epoch, or a wave of post-switch
            # connections would pile back onto the channel the fleet just
            # left (and, busy-polled, pin server cores all over again).
            live = self._engines[0].plan.routes
            for fn, route in live.items():
                mine = engine.plan.routes.get(fn)
                if mine is not None and (mine.channel != route.channel
                                         or mine.choice != route.choice):
                    engine.retarget(fn, route.channel, route.choice)
        self._engines.append(engine)

    # -- the sample feed -----------------------------------------------------
    def observe(self, fn: str, nbytes: int, latency: float, now: float,
                channel: int, epoch_ok: bool = True) -> None:
        """One completed call: payload size, end-to-end latency, and the
        channel it actually ran on (failovers attribute to the channel
        that served them, not the nominal route)."""
        if not self.enabled or not self._engines:
            return
        if not epoch_ok:
            # Issued under an older plan epoch: attributing it to the
            # current choice would poison the window that just justified
            # the switch.
            self.stale_samples += 1
            if self._m_stale is not None:
                self._m_stale.inc()
            return
        eng = self._engines[0]
        channels = eng.plan.channels
        if not (0 <= channel < len(channels)):
            return
        ch = channels[channel]
        key = _choice_label(ch.protocol, ch.server_poll)
        st = self._state(fn)
        st.payloads.append(nbytes)
        self._attr.observe((fn, payload_class(nbytes), key), CALL_STAGE,
                           latency)
        st.seen += 1
        if st.seen >= self.cfg.epoch_samples:
            st.seen = 0
            st.epochs += 1
            self._decide(fn, st, now)

    def observe_error(self, fn: str, nbytes: int, channel: int) -> None:
        """An oversize failure (request exceeds the channel's buffers):
        the declared payload hint is provably wrong, so retarget urgently
        -- no confirmation epochs, no dwell -- onto a channel that fits."""
        if not self.enabled or not self._engines:
            return
        eng = self._engines[0]
        route = eng.plan.routes.get(fn)
        if route is None:
            return
        cur_ch = eng.plan.channels[route.channel]
        if nbytes <= cur_ch.max_msg:
            return                      # some other protocol failure
        now = eng.node.sim.now
        conc = self._concurrency(route)
        target = select_protocol(replace(route.server_hints,
                                         payload_size=nbytes,
                                         concurrency=conc))
        idx = self._find_channel(eng, target, nbytes)
        choice = target
        if idx is None:
            # No channel matches the re-resolved choice at this size;
            # any RDMA channel that fits beats calls that cannot be sent.
            fits = [c for c in eng.plan.channels
                    if c.transport == "rdma" and c.max_msg >= nbytes
                    and c.index != route.channel]
            if not fits:
                self._hold(self._state(fn), "oversize: no channel fits")
                return
            ch = min(fits, key=lambda c: c.max_msg)
            idx = ch.index
            choice = ProtocolChoice("rdma", ch.protocol, ch.server_poll,
                                    "tuner urgent oversize retarget")
        st = self._state(fn)
        self.urgent_switches += 1
        self._apply(fn, st, idx, choice, now, kind="switch",
                    reason=f"urgent: {nbytes}B exceeds channel max_msg "
                           f"{cur_ch.max_msg}")

    # -- the decision loop ---------------------------------------------------
    def _decide(self, fn: str, st: _FnState, now: float) -> None:
        eng = self._engines[0]
        route = eng.plan.routes[fn]
        cur = route.choice
        cur_key = _choice_label(cur.protocol, cur.poll_mode)

        if len(st.payloads) < self.cfg.min_samples:
            self._hold(st, "below confidence")
            return
        svals = sorted(st.payloads)
        p95_payload = svals[min(len(svals) - 1, (len(svals) * 95) // 100)]
        cls = payload_class(p95_payload)
        conc = self._concurrency(route)
        target = select_protocol(replace(route.server_hints,
                                         payload_size=p95_payload,
                                         concurrency=conc))
        tgt_key = _choice_label(target.protocol, target.poll_mode)

        # Revert watch: the last switch must prove itself once its window
        # fills; a regression beyond the threshold rolls it back and puts
        # the failed choice on cooldown.
        if st.prev is not None:
            prev_key, prev_idx, prev_choice, prev_p50, prev_cls = st.prev
            new_stats = self.stats(fn, prev_cls, cur_key)
            if new_stats is not None \
                    and new_stats.count >= self.cfg.min_samples:
                if prev_p50 > 0 and new_stats.p50 > prev_p50 * (
                        1 + self.cfg.revert_threshold):
                    st.cooldown[cur_key] = st.epochs + \
                        self.cfg.cooldown_epochs
                    st.prev = None
                    self.reverts += 1
                    if self._m_revert is not None:
                        self._m_revert.inc()
                    self._apply(fn, st, prev_idx, prev_choice, now,
                                kind="revert",
                                reason=f"p50 {new_stats.p50:.3e} vs "
                                       f"baseline {prev_p50:.3e}")
                    return
                st.prev = None          # the switch held up

        if target.transport == cur.transport and tgt_key == cur_key:
            st.pending = None
            st.pending_count = 0
            self._hold(st, "steady")
            return
        if st.cooldown.get(tgt_key, 0) > st.epochs:
            self._hold(st, "cooldown")
            return
        if st.pending != tgt_key:
            st.pending = tgt_key
            st.pending_choice = target
            st.pending_count = 1
        else:
            st.pending_count += 1
        if st.pending_count < self.cfg.confirm_epochs:
            self._hold(st, "awaiting confirmation")
            return
        if now - st.last_switch < self.cfg.min_dwell:
            self._hold(st, "dwell")
            return
        if not self._rate_ok(st, now):
            self._hold(st, "switch rate capped")
            return
        cur_stats = self.stats(fn, cls, cur_key)
        cand_stats = self.stats(fn, cls, tgt_key)
        if (cur_stats is not None and cand_stats is not None
                and cur_stats.count >= self.cfg.min_samples
                and cand_stats.count >= self.cfg.min_samples
                and cand_stats.p50 > cur_stats.p50 * (
                    1 - self.cfg.improvement_threshold)):
            self._hold(st, "improvement below threshold")
            return
        idx = self._find_channel(eng, target, max(st.payloads))
        if idx is None:
            self._hold(st, "no channel for target choice")
            return
        st.prev = (cur_key, route.channel, cur,
                   cur_stats.p50 if cur_stats is not None else 0.0, cls)
        st.pending = None
        st.pending_count = 0
        self._apply(fn, st, idx, target, now, kind="switch",
                    reason=f"re-resolved @ payload~{p95_payload}B "
                           f"c={conc}")

    def _apply(self, fn: str, st: _FnState, idx: int,
               choice: ProtocolChoice, now: float, kind: str,
               reason: str) -> None:
        eng = self._engines[0]
        from_choice = eng.plan.routes[fn].choice
        for engine in self._engines:
            engine.retarget(fn, idx, choice)
        self.epoch += 1
        st.last_switch = now
        st.switch_times.append(now)
        if kind == "switch":
            self.switches += 1
            if self._m_switch is not None:
                self._m_switch.inc()
        if self._m_epoch is not None:
            self._m_epoch.set(self.epoch)
        decision = TunerDecision(
            time=now, function=fn, kind=kind,
            from_choice=_choice_label(from_choice.protocol,
                                      from_choice.poll_mode),
            to_choice=_choice_label(choice.protocol, choice.poll_mode),
            channel=idx, epoch=self.epoch, reason=reason)
        self.decisions.append(decision)
        for hook in self.on_decision:
            hook(decision)
        for engine in self._engines:
            engine._trace(f"tuner_{kind}", fn, idx,
                          f"{decision.from_choice}->{decision.to_choice} "
                          f"epoch={self.epoch}")

    # -- helpers -------------------------------------------------------------
    def _state(self, fn: str) -> _FnState:
        st = self._fns.get(fn)
        if st is None:
            st = _FnState(payloads=deque(maxlen=self.cfg.window))
            self._fns[fn] = st
        return st

    def _hold(self, st: _FnState, reason: str) -> None:
        st.holds += 1
        self.holds += 1
        if self._m_hold is not None:
            self._m_hold.inc()

    def _rate_ok(self, st: _FnState, now: float) -> bool:
        cutoff = now - self.cfg.rate_window
        while st.switch_times and st.switch_times[0] < cutoff:
            st.switch_times.popleft()
        return len(st.switch_times) < self.cfg.max_switch_rate

    def _concurrency(self, route) -> int:
        if self.cfg.concurrency_source == "observed":
            return max(len(self._engines), 1)
        return route.server_hints.concurrency

    def _find_channel(self, eng, choice: ProtocolChoice,
                      need: int) -> Optional[int]:
        """The lowest-index plan channel serving ``choice`` whose buffers
        fit the observed payloads (declared channels beat alternates)."""
        best = None
        for ch in eng.plan.channels:
            if (ch.transport != choice.transport
                    or ch.protocol != choice.protocol
                    or ch.server_poll != choice.poll_mode
                    or ch.max_msg < need):
                continue
            if best is None or (best.alternate and not ch.alternate):
                best = ch
        return best.index if best is not None else None

    def stats(self, fn: str, cls: str, choice_key: str
              ) -> Optional[StageStats]:
        """The live window stats for one (function, class, choice)."""
        return self._attr.stats((fn, cls, choice_key), CALL_STAGE)

    def epochs(self, fn: str) -> int:
        st = self._fns.get(fn)
        return st.epochs if st is not None else 0

    def summary_lines(self) -> List[str]:
        lines = [f"tuner: epoch={self.epoch} switches={self.switches} "
                 f"reverts={self.reverts} holds={self.holds} "
                 f"stale={self.stale_samples} "
                 f"urgent={self.urgent_switches}"]
        for d in self.decisions:
            lines.append("  " + d.label())
        return lines
