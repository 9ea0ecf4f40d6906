"""Phased long-run benchmark harness.

A one-shot benchmark snapshots cumulative metrics at the end of the run,
so warmup pollution, tuner epoch switches, admission shed waves, and
shard imbalance are invisible *as they happen*.  :class:`PhasedRun`
structures a run into explicit phases::

    WARMUP -> MEASUREMENT -> COOLDOWN

after an optional ``prepare`` (bulk load, connects) that belongs to no
phase, and attributes every operation to the phase in which it
**started** -- an op that begins in WARMUP and completes in MEASUREMENT
is warmup work, so MEASUREMENT numbers provably exclude the warmup
window.  Each phase
becomes its own :class:`~repro.bench.report.BenchRecord` (record name
``<name>.<phase>``), every phase with the same metric cells.

The run's one record of what happened *during* it is the sampler's
JSONL stream; the harness writes into it rather than keeping its own:

* give it a :class:`~repro.obs.timeseries.MetricsSampler` and every
  phase transition is stamped into the sampler's tags (so each stream
  sample is phase-attributed) and emitted as a typed ``phase`` event --
  the phase's only record, there is no phase gauge;
* :meth:`annotate` writes one typed event into the stream;
  :meth:`watch_tuner` / :meth:`watch_admission` subscribe to the
  :class:`~repro.core.tuner.HintTuner` decision hook and the
  :class:`~repro.overload.AdmissionGate` high-water hook, and
  detect shed waves from the sampled rejection rate, so hint epoch
  switches and load shedding land in the stream with zero
  bench-specific glue.

Driving pattern (the ``benchmarks/`` suite uses exactly this shape)::

    run = PhasedRun(sim, name="ycsb_b", warmup=..., measurement=...,
                    cooldown=..., registry=reg, sampler=sampler)
    driver = sim.process(run.drive(prepare=load_records()))
    procs = [sim.process(client(i)) for i in range(n)]   # loop while not run.stopped
    sim.run(until=driver)            # phases elapse
    sim.run(until=AllOf(sim, procs)) # in-flight ops drain
    run.stop()                       # final sample + sampler halt
    sim.run()                        # heap drains normally
    run.emit_phase_records("fig16", "ycsb_b", config={...})

A :class:`Scenario` names one workload cell (skew, value size, optional
:class:`StormSpec`) and yields the ``config`` a bench records with it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.bench.report import SINK, BenchRecord, bench_scale, metric
from repro.bench.stats import LatencyStats
from repro.sim.core import Simulator
from repro.sim.units import us

__all__ = [
    "Phase",
    "PhaseWindow",
    "PhasedRun",
    "Scenario",
    "StormSpec",
]


class Phase(enum.Enum):
    """Benchmark lifecycle phases, in order."""

    WARMUP = "warmup"
    MEASUREMENT = "measurement"
    COOLDOWN = "cooldown"

    def __str__(self) -> str:  # pragma: no cover - display aid
        return self.value


PHASE_ORDER = [Phase.WARMUP, Phase.MEASUREMENT, Phase.COOLDOWN]


@dataclass
class PhaseWindow:
    """One phase's time window; ``end`` is None while the phase is open."""

    phase: Phase
    start: float
    end: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"phase {self.phase.value} still open")
        return self.end - self.start

    def contains(self, t: float) -> bool:
        return self.start <= t and (self.end is None or t < self.end)


def _annotate_fields(obj: Any) -> Dict[str, Any]:
    """Flatten a decision/event object into JSON-able annotation attrs."""
    if is_dataclass(obj) and not isinstance(obj, type):
        raw = {f.name: getattr(obj, f.name) for f in fields(obj)}
    elif isinstance(obj, dict):
        raw = dict(obj)
    else:                                  # pragma: no cover - fallback
        raw = {k: v for k, v in vars(obj).items()
               if not k.startswith("_")}
    out: Dict[str, Any] = {}
    for k, v in raw.items():
        if isinstance(v, (str, int, float, bool)) or v is None:
            out[k] = v
        elif isinstance(v, enum.Enum):
            out[k] = v.value
        else:
            out[k] = str(v)
    return out


class PhasedRun:
    """Drives the phase machine and attributes per-op results to phases."""

    def __init__(self, sim: Simulator, name: str, warmup: float,
                 measurement: float, cooldown: float = 0.0,
                 registry: Any = None, sampler: Any = None):
        for label, d in (("warmup", warmup), ("measurement", measurement),
                         ("cooldown", cooldown)):
            if d < 0:
                raise ValueError(f"{label} duration must be >= 0, got {d}")
        if measurement <= 0:
            raise ValueError("measurement duration must be positive")
        self.sim = sim
        self.name = name
        self.durations = {Phase.WARMUP: warmup,
                          Phase.MEASUREMENT: measurement,
                          Phase.COOLDOWN: cooldown}
        self.registry = registry
        self.sampler = sampler
        self.phase: Optional[Phase] = None
        self.windows: List[PhaseWindow] = []
        self.stopped = False
        self.on_phase: List[Callable[[Phase, float], None]] = []
        #: phase -> op name -> latency accumulator (start-time attribution)
        self.stats: Dict[Phase, Dict[str, LatencyStats]] = {
            p: {} for p in PHASE_ORDER}
        #: ops recorded before WARMUP opened / after COOLDOWN closed
        self.unattributed = 0
        self._started_sampler = False
        self._ops_counter = (registry.counter("bench.ops")
                             if registry is not None else None)

    # -- the phase machine ---------------------------------------------------
    def drive(self, prepare: Any = None) -> Iterator[Any]:
        """Generator to run as the driver process.

        ``prepare`` is an optional sub-generator (bulk load, connection
        setup) that runs to completion before WARMUP opens; it belongs to
        no phase, and an op recorded while it runs is unattributed.  The
        three phases then elapse by simulator timeouts.
        """
        if self.sampler is not None and not self.sampler.running:
            self.sampler.start()
            self._started_sampler = True
        if prepare is not None:
            yield from prepare
        for phase in PHASE_ORDER:
            self._enter(phase)
            if self.durations[phase] > 0:
                yield self.sim.timeout(self.durations[phase])
        self._close()

    def _enter(self, phase: Phase) -> None:
        now = self.sim.now
        if self.windows and self.windows[-1].end is None:
            self.windows[-1].end = now
        self.windows.append(PhaseWindow(phase, now))
        self.phase = phase
        if self.sampler is not None:
            self.sampler.tags["phase"] = phase.value
            self.sampler.event("phase", phase=phase.value, run=self.name)
        for hook in self.on_phase:
            hook(phase, now)

    def _close(self) -> None:
        now = self.sim.now
        if self.windows and self.windows[-1].end is None:
            self.windows[-1].end = now
        self.stopped = True
        if self.sampler is not None:
            self.sampler.event("phase", phase="done", run=self.name)

    def stop(self) -> None:
        """Call after the drive process (and clients) have completed:
        takes the final sample and halts a sampler this run started."""
        if not self.stopped:
            self._close()
        if self.sampler is not None and self._started_sampler:
            self.sampler.stop()
            self._started_sampler = False

    # -- attribution ---------------------------------------------------------
    def phase_of(self, t: float) -> Optional[Phase]:
        """Which phase a time instant belongs to (start-inclusive)."""
        for w in reversed(self.windows):
            if w.contains(t):
                return w.phase
        return None

    def record(self, op: str, latency: float,
               start: Optional[float] = None) -> None:
        """Record one completed operation.

        Attribution is by *start* time (default ``now - latency``): work
        that began before MEASUREMENT opened can never inflate it.
        """
        t0 = self.sim.now - latency if start is None else start
        phase = self.phase_of(t0)
        if phase is None:
            self.unattributed += 1
            return
        per_op = self.stats[phase]
        st = per_op.get(op)
        if st is None:
            st = per_op[op] = LatencyStats()
        st.record(latency)
        if self._ops_counter is not None:
            self._ops_counter.inc()
            self.registry.histogram(f"bench.op_latency.{op}").record(latency)

    def ops(self, phase: Phase) -> int:
        return sum(s.count for s in self.stats[phase].values())

    def window(self, phase: Phase) -> Optional[PhaseWindow]:
        for w in self.windows:
            if w.phase is phase:
                return w
        return None

    def throughput(self, phase: Phase) -> float:
        """Ops attributed to ``phase`` per second of its window."""
        w = self.window(phase)
        if w is None or w.end is None or w.duration <= 0:
            return 0.0
        return self.ops(phase) / w.duration

    # -- annotations ---------------------------------------------------------
    def annotate(self, kind: str, **attrs: Any) -> None:
        """One typed event in the sampler's stream, stamped with the
        current phase (a run without a sampler records none)."""
        if self.sampler is None:
            return
        # 'kind'/'t'/'phase' are the envelope; a payload field with one of
        # those names (e.g. TunerDecision.kind) is kept under a prefix.
        attrs = {(k if k not in ("kind", "t", "phase") else f"attr_{k}"): v
                 for k, v in attrs.items()}
        phase = self.phase.value if self.phase else None
        self.sampler.event(kind, phase=phase, **attrs)

    def watch_tuner(self, tuner: Any, label: str = "tuner") -> None:
        """Annotate every HintTuner decision (epoch switch/revert)."""

        def hook(d: Any) -> None:
            attrs = _annotate_fields(d)
            attrs["decision"] = attrs.pop("kind", "switch")
            attrs.pop("time", None)        # annotate stamps sim.now itself
            self.annotate("tuner_decision", tuner=label, **attrs)

        tuner.on_decision.append(hook)

    def watch_admission(self, gate: Any, label: str = "admission") -> None:
        """Annotate AdmissionGate high-water marks and shed waves.

        High-water events come from the gate's own hook; shed *waves*
        (rejection rate going nonzero / back to zero) are detected from
        the sampled ``admission.rejected.rate`` series, so one sustained
        storm is two annotations, not thousands.
        """
        gate.on_high_water.append(
            lambda occupancy: self.annotate(
                "admission_high_water", gate=label, occupancy=occupancy))
        if self.sampler is None:
            return
        state = {"shedding": False}

        def on_sample(t: float, metrics: Dict[str, float],
                      tags: Dict[str, Any]) -> None:
            rate = metrics.get("admission.rejected.rate", 0.0)
            if rate > 0 and not state["shedding"]:
                state["shedding"] = True
                self.annotate("admission_shed_start", gate=label,
                              rejected_rate=rate)
            elif rate == 0 and state["shedding"]:
                state["shedding"] = False
                self.annotate("admission_shed_end", gate=label)

        self.sampler.on_sample.append(on_sample)

    # -- reporting -----------------------------------------------------------
    def phase_metrics(self, phase: Phase) -> Dict[str, Dict[str, Any]]:
        """Metric cells for one phase's BenchRecord."""
        w = self.window(phase)
        out: Dict[str, Dict[str, Any]] = {}
        out["tput_kops"] = metric(round(self.throughput(phase) / 1e3, 2),
                                  unit="kops")
        out["ops"] = metric(self.ops(phase), unit="ops")
        if w is not None and w.end is not None:
            out["duration_us"] = metric(round(w.duration / us, 3), unit="us")
        for op, st in sorted(self.stats[phase].items()):
            if not st.count:
                continue
            for pname, val in (("p50", st.p50), ("p95", st.p95),
                               ("p99", st.p99)):
                out[f"lat_us.{op}.{pname}"] = metric(round(val / us, 3),
                                                     unit="us")
        return out

    def emit_phase_records(self, figure: str, name: Optional[str] = None,
                           config: Optional[Dict[str, Any]] = None,
                           **meta: Any) -> List[BenchRecord]:
        """One BenchRecord per elapsed phase (``<name>.<phase>``)."""
        name = name or self.name
        recs = []
        for phase in PHASE_ORDER:
            w = self.window(phase)
            if w is None:
                continue
            rec = BenchRecord(
                figure=figure, name=f"{name}.{phase.value}",
                scale=bench_scale(), config=dict(config or {}),
                metrics=self.phase_metrics(phase),
                meta={"phase": phase.value, "run": self.name, **meta})
            SINK.add(rec)
            recs.append(rec)
        return recs


@dataclass(frozen=True)
class StormSpec:
    """Overload-storm injection, placed relative to MEASUREMENT start.

    ``at`` and ``duration`` are offsets into the measurement window; the
    scenario runner turns this into a
    :class:`~repro.faults.plan.OverloadStorm` armed when MEASUREMENT
    opens (the injector interprets event times relative to arming).
    """

    at: float
    duration: float
    clients: int = 32


@dataclass(frozen=True)
class Scenario:
    """One named workload cell of a phased run."""

    name: str
    skew: float = 0.99            # zipfian theta (request skew)
    value_size: int = 100         # YCSB field_length (bytes per field)
    storm: Optional[StormSpec] = None

    def config(self) -> Dict[str, Any]:
        cfg: Dict[str, Any] = {"skew": self.skew,
                               "value_size": self.value_size}
        if self.storm is not None:
            cfg["storm"] = {"at": self.storm.at,
                            "duration": self.storm.duration,
                            "clients": self.storm.clients}
        return cfg
