"""Online SLO evaluation against live metric series.

An :class:`SloSpec` is a declarative statement about a *sampled* series
("``rpc.call.latency.p99 < 200us`` sustained for 500us").  The
:class:`SloWatchdog` attaches to a :class:`~repro.obs.timeseries.
MetricsSampler` and re-evaluates every spec on every sample tick:

* a sample that breaches the comparator starts (or extends) a *breach
  window*; a conforming sample closes it;
* only when the breach has been sustained for ``sustain`` simulated
  seconds does the spec fire **one** typed violation -- a single storm
  produces a single violation event, not one per sample;
* the spec re-arms only after it has *recovered* (a conforming sample),
  so flapping right at the threshold cannot double-fire mid-breach.

Violations and recoveries become typed ``slo_violation`` /
``slo_recovered`` events in the sampler's JSONL stream (what
``scripts/obs_dump.py --series`` renders as the SLO verdicts) and, when
a registry is given, counters in it (``slo.violations``,
``slo.<name>.violations``).

Specs over series that do not exist yet (e.g. a histogram that has not
recorded) simply stay PASS until the series appears; a missing metric is
"no data", not a breach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import MetricsSampler

__all__ = ["SloSpec", "SloState", "SloWatchdog", "SloViolation"]

_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
}


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a sampled series.

    ``metric`` names a *series* produced by the sampler (so histogram
    objectives use the derived names: ``rpc.call.latency.p99``), and the
    objective holds while ``value <comparator> threshold``.  ``sustain``
    is how long (sim seconds) the objective must be continuously violated
    before the watchdog raises -- 0 fires on the first breaching sample.
    """

    name: str
    metric: str
    comparator: str          # the *objective*: "<" means value must stay below
    threshold: float
    sustain: float = 0.0
    #: restrict evaluation to these harness phases (matched against the
    #: sampler's ``tags["phase"]``); None = always on.  A phased run's
    #: warmup churn is excluded from SLO verdicts exactly as it is from
    #: MEASUREMENT bench numbers.
    phases: Optional[Tuple[str, ...]] = None
    description: str = ""

    def __post_init__(self):
        if self.comparator not in _COMPARATORS:
            raise ValueError(
                f"unknown comparator {self.comparator!r}; "
                f"expected one of {sorted(_COMPARATORS)}")
        if self.sustain < 0:
            raise ValueError(f"sustain must be >= 0, got {self.sustain}")

    def ok(self, value: float) -> bool:
        return _COMPARATORS[self.comparator](value, self.threshold)


@dataclass
class SloViolation:
    """One fired violation (the sustained kind, not a single bad sample)."""

    slo: str
    metric: str
    t: float                 # when the violation *fired* (sustain elapsed)
    breach_start: float      # when the breach window began
    value: float             # the sample value at fire time
    threshold: float
    comparator: str
    phase: Optional[str] = None   # harness phase at fire time, if tagged
    recovered_t: Optional[float] = None


@dataclass
class SloState:
    """Evaluation state for one spec."""

    spec: SloSpec
    breach_start: Optional[float] = None   # None = currently conforming
    open_violation: Optional[SloViolation] = None
    violations: List[SloViolation] = field(default_factory=list)
    last_value: Optional[float] = None
    samples_seen: int = 0

    @property
    def status(self) -> str:
        if self.open_violation is not None:
            return "VIOLATED"
        if self.breach_start is not None:
            return "BREACHING"
        return "PASS" if self.samples_seen else "NO_DATA"


class SloWatchdog:
    """Evaluates :class:`SloSpec` s on every sampler tick.

    Attach with :meth:`attach`; the watchdog registers itself as an
    ``on_sample`` hook, and its typed events go to the sampler's stream.
    ``registry``, when given, also counts them.
    """

    def __init__(self, specs: List[SloSpec],
                 registry: Optional[MetricsRegistry] = None):
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.specs = list(specs)
        self.states: Dict[str, SloState] = {
            s.name: SloState(spec=s) for s in specs}
        self.registry = registry
        self.sampler: Optional[MetricsSampler] = None
        if registry is not None:
            self._violations_total = registry.counter("slo.violations")
            self._recovered_total = registry.counter("slo.recovered")
        else:
            self._violations_total = None
            self._recovered_total = None

    # -- wiring --------------------------------------------------------------
    def attach(self, sampler: MetricsSampler) -> "SloWatchdog":
        self.sampler = sampler
        sampler.on_sample.append(self.observe)
        return self

    # -- evaluation ----------------------------------------------------------
    def observe(self, t: float, metrics: Dict[str, float],
                tags: Dict[str, Any]) -> None:
        """One sampler tick: evaluate every spec that has data."""
        for st in self.states.values():
            if (st.spec.phases is not None
                    and tags.get("phase") not in st.spec.phases):
                # Out of scope: an accumulating breach window does not
                # carry across the boundary (a breach must be sustained
                # *within* the watched phases), but a fired violation
                # stays open so it can still record its recovery.
                st.breach_start = None
                continue
            value = metrics.get(st.spec.metric)
            if value is None:
                continue                 # no data this tick: state holds
            st.samples_seen += 1
            st.last_value = value
            if st.spec.ok(value):
                self._conform(st, t, value, tags)
            else:
                self._breach(st, t, value, tags)

    def _breach(self, st: SloState, t: float, value: float,
                tags: Dict[str, Any]) -> None:
        if st.breach_start is None:
            st.breach_start = t
        if st.open_violation is not None:
            return                       # already fired; wait for recovery
        if t - st.breach_start >= st.spec.sustain:
            v = SloViolation(
                slo=st.spec.name, metric=st.spec.metric, t=t,
                breach_start=st.breach_start, value=value,
                threshold=st.spec.threshold,
                comparator=st.spec.comparator,
                phase=tags.get("phase"))
            st.open_violation = v
            st.violations.append(v)
            self._emit("slo_violation", v)

    def _conform(self, st: SloState, t: float, value: float,
                 tags: Dict[str, Any]) -> None:
        fired = st.open_violation
        st.breach_start = None
        if fired is None:
            return
        fired.recovered_t = t
        st.open_violation = None
        self._emit("slo_recovered", fired, value=value,
                   phase=tags.get("phase"))

    def _emit(self, kind: str, v: SloViolation, **over: Any) -> None:
        attrs: Dict[str, Any] = {
            "slo": v.slo, "metric": v.metric, "value": v.value,
            "threshold": v.threshold, "comparator": v.comparator,
            "breach_start": v.breach_start, "phase": v.phase,
        }
        attrs.update(over)
        if self.registry is not None:
            if kind == "slo_violation":
                self._violations_total.inc()
                self.registry.counter(f"slo.{v.slo}.violations").inc()
            else:
                self._recovered_total.inc()
                self.registry.counter(f"slo.{v.slo}.recovered").inc()
        if self.sampler is not None:
            self.sampler.event(kind, **attrs)

    # -- reporting -----------------------------------------------------------
    @property
    def violations(self) -> List[SloViolation]:
        out: List[SloViolation] = []
        for st in self.states.values():
            out.extend(st.violations)
        out.sort(key=lambda v: v.t)
        return out

    def report(self) -> Dict[str, Any]:
        """JSON-able verdict summary (the CI artifact)."""
        slos = []
        for st in self.states.values():
            slos.append({
                "name": st.spec.name,
                "metric": st.spec.metric,
                "objective": (f"{st.spec.metric} {st.spec.comparator} "
                              f"{st.spec.threshold:g}"),
                "sustain": st.spec.sustain,
                "status": st.status,
                "samples": st.samples_seen,
                "last_value": st.last_value,
                "violations": [{
                    "t": v.t, "breach_start": v.breach_start,
                    "value": v.value, "phase": v.phase,
                    "recovered_t": v.recovered_t,
                } for v in st.violations],
            })
        return {
            "slos": slos,
            "total_violations": sum(len(s.violations)
                                    for s in self.states.values()),
            "ok": all(not st.violations and st.status != "VIOLATED"
                      for st in self.states.values()),
        }
