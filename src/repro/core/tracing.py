"""Per-call RPC tracing.

A :class:`Tracer` attached to a :class:`~repro.core.engine.HatRpcEngine`
records one span per routed call -- function, channel, protocol, request /
response sizes, and simulated start/end times -- and summarizes them per
function.  Useful for verifying what the hint machinery actually did in an
application (see ``examples/quickstart.py``-style plan inspection for the
static view; spans are the dynamic one).

Zero overhead when not attached: the engine only calls into a tracer when
one is installed (``engine.tracer``, one attribute check per call).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

__all__ = ["CallSpan", "FaultCounters", "FunctionSummary", "Tracer",
           "TunerDecision", "attach_tracer"]


@dataclass
class FaultCounters:
    """Recovery-path instrumentation, owned by the engine.

    Every recovery mechanism bumps exactly one counter per decision, so a
    scenario's counters are as replayable as its fault trace.
    """

    retries: int = 0                  # backoff-then-resend decisions
    timeouts: int = 0                 # per-call deadlines that fired
    reconnects: int = 0               # channels discarded for reopening
    failovers: int = 0                # calls routed off their primary channel
    failbacks: int = 0                # calls returned to a recovered primary
    breaker_opens: int = 0            # circuit-breaker CLOSED/HALF_OPEN -> OPEN
    blind_retries_prevented: int = 0  # non-idempotent resends refused
    channel_failures: int = 0         # transport errors observed on channels
    reroutes: int = 0                 # swept calls handed to another engine
    rejections: int = 0               # typed REJECTED responses received
    rejected_retries: int = 0         # rejection retries taken (post-backoff)
    budget_exhausted: int = 0         # retries refused by the retry budget

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def summary_line(self) -> str:
        return ("retries={retries} timeouts={timeouts} "
                "reconnects={reconnects} failovers={failovers} "
                "failbacks={failbacks} breaker_opens={breaker_opens} "
                "blind_retries_prevented={blind_retries_prevented} "
                "channel_failures={channel_failures}"
                .format(**self.as_dict()))


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


@dataclass(frozen=True)
class CallSpan:
    """One routed RPC call."""

    function: str
    channel: int
    protocol: str
    transport: str
    request_bytes: int
    response_bytes: int
    start: float
    end: float

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class FunctionSummary:
    function: str
    calls: int = 0
    total_latency: float = 0.0
    request_bytes: int = 0
    response_bytes: int = 0
    protocols: set = field(default_factory=set)

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.calls if self.calls else 0.0


class Tracer:
    """Collects spans; attach with :func:`attach_tracer`.

    ``faults`` is bound by :func:`attach_tracer` to the *engine's*
    :class:`FaultCounters` instance -- the tracer never owns a second set
    of counters, so every recovery decision bumps exactly one counter.
    """

    def __init__(self, max_spans: Optional[int] = None):
        self.max_spans = max_spans
        self.spans: List[CallSpan] = []
        self.dropped = 0
        self.faults: Optional[FaultCounters] = None

    def record(self, span: CallSpan) -> None:
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    def by_function(self) -> Dict[str, FunctionSummary]:
        out: Dict[str, FunctionSummary] = {}
        for span in self.spans:
            s = out.setdefault(span.function,
                               FunctionSummary(span.function))
            s.calls += 1
            s.total_latency += span.latency
            s.request_bytes += span.request_bytes
            s.response_bytes += span.response_bytes
            s.protocols.add(span.protocol or span.transport)
        return out

    def summary_lines(self) -> List[str]:
        lines = [f"{'function':16s} {'calls':>6s} {'mean lat':>10s} "
                 f"{'req B':>10s} {'resp B':>10s}  protocols"]
        for name, s in sorted(self.by_function().items()):
            lines.append(
                f"{name:16s} {s.calls:6d} {s.mean_latency * 1e6:8.2f}us "
                f"{s.request_bytes:10d} {s.response_bytes:10d}  "
                f"{','.join(sorted(s.protocols))}")
        if self.dropped:
            lines.append(f"({self.dropped} spans dropped at "
                         f"max_spans={self.max_spans})")
        if self.faults is not None and any(self.faults.as_dict().values()):
            lines.append("faults: " + self.faults.summary_line())
        return lines


def attach_tracer(engine, tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` on ``engine``: every served call -- blocking,
    ``call_async`` or router traffic alike -- records one span at the
    engine's single success site."""
    tracer = tracer or Tracer()
    tracer.faults = engine.faults
    engine.tracer = tracer
    return tracer
