"""LMDB backend adapter: simulated costs + hint-driven tuning.

The paper stores LMDB's lock and data files in tmpfs with a 32 GB map
(Section 5.4), so backend cost is CPU + memory, not disk.  The adapter
charges per-operation simulated time derived from the live tree shape:

* a lookup touches ``depth`` pages (bisect within cache-resident pages);
* a write additionally path-copies ``depth`` pages (LMDB's copy-on-write);
* values are copied once between LMDB and the RPC layer;
* commits pay a sync barrier priced by the environment's sync mode.

Hint-driven tuning (Section 4.4): ``max_readers`` is set from the
concurrency hint, and the sync/commit strategy follows the perf goal of the
protocol chosen for the writing functions -- latency keeps NOSYNC immediate
commits, throughput batches commits (group commit), res_util keeps SYNC.

Every write goes through group commit with a batch cap: a write that finds
the writer idle leads a batch; writes that queue meanwhile wait for a later
one, led by the first of them, which applies up to ``cap`` of them (Put,
Delete, MultiPut, in arrival order, sorted stably by key) in one write txn,
pays one apply charge and one commit, and acks every member when that
commit ends.  Throughput lifts the cap; every other backend, stock LMDB
included, has a cap of 1.  Failure rules, the same at every cap: a write
whose handler dies while queued is dropped (``aborts``); an interrupted
leader finishes its batch, then re-raises; a key or value that is not
``bytes`` fails alone, before it joins a txn.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from repro import obs
from repro.core.hints import ResolvedHints
from repro.lmdb import Environment, SyncMode
from repro.sim.cluster import Node
from repro.sim.core import Event, Interrupt
from repro.sim.units import GiB, us

__all__ = ["BackendCosts", "LmdbBackend"]


@dataclass(frozen=True)
class BackendCosts:
    """Per-operation CPU cost constants (tmpfs-resident LMDB)."""

    page_touch: float = 0.08 * us      # one B+Tree page visit (bisect, cached)
    page_copy: float = 0.10 * us       # COW page copy on the write path
    value_copy_rate: float = 12e9      # bytes/s for value in/out copies
    commit_nosync: float = 0.2 * us    # root-pointer swap
    commit_sync: float = 5.0 * us      # + msync barrier into tmpfs
    txn_begin: float = 0.1 * us


class LmdbBackend:
    """A simulated-time facade over one LMDB environment on one node."""

    def __init__(self, node: Node, map_size: int = 32 * GiB,
                 costs: BackendCosts | None = None):
        self.node = node
        self.costs = costs or BackendCosts()
        self.env = Environment(map_size=map_size, sync_mode=SyncMode.NOSYNC)
        self.env.open_db("main")
        #: most writes one batch carries: 1 is stock LMDB's one txn per
        #: write, None is unbounded (group commit, set by apply_hints)
        self._cap: int | None = 1
        #: writes waiting for a later batch, in arrival order
        self._queue: list[_Write] = []
        #: the batch in flight, None while the writer is idle (and empty
        #: while the lead passes to the head of the queue); its leader is
        #: LMDB's single writer
        self._batch: list[_Write] | None = None
        self.reads = 0
        self.writes = 0
        #: write transactions rolled back because the handler died mid-RPC
        #: (LMDB's ``with env.begin(write=True)`` aborts on exception), and
        #: queued writes dropped the same way
        self.aborts = 0
        # Writer-queue depth probe and writes-per-commit histogram
        # (zero-cost when obs is disabled).
        reg = obs.current()
        if reg is not None:
            reg.probe("hatkv.writer_queue", self._queue_probe)
            self._m_batch = reg.histogram("hatkv.group_commit.batch",
                                          lowest=1.0)
        else:
            self._m_batch = None

    # -- hint-driven tuning (S4.4) -----------------------------------------------
    def apply_hints(self, hints: ResolvedHints) -> None:
        """Tune the backend from the service's resolved (server) hints."""
        self.env.max_readers = max(hints.concurrency, 1)
        goal = hints.perf_goal
        self._cap = None if goal == "throughput" else 1
        if goal in ("throughput", "latency"):
            self.env.sync_mode = SyncMode.NOSYNC
        else:  # res_util keeps durability
            self.env.sync_mode = SyncMode.SYNC

    # -- cost helpers -----------------------------------------------------------------
    def _depth(self) -> int:
        return self.env.depth()

    def _apply_cost(self, depth: int, copies: int, nbytes: int) -> float:
        """One write txn's CPU before its commit: a descent with a
        copy-on-write path, ``copies`` further page copies and the values'
        bytes copied in."""
        c = self.costs
        return (c.txn_begin + depth * (c.page_touch + c.page_copy)
                + copies * c.page_copy + nbytes / c.value_copy_rate)

    def _commit_cost(self) -> float:
        """One commit, priced by the sync mode."""
        if self.env.sync_mode is SyncMode.NOSYNC:
            return self.costs.commit_nosync
        return self.costs.commit_sync

    def _queue_probe(self) -> dict:
        batch = len(self._batch) if self._batch is not None else 0
        return {"depth": len(self._queue), "batch": batch}

    def _begin_read(self):
        """Coroutine: begin a read txn, waiting out a full reader table.

        An untuned environment (stock max_readers=126) can saturate under
        128+ concurrent handlers -- part of why the concurrency hint
        matters for the backend (Section 4.4).
        """
        from repro.lmdb import ReadersFullError
        while True:
            try:
                return self.env.begin()
            except ReadersFullError:
                yield self.node.sim.timeout(2 * us)

    # -- operations (coroutines) ----------------------------------------------------------
    # Public ops are thin wrappers that bracket the real coroutine into a
    # "backend" trace stage when the serving process carries a trace
    # context (set by the protocol serve loop); with tracing off the
    # wrapper returns the inner generator untouched.
    def _traced(self, op: str, gen, nbytes: int = 0):
        ap = self.node.sim.active_process
        ctx = ap.trace_ctx if ap is not None else None
        if ctx is None:
            return gen
        return self._traced_run(op, gen, ctx, nbytes)

    def _traced_run(self, op: str, gen, ctx, nbytes: int):
        t0 = self.node.sim.now
        result = yield from gen
        ctx.stage("backend", t0, self.node.sim.now, op=op, nbytes=nbytes)
        return result

    def get(self, key: bytes):
        return self._traced("get", self._get(key))

    def multi_get(self, keys):
        return self._traced("multi_get", self._multi_get(keys))

    def scan(self, start_key: bytes, count: int):
        return self._traced("scan", self._scan(start_key, count))

    def put(self, key: bytes, value: bytes):
        return self._traced("put", self._put(key, value),
                            nbytes=len(value))

    def delete(self, key: bytes):
        return self._traced("delete", self._delete(key))

    def multi_put(self, keys, values):
        return self._traced("multi_put", self._multi_put(keys, values),
                            nbytes=sum(len(v) for v in values))

    def _get(self, key: bytes):
        c = self.costs
        yield self.node.compute(c.txn_begin + self._depth() * c.page_touch)
        txn = yield from self._begin_read()
        try:
            value = txn.get(key)
        finally:
            txn.commit()
        if value is not None:
            yield self.node.compute(len(value) / c.value_copy_rate)
        self.reads += 1
        return value

    def _multi_get(self, keys):
        c = self.costs
        yield self.node.compute(c.txn_begin)
        txn = yield from self._begin_read()
        try:
            # the snapshot answers every key now; the k descents are one
            # CPU job of k equal pieces, the reader slot held across it
            out = [txn.get(key) for key in keys]
            if out:
                yield self.node.compute(self._depth() * c.page_touch,
                                        len(out))
        finally:
            txn.commit()
        total = sum(len(v) for v in out if v is not None)
        if total:
            yield self.node.compute(total / c.value_copy_rate)
        self.reads += len(keys)
        return out

    def _scan(self, start_key: bytes, count: int):
        """Coroutine: up to ``count`` (key, value) pairs from start_key on."""
        if count < 0:
            raise ValueError("negative scan count")
        c = self.costs
        yield self.node.compute(c.txn_begin + self._depth() * c.page_touch)
        txn = yield from self._begin_read()
        try:
            rows = txn.cursor().scan(lo=start_key, limit=count)
        finally:
            txn.commit()
        total = sum(len(k) + len(v) for k, v in rows)
        # Sequential leaf walk: one page touch per few entries + copy out.
        yield self.node.compute(len(rows) * c.page_touch / 4
                                + total / c.value_copy_rate)
        self.reads += len(rows)
        return rows

    def _put(self, key: bytes, value: bytes):
        yield from self._group(_Write([(key, value)], len(value)))

    def _delete(self, key: bytes):
        """Coroutine: remove one key; returns whether it existed."""
        return (yield from self._group(_Write([(key, None)], 0)))

    def _multi_put(self, keys, values):
        if len(keys) != len(values):
            raise ValueError("keys/values length mismatch")
        yield from self._group(_Write(list(zip(keys, values)),
                                      sum(len(v) for v in values)))

    # -- the write path (group commit) ---------------------------------------------
    def _group(self, req: "_Write"):
        """Coroutine: one write; returns its result (a Delete's "existed")
        once the commit that carries it has ended.

        A write that finds the writer idle leads at once; one that finds a
        batch in flight queues and waits to be acked by the commit of the
        batch that carries it -- or, if it is the first in the queue when
        the batch in flight ends, to be handed the lead.
        """
        for key, value in req.entries:
            if not isinstance(key, bytes) or not (
                    value is None or isinstance(value, bytes)):
                # fail alone, before joining a txn others share
                raise TypeError("keys and values must be bytes")
        self._queue.append(req)
        if self._batch is None:
            return (yield from self._lead(req))
        req.done = Event(self.node.sim)
        try:
            yield req.done
        except BaseException:
            if req.state is not _IN_BATCH:
                # Still queued (or just handed the lead): leave the queue
                # unapplied, and pass the lead on if it was ours.
                self._queue.remove(req)
                self.aborts += 1
                if req.state is _LEADS:
                    self._hand_off()
            raise
        if req.state is _LEADS:
            return (yield from self._lead(req))
        return req.result

    def _lead(self, req: "_Write"):
        """Coroutine: apply the first ``cap`` queued writes (``req`` first
        of them) as one batch and commit it.  An interrupt does not stop a
        leader: the CPU job it waited on keeps running, so it waits that job
        out, finishes the batch for every member, then re-raises."""
        batch = self._queue[:self._cap]     # a cap of None takes them all
        del self._queue[:self._cap]
        self._batch = batch
        entries = []
        nbytes = 0
        for r in batch:
            r.state = _IN_BATCH
            entries.extend((k, v, r) for k, v in r.entries)
            nbytes += r.nbytes
        try:
            interrupt = yield from self._wait_out(self.node.compute(
                self._apply_cost(self._depth(), len(entries) - 1, nbytes)))
            # arrival order, sorted stably by key: a later write wins
            entries.sort(key=_KEY)
            with self.env.begin(write=True) as txn:
                for key, value, r in entries:
                    if value is None:
                        r.result = txn.delete(key)
                    else:
                        txn.put(key, value)
            late = yield from self._wait_out(
                self.node.compute(self._commit_cost()))
            interrupt = interrupt or late
        except BaseException as exc:
            # the txn failed (e.g. a full map): no member was applied
            self.aborts += len(batch)
            for r in batch:
                if r is not req:
                    r.done.defuse()
                    r.done.fail(exc)
            self._hand_off()
            raise
        self.writes += len(entries)
        if self._m_batch is not None:
            self._m_batch.record(len(batch))
        for r in batch:
            if r is not req:
                r.done.succeed()
        self._hand_off()
        if interrupt is not None:
            raise interrupt
        return req.result

    def _wait_out(self, ev: Event):
        """Coroutine: wait until ``ev`` has fired, however often the
        process is interrupted meanwhile; returns the first interrupt
        caught, or None."""
        interrupt = None
        while True:
            try:
                yield ev
                return interrupt
            except Interrupt as exc:
                if interrupt is None:
                    interrupt = exc

    def _hand_off(self) -> None:
        """The batch in flight ended (or the write it was handed to died
        before it started): the first queued write leads the next one, or
        the writer goes idle."""
        if self._queue:
            head = self._queue[0]
            head.state = _LEADS
            self._batch = []        # the writer stays busy until it starts
            head.done.succeed()
        else:
            self._batch = None


#: sort key of a write's entries: the key alone, so equal keys keep their order
_KEY = itemgetter(0)

# _Write.state
_QUEUED = "queued"
_LEADS = "leads"        # handed the lead of the next batch
_IN_BATCH = "in batch"


class _Write:
    """One write request: its ``(key, value)`` entries (value None for a
    delete), their value bytes, and the event that acks it (or hands it the
    lead)."""

    __slots__ = ("entries", "nbytes", "done", "state", "result")

    def __init__(self, entries, nbytes: int):
        self.entries = entries
        self.nbytes = nbytes
        self.done: Optional[Event] = None   # set when queued behind a batch
        self.state = _QUEUED
        self.result = None
