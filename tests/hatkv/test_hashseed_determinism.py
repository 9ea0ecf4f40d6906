"""Same seed => same simulation, whatever ``PYTHONHASHSEED`` says.

In-process determinism tests cannot see an iteration-order leak: within one
interpreter a ``set`` of strings or a ``dict`` keyed by ``id()`` iterates the
same way twice.  Across interpreters with different hash seeds it does not,
and a model that lets such an order reach the event queue stops being a pure
function of its seed.  So this test runs one sharded YCSB-A slice (2 shards,
replicas=2, 16 pipelined clients, half writes -- the single-writer queue and
primary-first replication are where set/dict order would bite) in two fresh
interpreters under different hash seeds and compares a digest of every
operation's ``(client, op, latency)`` and the final clock.  It does the same
for the golden kernel program of ``tests/sim/test_kernel_golden.py``.

Run this file as a script to print the slice's fingerprint as JSON.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

N_CLIENTS = 16
OPS_PER_CLIENT = 12
RECORDS = 2000
SEED = 5


def run_slice() -> dict:
    from repro.hatkv import ShardedKVCluster, load_hatkv_module
    from repro.testbed import Testbed
    from repro.ycsb.workload import WORKLOAD_A, OpType, Workload
    from dataclasses import replace

    spec = replace(WORKLOAD_A, record_count=RECORDS)
    tb = Testbed(n_nodes=6)
    sim = tb.sim
    gen = load_hatkv_module("function", concurrency=N_CLIENTS)
    cluster = ShardedKVCluster(tb, 2, gen_module=gen, replicas=2,
                               concurrency=N_CLIENTS).start()
    cluster.load(Workload(spec, seed=SEED).load_items())
    client_nodes = tb.nodes[2:]
    ops = []        # (client, op, latency) in completion order

    def client(i):
        wl = Workload(spec, seed=SEED * 7919 + i)
        router = yield from cluster.connect(client_nodes[i % 4], cache=False)
        for _ in range(OPS_PER_CLIENT):
            op, args = wl.next_op()
            t0 = sim.now
            if op is OpType.GET:
                assert (yield from router.Get(*args)).found
            elif op is OpType.PUT:
                yield from router.Put(*args)
            elif op is OpType.MULTI_GET:
                assert len((yield from router.MultiGet(*args))) == len(args[0])
            else:
                yield from router.MultiPut(*args)
            ops.append((i, op.value, sim.now - t0))

    procs = [sim.process(client(i), name=f"ycsb-{i}")
             for i in range(N_CLIENTS)]
    sim.run()
    for p in procs:
        p.value
    h = hashlib.sha256()
    for i, name, latency in ops:
        h.update(struct.pack("<i", i) + name.encode() + struct.pack("<d", latency))
    return {"digest": h.hexdigest(), "ops": len(ops), "sim_now": repr(sim.now),
            "events": sim.events_executed,
            "hashseed": os.environ.get("PYTHONHASHSEED")}


ROOT = Path(__file__).resolve().parents[2]
KERNEL_PROGRAM = ROOT / "tests" / "sim" / "test_kernel_golden.py"


def start_under(hashseed: str, script: Path = Path(__file__).resolve()
                ) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.Popen([sys.executable, str(script)],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def fingerprints(procs) -> list:
    done = [(p, *p.communicate(timeout=300)) for p in procs]
    for proc, _out, err in done:
        assert proc.returncode == 0, err[-2000:]
    return [json.loads(out.strip().splitlines()[-1])
            for _proc, out, _err in done]


def test_sharded_ycsb_a_is_identical_across_hash_seeds():
    one, two = fingerprints([start_under("1"), start_under("2")])
    assert (one.pop("hashseed"), two.pop("hashseed")) == ("1", "2")
    assert one["ops"] == N_CLIENTS * OPS_PER_CLIENT
    assert one == two


def test_kernel_program_is_identical_across_hash_seeds():
    """The golden kernel program runs an over-subscribed scheduler with
    spinners coming and going mid-job, so jobs are handed from their own
    completion entries to the GPS pass and back: the order they go in must
    not depend on hashing."""
    one, two = fingerprints([start_under("1", KERNEL_PROGRAM),
                             start_under("2", KERNEL_PROGRAM)])
    assert one == two


if __name__ == "__main__":
    print(json.dumps(run_slice()))
