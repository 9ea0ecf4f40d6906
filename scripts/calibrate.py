"""Cost-model calibration sweep (developer tool).

Prints the raw protocol latency/throughput grids that DESIGN.md section 5
calls the calibration check.  Run after any CostModel change and compare
the orderings against the paper's Section 3.2 before trusting the higher
layers; the binding assertions live in
tests/protocols/test_characterization.py.
"""

from repro.bench.proto_runner import ProtoBenchSpec, run_protocol_bench
from repro.protocols import protocol_names
from repro.sim.units import us
from repro.verbs.cq import PollMode

PROTOS = protocol_names()

print("== Fig4: 1-client latency (us), busy polling ==")
print(f"{'proto':20s}" + "".join(f"{s:>10d}" for s in [64, 512, 4096, 131072]))
for proto in PROTOS:
    row = []
    for size in [64, 512, 4096, 131072]:
        r = run_protocol_bench(ProtoBenchSpec(proto, payload=size, iters=10, warmup=3))
        row.append(r.mean_latency / us)
    print(f"{proto:20s}" + "".join(f"{v:10.2f}" for v in row))

print("\n== Fig4: 1-client latency (us), event polling ==")
for proto in PROTOS:
    row = []
    for size in [512, 131072]:
        r = run_protocol_bench(ProtoBenchSpec(proto, payload=size, iters=10, warmup=3,
                                              poll_mode=PollMode.EVENT))
        row.append(r.mean_latency / us)
    print(f"{proto:20s}" + "".join(f"{v:10.2f}" for v in row))

print("\n== Fig5-ish: throughput kops (512B) ==")
print(f"{'proto':20s}" + "".join(f"{c:>10d}" for c in [1, 16, 64]))
for proto in PROTOS:
    row = []
    for nc in [1, 16, 64]:
        for mode in [PollMode.BUSY, PollMode.EVENT]:
            pass
        r = run_protocol_bench(ProtoBenchSpec(proto, payload=512, n_clients=nc,
                                              iters=15, warmup=3))
        row.append(r.throughput_ops / 1e3)
    print(f"{proto:20s}" + "".join(f"{v:10.1f}" for v in row))
