"""HatRPC reproduction: hint-accelerated Thrift RPC over simulated RDMA.

Full-system reproduction of Li, Shi & Lu, "HatRPC: Hint-Accelerated Thrift
RPC over RDMA" (SC '21).  See README.md for the tour, DESIGN.md for the
system inventory and simulation-substitution argument, EXPERIMENTS.md for
paper-vs-measured results.

The calls most users need::

    from repro import Testbed, load_idl, HatRpcServer, hatrpc_connect

    gen = load_idl(open("service.thrift").read())
    tb = Testbed(n_nodes=2)
    HatRpcServer(tb.node(0), gen, "MyService", Handler()).start()
    # ... then inside a simulator process:
    #     stub = yield from hatrpc_connect(tb.node(1), tb.node(0),
    #                                      gen, "MyService")

These names load on first use: importing one subpackage (``repro.bench``,
say) does not pull in the RPC stack.
"""

import importlib

__version__ = "1.0.0"

#: the module each name of ``__all__`` is loaded from, on first use
_HOMES = {"HatRpcClient": "repro.core.runtime",
          "HatRpcServer": "repro.core.runtime",
          "hatrpc_connect": "repro.core.runtime", "compile_idl": "repro.idl",
          "load_idl": "repro.idl", "Testbed": "repro.testbed"}


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(_HOMES[name]), name)


__all__ = ["__version__", *_HOMES]
