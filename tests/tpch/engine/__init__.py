"""The columnar TPC-H engine that recorded Fig. 17's trace.

A numpy data generator (``datagen``), the 22 queries (``queries``), their
distributed (fragment, final) plans (``fragments``) and the Thrift-binary
table format the partials travel in (``ser``).  ``repro.tpch`` replays what
this engine measured (``trace``); the tests in ``tests/tpch`` hold the
engine to the TPC-H reference answers and the trace to the engine.
"""
