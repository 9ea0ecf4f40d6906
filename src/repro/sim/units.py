"""Unit helpers.

Simulated time is measured in seconds (float).  Data sizes are measured in
bytes (int).  These constants keep call sites legible: ``3 * us`` reads as
three microseconds, ``100 * Gbps`` as a link rate in bytes/second.
"""

# Time units (seconds).
ns = 1e-9
us = 1e-6
ms = 1e-3

# Size units (bytes).
KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024

# Rate units (bytes per second).  Network rates are quoted in bits/s, hence
# the /8: ``100 * Gbps`` is the payload byte rate of a 100 Gb/s link.
Gbps = 1e9 / 8
GBps = 1e9
