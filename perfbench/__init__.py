"""perfbench: the two-clock, layer-attributed benchmark of this repository.

See ``perfbench/README.md``.  Every number carries a clock: ``sim_*`` is
the model's answer and repeats bit-for-bit at a fixed seed; ``host_*`` and
``setup_s`` are CPU-seconds the Python host spends computing that answer.

The program under test lives in ``src/`` and is not installed, and the
driver's command line may not name ``src``, so the package puts it on the
path itself.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
