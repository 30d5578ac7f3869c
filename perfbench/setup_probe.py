"""Set-up time of a fresh process: import socialcell, parse a config file
and build the ExperimentSpec.  Prints the seconds this took.

    python3 perfbench/setup_probe.py path/to/workload.cfg
"""

import time

_START = time.perf_counter()

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from socialcell import config, harness  # noqa: E402

harness.ExperimentSpec.from_config(config.load_config(sys.argv[1]))
print(time.perf_counter() - _START)
