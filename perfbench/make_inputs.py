"""Write one workload's inputs into a directory and print, as one JSON
line, how long that took: `{"setup_s": ...}`. run.py runs this in a fresh
interpreter for each set-up it times.

    python3 perfbench/make_inputs.py <workload> <seed> <scale> <directory>

The time covers importing the workload code (and with it numpy and
causalcdr) and writing the inputs. It leaves out the interpreter's own
start, which no change to the repository can move.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path


def main(argv) -> None:
    name, seed, scale, target = argv
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    workloads = importlib.import_module("workloads")
    workloads.generate_inputs(name, int(seed), scale, Path(target))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(sys.argv[1:])
