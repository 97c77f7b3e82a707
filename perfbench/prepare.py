"""Set-up step of one workload, run in a fresh process.

Usage: python3 perfbench/prepare.py WORKLOAD SEED WORKDIR

Imports the package (numpy and scipy included), builds and writes the
workload's inputs and its op list (``WORKDIR/ops.json``), and prints
``{"setup_s": ...}``: the time from the start of this script to the end of
the set-up.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main():
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.import_package()
    ops = workloads.build(workload, seed, work)
    (work / "ops.json").write_text(json.dumps(ops))
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main()
