"""Record the reference rows that the benchmark checks results against.

    python3 perfbench/record_references.py [SEED_INDEX ...]

Runs every workload once for each published seed (all of them by default,
or the given indices into workloads.PUBLISHED_SEEDS) and writes
perfbench/reference/<workload>/seed-<campaign seed>.json.xz.  Run it only
to publish references for a new workload or seed: a later change of the
library must reproduce the recorded rows, not re-record them.
"""

from __future__ import annotations

import os
import sys

import run
from run import gate, run_once, workloads


def main(argv: list[str]) -> int:
    indices = [int(a) for a in argv] or range(len(workloads.PUBLISHED_SEEDS))
    # A directory of its own, so that several recorders can run at once.
    run.OUT_DIR = run.OUT_DIR / f"record-{os.getpid()}"
    for i in indices:
        seed = workloads.PUBLISHED_SEEDS[i]
        for workload in workloads.WORKLOADS:
            rep = run_once(workload, i)
            if any(out is None for out in rep.outcomes.values()):
                print(f"{workload} seed {seed}: a campaign raised",
                      file=sys.stderr)
                return 1
            gate.write_reference(workload, seed, rep.outcomes)
            print(f"{workload} seed {seed}: {rep.scenarios} rows, "
                  f"{rep.wall_s:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
