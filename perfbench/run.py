"""Campaign benchmark: one workload of fault-injection campaigns, timed.

    python3 perfbench/run.py --workload hfs_transient --seed 0 \
        --seconds 40 --trace 0

Runs from the root of a source checkout and imports `sboxsim` from its
`src/`.  Each repetition goes through the public library path
(`synth_sbox` -> `cut_pipeline` -> `run_campaign` ->
`CampaignResult.write_json`/`write_csv`) in this one process with
workers=1, then checks every row it wrote against the recorded reference
for the seed.  Repetitions continue for about --seconds.

--trace 0 prints the end-to-end metrics: scenarios_per_s, wall_s and
setup_s, each built from the upper quartiles of its parts' times across
the repetitions (see `measure`), the process's peak_rss_mb, and
passed_share (1 - failed_share; failed and attempted scenarios are also
the result's own fields).  --trace 1 runs one untraced and one traced
repetition, checks that their rows are equal, prints the per-layer
metrics and writes every span and counter to a sidecar under
perfbench/_out/.  The last line of stdout is the result as one JSON
object.  Exit status: 0 when every row matched, 1 when any check failed,
2 when the arguments or the checkout are unusable.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"


def _import_library():
    """Put the checkout's src/ first on the path; exit 2 without it."""
    if not (SRC / "sboxsim" / "__init__.py").is_file():
        print(f"perfbench: no sboxsim sources under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


_import_library()

from sboxsim import campaign                                # noqa: E402
from sboxsim.gf import DEFAULT_PARAMS                       # noqa: E402
from sboxsim.pipeline import cut_pipeline                   # noqa: E402
from sboxsim.synth import synth_sbox                        # noqa: E402

import gate                                                 # noqa: E402
import workloads                                            # noqa: E402
from tracing import Tracer                                  # noqa: E402


@dataclass
class Repetition:
    """One pass over a workload's campaigns."""

    tracer: Tracer
    wall_s: float = 0.0
    campaign_s: float = 0.0
    scenarios: int = 0
    outcomes: dict = field(default_factory=dict)   # name -> Outcome or None


def run_once(workload: str, seed: int, deep: bool = False) -> Repetition:
    """Build the design and run every campaign of the workload once,
    writing each result to perfbench/_out/<workload>/."""
    out_dir = OUT_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = workloads.campaigns(workload, seed)
    gc.collect()
    rep = Repetition(Tracer(deep))
    tr = rep.tracer
    written = {}
    t0 = time.perf_counter()
    with tr:
        netlist = tr.call("synth.synth_sbox", synth_sbox, DEFAULT_PARAMS)
        design = tr.call("pipeline.cut_pipeline", cut_pipeline, netlist,
                         workloads.N_STAGES)
        for name, cfg in configs:
            csv_path = out_dir / f"{name}.csv"
            json_path = out_dir / f"{name}.json"
            golden_before = len(tr.golden_cycles)
            try:
                c0 = time.perf_counter()
                res = tr.call("campaign.run_campaign", campaign.run_campaign,
                              design, cfg)
                rep.campaign_s += time.perf_counter() - c0
                rep.scenarios += res.total
                tr.call("campaign.write_json", res.write_json, json_path)
                tr.call("campaign.write_csv", res.write_csv, csv_path)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                written[name] = None
                continue
            written[name] = (csv_path, json_path,
                             tr.golden_cycles[golden_before])
    rep.wall_s = time.perf_counter() - t0
    tr.gates = len(netlist.gates)
    rep.outcomes = {name: gate.read_outcome(*files) if files else None
                    for name, files in written.items()}
    return rep


def count_failures(reference: dict, rep: Repetition) -> tuple[int, int]:
    """(attempted, failed) scenarios of one repetition."""
    attempted = failed = 0
    for name, ref in reference.items():
        attempted += len(ref["rows"])
        failed += gate.failed_rows(ref, rep.outcomes.get(name))
    return attempted, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def upper_quartile_sum(reps: list[list[float]]) -> float:
    """Sum over units of each unit's upper quartile across repetitions;
    reps[r][u] is the time unit u took in repetition r."""
    if len(reps) == 1:
        return sum(reps[0])
    return sum(statistics.quantiles(unit, n=4, method="inclusive")[2]
               for unit in zip(*reps))


def measure(workload: str, seed: int, seconds: float,
            reference: dict) -> tuple[dict, int, int]:
    """Untraced repetitions for about `seconds`.

    A repetition starts only while the run would end nearer to `seconds`
    with it than without it, so every workload measures for about the
    same time however long its repetitions are.

    The host's CPU speed swings for seconds at a time, so a repetition's
    total time says mostly how much of it ran fast.  Each time metric is
    therefore summed from units that repeat in every repetition (each
    scenario, the rest of the campaign calls, the rest of the repetition,
    each kind of set-up call), each unit taking the upper quartile of its
    times across the repetitions: the slow end, which most runs reach.
    perfbench/README.md gives the measurements behind this."""
    reps, lengths = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while (not reps or time.perf_counter() - start
           + statistics.median(lengths) / 2 < seconds):
        r0 = time.perf_counter()
        rep = run_once(workload, seed)
        a, f = count_failures(reference, rep)
        attempted += a
        failed += f
        rep.outcomes = None     # checked; keeping the rows would grow the RSS
        reps.append(rep)
        lengths.append(time.perf_counter() - r0)
    campaign_units = []
    for r in reps:
        scenario_s = [ns / 1e9 for ns in r.tracer.scenario_ns]
        campaign_units.append(scenario_s + [r.campaign_s - sum(scenario_s)])
    campaign_s = upper_quartile_sum(campaign_units)
    wall_s = upper_quartile_sum([units + [r.wall_s - r.campaign_s]
                                 for units, r in zip(campaign_units, reps)])
    metrics = {
        "scenarios_per_s": (reps[0].scenarios / campaign_s
                            if campaign_s else 0.0, "1/s"),
        "wall_s": (wall_s, "s"),
        "setup_s": (upper_quartile_sum([r.tracer.setup_parts_s()
                                        for r in reps]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "passed_share": (1 - failed / attempted, "ratio"),
    }
    print(f"perfbench: {workload} seed {workloads.campaign_seed(seed)}: "
          f"{len(reps)} repetitions in {time.perf_counter() - start:.1f} s, "
          f"failed_share {failed / attempted:.6g} ({failed}/{attempted})",
          file=sys.stderr)
    return metrics, attempted, failed


def measure_traced(workload: str, seed: int,
                   reference: dict) -> tuple[dict, int, int, bool]:
    """One untraced and one traced repetition; per-layer metrics come from
    the traced one, and both must give the same rows."""
    plain = run_once(workload, seed)
    traced = run_once(workload, seed, deep=True)
    attempted = failed = 0
    for rep in (plain, traced):
        a, f = count_failures(reference, rep)
        attempted += a
        failed += f
    same_rows = all(
        a is not None and b is not None and a.rows == b.rows
        for a, b in zip(plain.outcomes.values(), traced.outcomes.values()))
    metrics = traced.tracer.per_layer()
    metrics["trace.overhead"] = (traced.wall_s / plain.wall_s, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    sidecar = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    doc = traced.tracer.sidecar()
    doc.update(workload=workload, seed=workloads.campaign_seed(seed),
               rows_equal_untraced=same_rows,
               metrics={k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()})
    sidecar.write_text(json.dumps(doc) + "\n")
    print(f"perfbench: trace written to {sidecar}", file=sys.stderr)
    return metrics, attempted, failed, same_rows


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="benchmark seed; selects published campaign seed "
                        "DEFAULT_SEED + seed mod 16 (default 0)")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measure for about this long (default 40)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    reference = gate.load_reference(args.workload,
                                    workloads.campaign_seed(args.seed))
    netlist = synth_sbox(DEFAULT_PARAMS)
    problems = gate.design_problems(
        netlist, cut_pipeline(netlist, workloads.N_STAGES))
    for problem in problems:
        print(f"perfbench: design check failed: {problem}", file=sys.stderr)

    same_rows = True
    if args.trace:
        metrics, attempted, failed, same_rows = measure_traced(
            args.workload, args.seed, reference)
    else:
        metrics, attempted, failed = measure(args.workload, args.seed,
                                             args.seconds, reference)
    correct = failed == 0 and not problems and same_rows
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'failed_share':40s} {failed / attempted:14.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
