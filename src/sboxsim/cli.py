"""Command-line front end: verify | synth | simulate | campaign | report.

Every run is reproducible from its artifacts: output files embed the tool
version, the seed, and the SHA-256 of the parameter set and cost table
that produced them.  Exit codes: 0 success (and, for campaigns, guarantee
held), 1 guarantee violated or verification mismatch, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .campaign import (CampaignConfig, EmptyCampaignError, default_stream,
                       FAULT_CLASSES, run_campaign, run_scenario,
                       DEFAULT_SEED)
from .faults import (FaultSpec, InvalidFaultError, InvalidSiteError,
                     MODELS, PERMANENT, SCHEMES, SITE_KINDS, parse_site)
from .gf import DEFAULT_PARAMS, FieldParams, sbox_composite, sbox_reference
from .metrics import build_metrics, render_table
from .netlist import CostTable, DEFAULT_COSTS
from .pipeline import TooManyStagesError, cut_pipeline
from .redundancy import feed, make_machine
from .synth import synth_sbox


class ConfigError(Exception):
    pass


# The library's validation errors: each means the user's input was bad, so
# main reports it like a ConfigError.
_INPUT_ERRORS = (ConfigError, EmptyCampaignError, InvalidFaultError,
                 InvalidSiteError, TooManyStagesError)


def _load_params(path) -> FieldParams:
    if path is None:
        return DEFAULT_PARAMS
    try:
        return FieldParams.load(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise ConfigError(f"cannot load params file {path}: {e}")


def _load_costs(path) -> CostTable:
    if path is None:
        return DEFAULT_COSTS
    try:
        return CostTable.load(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise ConfigError(f"cannot load cost table {path}: {e}")


def _meta(params: FieldParams, costs: CostTable, seed: int) -> dict:
    return {
        "tool_version": __version__,
        "seed": seed,
        "params_sha256": params.sha256(),
        "cost_table_sha256": costs.sha256(),
    }


def _build_design(params: FieldParams, costs: CostTable, stages: int):
    try:
        netlist = synth_sbox(params)
    except ValueError as e:
        raise ConfigError(f"the field parameters do not synthesize: {e}")
    return cut_pipeline(netlist, stages, costs)


def _write_output(path, write) -> None:
    """Call write(path); an unwritable path is a usage error."""
    try:
        write(path)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None


def _check_writable(path) -> None:
    """Raise the ConfigError that writing path later would, leaving the
    path as it was."""
    def probe(p):
        existed = os.path.exists(p)
        open(p, "a").close()
        if not existed:
            os.remove(p)
    _write_output(path, probe)


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list: {text!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    params = _load_params(args.params)
    for x in range(256):
        got = sbox_composite(x, params)
        if got != sbox_reference(x):
            print(f"FORMULA MISMATCH at 0x{x:02x}: got 0x{got:02x}, "
                  f"expected 0x{sbox_reference(x):02x}")
            return 1
    try:
        netlist = synth_sbox(params)
    except ValueError as e:
        print(f"SYNTHESIS FAILED: {e}")
        return 1
    for x in range(256):
        got = netlist.evaluate_byte(x)
        if got != sbox_reference(x):
            print(f"NETLIST MISMATCH at 0x{x:02x}: got 0x{got:02x}, "
                  f"expected 0x{sbox_reference(x):02x}")
            return 1
    print("verify: formula and synthesized netlist match the published "
          "table on all 256 bytes")
    return 0


def cmd_synth(args) -> int:
    params = _load_params(args.params)
    costs = _load_costs(args.costs)
    design = _build_design(params, costs, args.stages)
    doc = design.to_json_dict()
    doc["meta"] = _meta(params, costs, args.seed)
    text = json.dumps(doc, indent=1)
    if args.output:
        _write_output(args.output, lambda p: Path(p).write_text(text + "\n"))
        print(f"synth: {args.stages}-stage design written to {args.output} "
              f"(max stage delay {design.max_stage_delay:.2f})")
    else:
        print(text)
    return 0


def cmd_simulate(args) -> int:
    params = _load_params(args.params)
    costs = _load_costs(args.costs)
    design = _build_design(params, costs, args.stages)

    if args.input_hex is not None:
        try:
            stream = bytes.fromhex(args.input_hex)
        except ValueError:
            raise ConfigError(f"bad hex stream: {args.input_hex!r}")
    elif args.input_file is not None:
        # Test-vector file: one hex byte per line, blank lines ignored.
        try:
            with open(args.input_file) as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
            stream = bytes(int(ln, 16) for ln in lines)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read vector file "
                              f"{args.input_file}: {e}")
    else:
        stream = default_stream(args.seed)
        if not 0 <= args.count <= len(stream):
            raise ConfigError(f"--count must be 0 to {len(stream)}, "
                              f"got {args.count}")
        stream = stream[:args.count]

    fault = None
    if args.fault_site:
        try:
            duration = (PERMANENT if args.fault_duration == "perm"
                        else int(args.fault_duration))
        except ValueError:
            raise ConfigError(f"bad fault duration {args.fault_duration!r}; "
                              "expected a cycle count or 'perm'")
        fault = FaultSpec(parse_site(args.fault_site), args.fault_model,
                          args.fault_start, duration)

    if fault is None:
        machine = make_machine(args.design, design)
        records = list(feed(machine, stream))
        cls_text = "fault-free"
        stalls = machine.stall_cycles
    else:
        cls, records = run_scenario(args.design, design, stream, fault,
                                    collect_trace=True)
        cls_text = cls.kind
        stalls = cls.stall_cycles

    if args.trace:
        lines = [json.dumps({"meta": _meta(params, costs, args.seed),
                             "design": args.design})]
        lines += [json.dumps(rec.to_json_dict()) for rec in records]
        _write_output(args.trace,
                      lambda p: Path(p).write_text("\n".join(lines) + "\n"))
    outputs = [r.output for r in records if r.output is not None]
    print(f"simulate: design={args.design} inputs={len(stream)} "
          f"outputs={len(outputs)} stalls={stalls} result={cls_text}")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def cmd_campaign(args) -> int:
    params = _load_params(args.params)
    costs = _load_costs(args.costs)
    design = _build_design(params, costs, args.stages)
    if args.config:
        try:
            with open(args.config) as fh:
                config = CampaignConfig.from_json_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as e:
            raise ConfigError(f"cannot load campaign config "
                              f"{args.config}: {e}")
        fields = config.__dict__
    else:
        if not args.design or not args.fault:
            raise ConfigError("--design and --fault are required unless "
                              "--config is given")
        fields = dict(
            scheme=args.design,
            fault_class=args.fault,
            durations=_int_list(args.durations),
            site_kinds=tuple(args.sites.split(",")),
            start_cycles=_int_list(args.starts) if args.starts else None,
            sample=args.sample,
            seed=args.seed,
        )
    try:
        config = CampaignConfig(**{**fields, "workers": args.workers})
    except ValueError as e:
        raise ConfigError(str(e)) from None
    for path in (args.out_json, args.out_csv):
        if path:        # before the run, which a bad path would waste
            _check_writable(path)
    result = run_campaign(design, config,
                          meta=_meta(params, costs, config.seed))
    if args.out_json:
        _write_output(args.out_json, result.write_json)
    if args.out_csv:
        _write_output(args.out_csv, result.write_csv)
    ok = result.guarantee_holds()
    print(f"campaign: design={config.scheme} fault={config.fault_class} "
          f"scenarios={result.total} counts={result.counts} "
          f"coverage={result.coverage:.4f}")
    print("guarantee " + ("HELD" if ok else "VIOLATED"))
    return 0 if ok else 1


def cmd_report(args) -> int:
    params = _load_params(args.params)
    costs = _load_costs(args.costs)
    design = _build_design(params, costs, args.stages)
    rows = build_metrics(design, costs)
    text = render_table(rows, args.format)
    if args.output:
        if args.format == "json":
            doc = {"meta": _meta(params, costs, args.seed),
                   "rows": json.loads(text)}
            text = json.dumps(doc, indent=1) + "\n"
        _write_output(args.output, lambda p: Path(p).write_text(text))
        print(f"report written to {args.output}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    env_seed = os.environ.get("SBOXSIM_SEED")
    try:
        seed = int(env_seed) if env_seed else DEFAULT_SEED
    except ValueError:
        raise ConfigError(f"SBOXSIM_SEED must be an integer, "
                          f"got {env_seed!r}") from None
    # verify reads only the field parameters; every other command builds
    # the costed, pipelined design and may draw a seeded stream.
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--params", help="field parameter JSON file")
    common = argparse.ArgumentParser(add_help=False, parents=[params])
    common.add_argument("--costs", help="cost table JSON file")
    common.add_argument("--stages", type=int, default=5,
                        help="pipeline stage count (default 5)")
    common.add_argument("--seed", type=int, default=seed,
                        help="seed echoed into outputs and used for "
                             "randomized streams (flag overrides "
                             "SBOXSIM_SEED)")

    ap = argparse.ArgumentParser(
        prog="sboxsim",
        description="Gate-level fault-tolerance workbench for the AES S-box")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[params],
                       help="exhaustive check of the composite S-box "
                            "against the published table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", parents=[common],
                       help="synthesize and cut the pipelined S-box, emit "
                            "design JSON")
    p.add_argument("--output", help="design JSON path (default stdout)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", parents=[common],
                       help="cycle-accurate run with an optional injected "
                            "fault")
    p.add_argument("--design", required=True, choices=SCHEMES)
    p.add_argument("--input-hex", help="explicit input bytes as hex")
    p.add_argument("--input-file",
                   help="test-vector file, one hex byte per line")
    p.add_argument("--count", type=int, default=16,
                   help="length of the default stream prefix (default 16)")
    p.add_argument("--fault-site",
                   help="gate:ID[:REPLICA] | reg:STAGE:BIT[:REPLICA] | "
                        "du:STAGE | voter:STAGE:BIT")
    p.add_argument("--fault-model", choices=MODELS, default="flip")
    p.add_argument("--fault-start", type=int, default=0)
    p.add_argument("--fault-duration", default="1",
                   help="cycle count or 'perm'")
    p.add_argument("--trace", help="JSON-lines trace output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("campaign", parents=[common],
                       help="fault-injection campaign with guarantee "
                            "checking")
    p.add_argument("--design", choices=SCHEMES)
    p.add_argument("--fault", choices=FAULT_CLASSES)
    p.add_argument("--config", help="campaign config JSON (replaces the "
                                    "selection flags)")
    p.add_argument("--durations", default="1,2,5,10",
                   help="transient durations in cycles (default 1,2,5,10)")
    p.add_argument("--sites", default="gate,register",
                   help="site kinds: " + ",".join(SITE_KINDS))
    p.add_argument("--starts", help="start cycles (default: one full "
                                    "pipeline occupancy window)")
    p.add_argument("--sample", type=int,
                   help="random sample size (default: the full grid)")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="parallel worker processes (default: machine "
                        "parallelism; never affects results)")
    p.add_argument("--out-json", help="campaign result JSON path")
    p.add_argument("--out-csv", help="per-scenario CSV path")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("report", parents=[common],
                       help="area/frequency/throughput table for all four "
                            "designs")
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text")
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
