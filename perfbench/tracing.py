"""Timing probes wrapped around the library's public functions.

The benchmark never edits `sboxsim`; it patches module and class
attributes for the length of one workload repetition and restores them
afterwards.  Two depths:

  * shallow - only the set-up calls (`build_stage_programs`,
    `enumerate_scenarios`, `golden_run`) and the length of each
    `run_scenario`, so the untraced run can time setup_s call by call and
    every scenario on its own at no measurable cost (about 0.5 us a
    scenario against 300 us or more);
  * deep - also every scenario and its children (`run_scenario`,
    `make_machine`, `ActiveFault`) as spans, and every per-cycle call
    (machine `step` and `canonical_state`, stage `fast`/`interp`, fault
    hooks) as counters with self time kept on a call stack.

Per-cycle calls are aggregated, never recorded one by one: hfs_transient
alone makes about 1.3M stage evaluations.  Spans and counters stay in
memory until `sidecar()` is written at the end of the run.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import defaultdict

from sboxsim import campaign, faults, redundancy

FAULT_HOOKS = ("gate_overrides", "transform_regs", "reg_read", "du_apply",
               "latch_read")


class Tracer:
    """Counters, self times and spans of one workload repetition."""

    def __init__(self, deep: bool):
        self.deep = deep
        self.stats = defaultdict(lambda: [0, 0, 0])  # calls, total, self ns
        self.spans = []            # [name, start_ns, end_ns, parent, scenario]
        self.golden_cycles = []
        self.scenario_ns = array("q")   # compact: hfs_transient has 13,760
        self.scenario_cycles = []
        self.scenario_canonical = 0
        self.spliced = 0
        self.stall_cycles = 0
        self.gates = 0
        self._stack = [[0]]        # root frame: child time of nothing
        self._span_stack = [None]
        self._scenario = None
        self._machine = None
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def counted(self, name: str, fn):
        """Wrap fn so each call adds to name's count, total and self time."""
        stack, acc = self._stack, self.stats[name]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[0]
        return wrapper

    def spanned(self, name: str, fn, after=None):
        """Like counted, and also record a span; after(result) runs once
        the span has ended."""
        stack, acc = self._stack, self.stats[name]
        spans, span_stack = self.spans, self._span_stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            span = [name, 0, 0, span_stack[-1], self._scenario]
            span_stack.append(len(spans))
            spans.append(span)
            t0 = span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = span[2] = clock()
                dt = t1 - t0
                span_stack.pop()
                stack.pop()
                stack[-1][0] += dt
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[0]
            if after is not None:
                after(result)
            return result
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn as a span; used at the benchmark's own call sites."""
        return self.spanned(name, fn)(*args, **kwargs)

    def _scenario_wrapper(self, fn):
        inner = self.spanned("campaign.run_scenario", fn)
        canonical = self.stats["redundancy.canonical_state"]
        clock = time.perf_counter_ns

        def run_scenario(scheme, design, stream, spec, golden=None, *rest,
                         **kwargs):
            self._scenario = len(self.scenario_ns)
            canon0 = canonical[0]
            t0 = clock()
            cls, trace = inner(scheme, design, stream, spec, golden, *rest,
                               **kwargs)
            self.scenario_ns.append(clock() - t0)
            self._scenario = None
            cycles = self._machine.cycle
            self.scenario_cycles.append(cycles)
            self.scenario_canonical += canonical[0] - canon0
            if golden is not None and cycles < golden.cycles:
                self.spliced += 1
            self.stall_cycles += cls.stall_cycles
            return cls, trace
        return run_scenario

    def _timed_scenario(self, fn):
        times, clock = self.scenario_ns, time.perf_counter_ns

        def run_scenario(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            times.append(clock() - t0)
            return result
        return run_scenario

    def _keep_machine(self, machine):
        self._machine = machine

    def _wrap_programs(self, programs):
        if self.deep:
            for p in programs:
                p.fast = self.counted("pipeline.fast", p.fast)
                p.interp = self.counted("pipeline.interp", p.interp)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self):
        c = campaign
        self._patch(c, "build_stage_programs",
                    self.spanned("pipeline.build_stage_programs",
                                 c.build_stage_programs,
                                 after=self._wrap_programs))
        self._patch(c, "enumerate_scenarios",
                    self.spanned("campaign.enumerate_scenarios",
                                 c.enumerate_scenarios))
        self._patch(c, "golden_run",
                    self.spanned("campaign.golden_run", c.golden_run,
                                 after=lambda g:
                                 self.golden_cycles.append(g.cycles)))
        if not self.deep:
            self._patch(c, "run_scenario",
                        self._timed_scenario(c.run_scenario))
            return self
        self._patch(c, "run_scenario", self._scenario_wrapper(c.run_scenario))
        self._patch(c, "make_machine",
                    self.spanned("redundancy.make_machine", c.make_machine,
                                 after=self._keep_machine))
        self._patch(c, "ActiveFault",
                    self.spanned("faults.bind", c.ActiveFault))
        for cls in redundancy.MACHINE_CLASSES.values():
            for attr in ("step", "canonical_state"):
                self._patch(cls, attr, self.counted(f"redundancy.{attr}",
                                                    cls.__dict__[attr]))
        for hook in FAULT_HOOKS:
            self._patch(faults.ActiveFault, hook,
                        self.counted("faults.hook",
                                     faults.ActiveFault.__dict__[hook]))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def ms(self, name: str) -> float:
        return self.stats[name][1] / 1e6

    def per_call_us(self, name: str, self_time: bool = False) -> float:
        calls, total, own = self.stats[name]
        return (own if self_time else total) / calls / 1e3 if calls else 0.0

    def setup_parts_s(self) -> list[float]:
        """Work done before the first scenario, per kind of set-up call,
        summed over the campaigns."""
        names = ("synth.synth_sbox", "pipeline.cut_pipeline",
                 "pipeline.build_stage_programs",
                 "campaign.enumerate_scenarios", "campaign.golden_run")
        return [self.stats[n][1] / 1e9 for n in names]

    def per_layer(self) -> dict:
        """The per-layer metrics of a deep trace, as {name: (value, unit)}."""
        scen = len(self.scenario_ns)
        us = [ns / 1e3 for ns in self.scenario_ns]
        cuts = statistics.quantiles(us, n=100, method="inclusive")
        fast, interp = self.calls("pipeline.fast"), self.calls("pipeline.interp")
        canonical = self.scenario_canonical
        return {
            "campaign.golden_run_ms": (self.ms("campaign.golden_run"), "ms"),
            "campaign.golden_cycles": (sum(self.golden_cycles), "cycles"),
            "campaign.enumerate_scenarios_ms":
                (self.ms("campaign.enumerate_scenarios"), "ms"),
            "campaign.run_scenario_us.p50": (cuts[49], "us"),
            "campaign.run_scenario_us.p99": (cuts[98], "us"),
            "campaign.run_scenario_samples": (scen, "count"),
            "campaign.cycles_per_scenario":
                (statistics.median(self.scenario_cycles), "cycles"),
            "campaign.spliced_share": (self.spliced / scen, "ratio"),
            "campaign.splice_hit_ratio":
                (self.spliced / canonical if canonical else 0.0, "ratio"),
            "campaign.run_scenario_self_us":
                (self.stats["campaign.run_scenario"][2] / scen / 1e3,
                 "us/scenario"),
            "campaign.run_campaign_self_ms":
                (self.stats["campaign.run_campaign"][2] / 1e6, "ms"),
            "campaign.write_csv_ms": (self.ms("campaign.write_csv"), "ms"),
            "campaign.write_json_ms": (self.ms("campaign.write_json"), "ms"),
            "redundancy.cycles": (self.calls("redundancy.step"), "cycles"),
            "redundancy.step_self_us":
                (self.per_call_us("redundancy.step", self_time=True),
                 "us/cycle"),
            "redundancy.make_machine_us":
                (self.per_call_us("redundancy.make_machine"), "us/call"),
            "redundancy.canonical_state_calls": (canonical, "count"),
            "redundancy.canonical_state_us":
                (self.per_call_us("redundancy.canonical_state"), "us/call"),
            "redundancy.stall_cycles": (self.stall_cycles, "cycles"),
            "pipeline.fast_calls": (fast, "count"),
            "pipeline.fast_us": (self.per_call_us("pipeline.fast"), "us/call"),
            "pipeline.interp_calls": (interp, "count"),
            "pipeline.interp_us":
                (self.per_call_us("pipeline.interp"), "us/call"),
            "pipeline.interp_share": (interp / (fast + interp), "ratio"),
            "pipeline.cut_pipeline_ms":
                (self.ms("pipeline.cut_pipeline"), "ms"),
            "pipeline.build_stage_programs_ms":
                (self.ms("pipeline.build_stage_programs"), "ms"),
            "pipeline.build_stage_programs_calls":
                (self.calls("pipeline.build_stage_programs"), "count"),
            "faults.bind_us": (self.per_call_us("faults.bind"), "us/call"),
            "faults.hook_calls": (self.calls("faults.hook"), "count"),
            "faults.hook_us": (self.per_call_us("faults.hook"), "us/call"),
            "synth.synth_sbox_ms": (self.ms("synth.synth_sbox"), "ms"),
            "synth.gates": (self.gates, "count"),
        }

    def sidecar(self) -> dict:
        """Everything recorded, for the trace file written after the run."""
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent",
                            "scenario"],
            "spans": self.spans,
            "counters": {name: dict(zip(("calls", "total_ns", "self_ns"),
                                        acc))
                         for name, acc in sorted(self.stats.items())},
            "scenario_ns": list(self.scenario_ns),
            "scenario_cycles": self.scenario_cycles,
            "golden_cycles": self.golden_cycles,
        }
