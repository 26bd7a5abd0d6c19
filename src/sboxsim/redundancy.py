"""Cycle-accurate machines for the fault-tolerance schemes.

Two machines run every scheme on one pipelined S-box design:

  * FcDmrMachine (hfs) - duplicated stage logic and registers, per-stage
    comparators (detection units), hold-state voters, and a global stall:
    while any stage's register pair disagrees, every voter re-presents the
    last agreed values, the stage logic re-executes the same computation,
    and no input is accepted.  One clean re-execution clears the mismatch,
    so a transient costs stall cycles but never a wrong output.
  * one machine for the schemes that never stall, built from the
    scheme's record in SCHEMES: `copies` replica pipelines, each input fed
    `buffer_rows or 1` times in a row, and a bitwise majority vote over
    three copies or three passes.  Its subclasses name the scheme:
    PlainPipelineMachine (original: one copy, one pass, the unprotected
    baseline), TmrMachine (tmr: three copies, voted at the output
    register) and TtrMachine (ttr: three passes of one copy, whose
    buffered results are voted, one result per three cycles).

All machines expose step(input_byte_or_None) -> StepRecord and the
counters consumed / emitted / stall_cycles, and feed(machine, stream) is
the one driver that clocks any of them over a byte stream: the golden
run, every fault scenario, the CLI and the fault-free streaming_eval all
run through it.  A machine holds its state in immutable values only
(tuples, ints, bools, None): stepping replaces a field, never writes into
one.  So canonical_state() is the fields themselves, a snapshot that the
campaign runner uses for golden-state convergence checks, and
restore(state, cycle), its exact inverse, takes them back as they are:
nothing is copied either way.  The campaign runner uses restore to start
a scenario from the golden run at its first fault cycle.  The stall count
is not part of the state; a restored machine keeps its own.

Faults are bound at construction as one ActiveFault, of one spec or of
several, or None, and perturb reads only; see the faults module.  A
machine calls only the hooks of the site kinds its fault has
(ActiveFault.kinds): each hook is the identity for any other kind.

Clocking convention, one step() per cycle: outputs and error flags are
sampled from current register state, stage logic evaluates (_advance,
for every machine's replicas), then the clock edge commits new register
values.  Within a cycle _advance evaluates each distinct (stage, input
word, gate overrides) once across replicas: a stage with overrides runs
for its own replica only, and never also clean for it, and every other
stage is shared by the replicas that read the same word into it.  Both
hfs replicas read (s0, vout), so a gate-faulted hfs cycle makes n
fault-free stage evaluations and one faulted one; a tmr replica whose
boundary word diverged still shares its other stages.  A fault-free
machine reads each stage from its table (StageProgram.clean), so its
runs evaluate each distinct stage input word once, not once per cycle.
A cycle that shares every stage leaves one register tuple for all
replicas, and the hfs detection units compare nothing when both replicas
read that one tuple.
With n stages, the output for the input accepted at cycle t is emitted
at cycle t + n (plus any stalls in between).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .faults import SCHEMES, ActiveFault, scheme_facts
from .pipeline import PipelineDesign, StageProgram, build_stage_programs


def majority3(a: int, b: int, c: int) -> int:
    """Bitwise two-out-of-three majority."""
    return (a & b) | (a & c) | (b & c)


@dataclass(slots=True)
class StepRecord:
    cycle: int
    input: Optional[int]
    accepted: bool
    errs: tuple
    global_err: bool
    output: Optional[int]

    def to_json_dict(self) -> dict:
        return {"cycle": self.cycle, "input": self.input,
                "accepted": self.accepted, "err": list(self.errs),
                "Err": self.global_err, "output": self.output}


class _MachineBase:
    def __init__(self, design: PipelineDesign, fault: ActiveFault = None,
                 programs: list[StageProgram] = None):
        self.design = design
        self.programs = programs if programs is not None else \
            build_stage_programs(design)
        self.fault = fault
        # Each stage's evaluator when all replicas read one word: a
        # fault-free machine reads the stage's table of clean results.
        self._evals = ([p.fast for p in self.programs] if fault is not None
                       else [p.clean for p in self.programs])
        self.n = design.n_stages
        self.cycle = 0
        self.consumed = 0
        self.emitted = 0
        self.stall_cycles = 0

    def _advance(self, word: int, srcs, kinds) -> tuple:
        """Every replica's next register words, one tuple per replica,
        replica r reading srcs[r], with each distinct (stage, input word,
        overrides) evaluated once across replicas: a stage with overrides
        runs for its own replica only and never also clean for it, and
        replicas that read equal words share every other stage."""
        overrides = self.fault.gate_overrides if "gate" in kinds else None
        first = srcs[0]
        if overrides is None and srcs.count(first) == len(srcs):
            # Every stage is shared, as in every fault-free cycle: one
            # pass, one tuple for every replica, no per-stage bookkeeping.
            return (tuple([ev(w) for ev, w in
                           zip(self._evals, (word, *first))]),) * len(srcs)
        out = [[] for _ in srcs]
        for s, p in enumerate(self.programs):
            done = {}               # (input word, overrides) -> result
            for r, regs in enumerate(out):
                key = (srcs[r][s - 1] if s else word,
                       overrides and overrides(s, r))
                v = done.get(key)
                if v is None:
                    w, ov = key
                    v = done[key] = p.interp(w, ov) if ov else p.fast(w)
                regs.append(v)
        return tuple(map(tuple, out))


class FcDmrMachine(_MachineBase):
    """Duplicated pipeline with per-stage detection and hold-state voters.

    Per cycle: the detection units compare the current register pairs and
    the control unit ORs the per-stage errors into the global error.  When
    it is low, voters pass the (agreed) register words, their latches
    take those words at the edge, the input side advances, and the output
    boundary emits.  When it is high, every voter outputs its latch, the
    input side re-presents the last accepted byte, nothing is emitted,
    latches and occupancy freeze; the registers still capture the
    re-executed results, which is what clears a vanished fault's mismatch
    one clean cycle later.
    """

    def __init__(self, design, fault=None, programs=None):
        super().__init__(design, fault, programs)
        self.regs_a = self.regs_b = self.latches = (0,) * self.n
        self.valid = self._agree = (False,) * self.n
        self.in_hold = 0

    def step(self, inp: Optional[int]) -> StepRecord:
        cyc = self.cycle
        n = self.n
        fault = self.fault
        kinds = fault.kinds if fault is not None and fault.active(cyc) else ()

        reads_a, reads_b = self.regs_a, self.regs_b
        if "register" in kinds:
            reads_a = fault.transform_regs(0, reads_a)
            reads_b = fault.transform_regs(1, reads_b)
        # One tuple read for both replicas, as a shared _advance leaves on
        # every fault-free cycle, cannot disagree with itself.
        errs = (self._agree if reads_a is reads_b
                else [a != b for a, b in zip(reads_a, reads_b)])
        if "comparator" in kinds:
            errs = [fault.du_apply(s, e) for s, e in enumerate(errs)]
        g_err = True in errs

        if g_err:
            vout = self.latches
            if "voter_latch" in kinds:
                vout = [fault.latch_read(s, w) for s, w in enumerate(vout)]
            s0 = self.in_hold
            accepted = False
            out = None
        else:
            vout = reads_a
            accepted = inp is not None
            s0 = inp if accepted else self.in_hold
            out = (self.design.output_byte(vout[n - 1])
                   if self.valid[n - 1] else None)

        # Clock edge.  Registers always recapture; everything else is
        # gated by the global error.  Both replicas evaluate s0 and vout,
        # so they differ at most in a stage with gate overrides.
        self.regs_a, self.regs_b = self._advance(s0, (vout, vout), kinds)
        if g_err:
            self.stall_cycles += 1
        else:
            self.latches = reads_a
            self.valid = (accepted,) + self.valid[:n - 1]
            self.in_hold = s0
            if accepted:
                self.consumed += 1
            if out is not None:
                self.emitted += 1
        self.cycle += 1
        return StepRecord(cyc, inp, accepted, tuple(errs), g_err, out)

    def canonical_state(self):
        return (self.regs_a, self.regs_b, self.latches, self.valid,
                self.in_hold, self.consumed, self.emitted)

    def restore(self, state, cycle: int) -> None:
        (self.regs_a, self.regs_b, self.latches, self.valid, self.in_hold,
         self.consumed, self.emitted) = state
        self.cycle = cycle


class _FixedLatencyMachine(_MachineBase):
    """A scheme that never stalls, built from its record in SCHEMES (see
    the module docstring).  A result leaves every `passes` cycles."""

    scheme: str         # each subclass names its scheme

    def __init__(self, design, fault=None, programs=None):
        super().__init__(design, fault, programs)
        facts = SCHEMES[self.scheme]
        self.copies = facts.copies
        self.passes = facts.buffer_rows or 1
        self.regs = ((0,) * self.n,) * self.copies
        self.valid = (False,) * self.n
        self.buffer = ()        # the results of this input's passes so far
        self.phase = 0          # 0 accepts a new input; later passes replay it
        self.held: Optional[int] = None

    def step(self, inp: Optional[int]) -> StepRecord:
        cyc = self.cycle
        n = self.n
        fault = self.fault
        kinds = fault.kinds if fault is not None and fault.active(cyc) else ()
        reads = self.regs
        if "register" in kinds:
            reads = tuple([fault.transform_regs(r, regs)
                           for r, regs in enumerate(reads)])

        out = None
        if self.valid[n - 1]:
            last = (majority3(*[regs[n - 1] for regs in reads])
                    if self.copies == 3 else reads[0][n - 1])
            if self.passes == 1:
                out = last
            else:
                self.buffer += (last,)
                if len(self.buffer) == self.passes:
                    rows = self.buffer
                    if "register" in kinds:
                        # Result-buffer row k is boundary n + k.
                        rows = [fault.reg_read(0, n + k, w)
                                for k, w in enumerate(rows)]
                    out = majority3(*rows)
                    self.buffer = ()
            if out is not None:
                out = self.design.output_byte(out)
                self.emitted += 1

        if self.passes == 1:
            accepted = feeding = inp is not None
            word = inp if accepted else 0
        else:
            accepted = False
            if self.phase == 0:
                self.held = inp
                accepted = inp is not None
            self.phase = (self.phase + 1) % self.passes
            feeding = self.held is not None
            word = self.held if feeding else 0
        if accepted:
            self.consumed += 1
        self.regs = self._advance(word, reads, kinds)
        self.valid = (feeding,) + self.valid[:n - 1]
        self.cycle += 1
        return StepRecord(cyc, inp, accepted, (), False, out)

    def canonical_state(self):
        return (self.regs, self.valid, self.buffer, self.phase, self.held,
                self.consumed, self.emitted)

    def restore(self, state, cycle: int) -> None:
        (self.regs, self.valid, self.buffer, self.phase, self.held,
         self.consumed, self.emitted) = state
        self.cycle = cycle


# Each subclass repeats step and canonical_state only because perfbench's
# tracer patches them in each machine class's own namespace; they go once
# it stops pinning them by name (ROADMAP item 1).


class PlainPipelineMachine(_FixedLatencyMachine):
    """The unprotected pipelined S-box: no detection, no stalls."""
    scheme = "original"
    step = _FixedLatencyMachine.step
    canonical_state = _FixedLatencyMachine.canonical_state


class TmrMachine(_FixedLatencyMachine):
    """Three replica pipelines, output-register majority vote, no stalls."""
    scheme = "tmr"
    step = _FixedLatencyMachine.step
    canonical_state = _FixedLatencyMachine.canonical_state


class TtrMachine(_FixedLatencyMachine):
    """Time redundancy: each input runs through the single pipeline three
    times in consecutive cycles; the three buffered results are bitwise
    majority-voted."""
    scheme = "ttr"
    step = _FixedLatencyMachine.step
    canonical_state = _FixedLatencyMachine.canonical_state


MACHINE_CLASSES = {
    "original": PlainPipelineMachine,
    "hfs": FcDmrMachine,
    "tmr": TmrMachine,
    "ttr": TtrMachine,
}


def make_machine(scheme: str, design: PipelineDesign, fault=None,
                 programs=None):
    scheme_facts(scheme)
    return MACHINE_CLASSES[scheme](design, fault, programs)


def feed(machine, stream, cap: Optional[int] = None):
    """Clock machine over stream, yielding each cycle's StepRecord.

    Each cycle offers the next unconsumed byte, stream[machine.consumed],
    or None once every byte is consumed, so a stalled or replaying machine
    is offered the same byte again.  Stops once one output per byte has
    been emitted or machine.cycle reaches cap.
    """
    want = len(stream)
    while machine.emitted < want and (cap is None or machine.cycle < cap):
        yield machine.step(stream[machine.consumed]
                           if machine.consumed < want else None)
