"""Fault sites, fault specifications, and the per-cycle injection overlay.

A fault lives at one site:

  * GateSite(gate_id, replica)       - a logic gate's output wire
  * RegisterSite(stage, bit, replica) - one bit of a pipeline boundary
    register (for the time-redundant scheme, stages n_stages..n_stages+2
    address the three result-buffer rows)
  * ComparatorSite(stage)            - a detection unit's error output
  * VoterLatchSite(stage, bit)       - one bit of a hold-state voter latch

and follows one model: stuck-at-0, stuck-at-1, or bit-flip, over a cycle
window [start_cycle, start_cycle + duration).  duration=PERMANENT means
the fault never clears; a permanent bit-flip is rejected (a flip is an
event, not a level).

Faults perturb what the circuit *reads*: a faulted gate output is forced
as the stage logic evaluates, a faulted register or latch bit is
transformed whenever the machine samples the word.  Stored values are
left untouched, so a fault's effect ends with its window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .pipeline import PipelineDesign

PERMANENT = None

STUCK0 = "sa0"
STUCK1 = "sa1"
FLIP = "flip"
MODELS = (STUCK0, STUCK1, FLIP)

SCHEMES = ("original", "hfs", "tmr", "ttr")
REPLICAS = {"original": 1, "hfs": 2, "tmr": 3, "ttr": 1}


class InvalidSiteError(ValueError):
    """The fault site does not exist in the target design/scheme."""


class InvalidFaultError(ValueError):
    """A fault specification with an unknown model or a bad cycle window."""


@dataclass(frozen=True, slots=True)
class GateSite:
    gate_id: int
    replica: int = 0
    kind = "gate"

    def __str__(self):
        return f"gate:{self.gate_id}:r{self.replica}"


@dataclass(frozen=True, slots=True)
class RegisterSite:
    stage: int
    bit: int
    replica: int = 0
    kind = "register"

    def __str__(self):
        return f"reg:{self.stage}:{self.bit}:r{self.replica}"


@dataclass(frozen=True, slots=True)
class ComparatorSite:
    stage: int
    kind = "comparator"

    def __str__(self):
        return f"du:{self.stage}"


@dataclass(frozen=True, slots=True)
class VoterLatchSite:
    stage: int
    bit: int
    kind = "voter_latch"

    def __str__(self):
        return f"voter:{self.stage}:{self.bit}"


FaultSite = Union[GateSite, RegisterSite, ComparatorSite, VoterLatchSite]


@dataclass(frozen=True, slots=True)
class FaultSpec:
    site: FaultSite
    model: str
    start_cycle: int
    duration: Optional[int]  # PERMANENT (None) or a positive cycle count

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidFaultError(f"unknown fault model {self.model!r}")
        if type(self.start_cycle) is not int or self.start_cycle < 0:
            raise InvalidFaultError(f"start_cycle must be a nonnegative "
                                    f"integer, got {self.start_cycle!r}")
        if self.duration is PERMANENT:
            if self.model == FLIP:
                raise InvalidFaultError(
                    "a bit-flip is an event and cannot be permanent")
        elif type(self.duration) is not int or self.duration < 1:
            raise InvalidFaultError(f"duration must be a positive integer "
                                    f"(or PERMANENT), got {self.duration!r}")

    def __str__(self):
        dur = "perm" if self.duration is PERMANENT else str(self.duration)
        return f"{self.site}:{self.model}:@{self.start_cycle}+{dur}"


def _buffer_rows(scheme: str) -> int:
    return 3 if scheme == "ttr" else 0


def enumerate_sites(design: PipelineDesign, scheme: str) -> list:
    """Complete, duplicate-free, deterministic fault-site list.

    For the duplicated-pipeline scheme this covers both replicas' gates
    and register bits plus the per-stage comparators and voter latches;
    for the others, each replica's gates and registers (and the result
    buffer for the time-redundant scheme).
    """
    if scheme not in SCHEMES:
        raise InvalidSiteError(f"unknown scheme {scheme!r}")
    sites: list = []
    widths = [len(c) for c in design.cuts]
    for replica in range(REPLICAS[scheme]):
        for g in design.netlist.gates:
            sites.append(GateSite(g.id, replica))
        for stage, w in enumerate(widths):
            for bit in range(w):
                sites.append(RegisterSite(stage, bit, replica))
        for row in range(_buffer_rows(scheme)):
            for bit in range(len(design.netlist.outputs)):
                sites.append(RegisterSite(design.n_stages + row, bit, replica))
    if scheme == "hfs":
        for stage in range(design.n_stages):
            sites.append(ComparatorSite(stage))
        for stage, w in enumerate(widths):
            for bit in range(w):
                sites.append(VoterLatchSite(stage, bit))
    return sites


def _apply_bit(model: str, word: int, mask: int) -> int:
    if model == STUCK0:
        return word & ~mask
    if model == STUCK1:
        return word | mask
    return word ^ mask


class ActiveFault:
    """One FaultSpec bound to a design and scheme, with fast per-cycle hooks.

    Machines call active(cycle) once per cycle; the remaining hooks are only
    consulted while the window is open.  Hooks are read transforms: they
    never modify stored state.  kinds holds the site's kind; each hook is
    the identity for sites of any other kind, so machines call only the
    hooks of the kinds a fault has (gate: gate_overrides; register:
    transform_regs and reg_read; comparator: du_apply; voter_latch:
    latch_read).
    """

    def __init__(self, spec: FaultSpec, design: PipelineDesign, scheme: str):
        if scheme not in SCHEMES:
            raise InvalidSiteError(f"unknown scheme {scheme!r}")
        self.spec = spec
        self.scheme = scheme
        self.start = spec.start_cycle
        self.end = (None if spec.duration is PERMANENT
                    else spec.start_cycle + spec.duration)
        site = spec.site
        n_in = len(design.netlist.inputs)
        widths = [len(c) for c in design.cuts]

        self.gate_stage = -1
        self.gate_replica = -1
        self.gate_map = frozenset()
        self.reg_boundary = -1
        self.reg_replica = -1
        self.reg_mask = 0
        self.du_stage = -1
        self.latch_boundary = -1
        self.latch_mask = 0
        self.model = spec.model

        if isinstance(site, GateSite):
            if not (n_in <= site.gate_id < design.netlist.signal_count):
                raise InvalidSiteError(f"no gate {site.gate_id} in design")
            if not (0 <= site.replica < REPLICAS[scheme]):
                raise InvalidSiteError(
                    f"replica {site.replica} out of range for {scheme}")
            self.gate_stage = design.stage_of_gate[site.gate_id - n_in]
            self.gate_replica = site.replica
            self.gate_map = frozenset({(site.gate_id,
                                        0 if spec.model == STUCK0 else
                                        1 if spec.model == STUCK1 else
                                        "flip")})
        elif isinstance(site, RegisterSite):
            max_stage = design.n_stages + _buffer_rows(scheme)
            if not (0 <= site.stage < max_stage):
                raise InvalidSiteError(f"no register stage {site.stage}")
            width = (widths[site.stage] if site.stage < design.n_stages
                     else len(design.netlist.outputs))
            if not (0 <= site.bit < width):
                raise InvalidSiteError(
                    f"stage {site.stage} has no bit {site.bit}")
            if not (0 <= site.replica < REPLICAS[scheme]):
                raise InvalidSiteError(
                    f"replica {site.replica} out of range for {scheme}")
            self.reg_boundary = site.stage
            self.reg_replica = site.replica
            self.reg_mask = 1 << site.bit
        elif isinstance(site, ComparatorSite):
            if scheme != "hfs":
                raise InvalidSiteError("comparators exist only in the "
                                       "duplicated-pipeline scheme")
            if not (0 <= site.stage < design.n_stages):
                raise InvalidSiteError(f"no comparator for stage {site.stage}")
            self.du_stage = site.stage
        elif isinstance(site, VoterLatchSite):
            if scheme != "hfs":
                raise InvalidSiteError("voter latches exist only in the "
                                       "duplicated-pipeline scheme")
            if not (0 <= site.stage < design.n_stages):
                raise InvalidSiteError(f"no voter for stage {site.stage}")
            if not (0 <= site.bit < widths[site.stage]):
                raise InvalidSiteError(
                    f"voter {site.stage} has no bit {site.bit}")
            self.latch_boundary = site.stage
            self.latch_mask = 1 << site.bit
        else:
            raise InvalidSiteError(f"unrecognized site {site!r}")
        self.kinds = frozenset((site.kind,))

    def active(self, cycle: int) -> bool:
        return cycle >= self.start and (self.end is None or cycle < self.end)

    def expired(self, cycle: int) -> bool:
        return self.end is not None and cycle >= self.end

    # Hooks below are only consulted while active(cycle) is true; machines
    # gate on that themselves, so the hooks skip the window check.

    def gate_overrides(self, cycle: int, stage: int,
                       replica: int) -> Optional[frozenset]:
        if stage == self.gate_stage and replica == self.gate_replica:
            return self.gate_map
        return None

    def transform_regs(self, cycle: int, replica: int,
                       regs: list[int]) -> list[int]:
        b = self.reg_boundary
        if replica != self.reg_replica or not 0 <= b < len(regs):
            return regs
        out = list(regs)
        out[b] = _apply_bit(self.model, out[b], self.reg_mask)
        return out

    def reg_read(self, cycle: int, replica: int, boundary: int,
                 word: int) -> int:
        if boundary == self.reg_boundary and replica == self.reg_replica:
            return _apply_bit(self.model, word, self.reg_mask)
        return word

    def du_apply(self, cycle: int, stage: int, err: bool) -> bool:
        if stage != self.du_stage:
            return err
        if self.model == STUCK0:
            return False
        if self.model == STUCK1:
            return True
        return not err

    def latch_read(self, cycle: int, boundary: int, word: int) -> int:
        if boundary == self.latch_boundary:
            return _apply_bit(self.model, word, self.latch_mask)
        return word


class FaultSet:
    """Several simultaneous faults, applied in list order.

    Multi-fault scenarios carry no correction guarantee; they exist so the
    classifier can report what actually happens.  Member windows are
    checked per cycle, so faults with different start/duration compose.
    kinds is the union of the members' site kinds.
    """

    def __init__(self, faults: list):
        if not faults:
            raise ValueError("empty fault set")
        self.faults = list(faults)
        self.kinds = frozenset().union(*(f.kinds for f in self.faults))

    @classmethod
    def bind(cls, specs, design: PipelineDesign, scheme: str) -> "FaultSet":
        return cls([ActiveFault(s, design, scheme) for s in specs])

    def active(self, cycle: int) -> bool:
        return any(f.active(cycle) for f in self.faults)

    def expired(self, cycle: int) -> bool:
        return all(f.expired(cycle) for f in self.faults)

    def gate_overrides(self, cycle, stage, replica) -> Optional[frozenset]:
        merged = {}
        for f in self.faults:
            if f.active(cycle):
                merged.update(f.gate_overrides(cycle, stage, replica) or ())
        return frozenset(merged.items()) if merged else None

    def transform_regs(self, cycle, replica, regs) -> list[int]:
        for f in self.faults:
            if f.active(cycle):
                regs = f.transform_regs(cycle, replica, regs)
        return regs

    def reg_read(self, cycle, replica, boundary, word) -> int:
        for f in self.faults:
            if f.active(cycle):
                word = f.reg_read(cycle, replica, boundary, word)
        return word

    def du_apply(self, cycle, stage, err) -> bool:
        for f in self.faults:
            if f.active(cycle):
                err = f.du_apply(cycle, stage, err)
        return err

    def latch_read(self, cycle, boundary, word) -> int:
        for f in self.faults:
            if f.active(cycle):
                word = f.latch_read(cycle, boundary, word)
        return word
