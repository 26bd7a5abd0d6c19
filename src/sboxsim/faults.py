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

A site exists in a design and scheme when enumerate_sites lists it;
nothing else says which sites exist.  It lists them from the scheme's
record in SCHEMES, the one table of what each scheme builds.  Binding a
spec to a design and scheme (ActiveFault) looks its site up there and
turns it into one entry of a table keyed by (kind, replica, stage), with
replica 0 for comparators and latches.  A word entry is one (and, or,
xor) mask triple, read as (word & and | or) ^ xor: stuck-at-0 on the
bits m is (~m, 0, 0), stuck-at-1 is (-1, m, 0) and a flip is (-1, 0, m).
A register entry's stage is its boundary, and a comparator's triple acts
on bit 0.  A gate entry is keyed by its gate's stage and holds the
override set {(gate id, triple on bit 0)}.  The five hooks the machines
call are lookups in this table, and a FaultSet merges its active
members' tables into its own: a later gate fault replaces an earlier one
on the same gate, and triples on one word compose in list order.  Hooks
answer for the cycle last passed to active(), which the machines call
first in every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

from .pipeline import PipelineDesign

PERMANENT = None

STUCK0 = "sa0"
STUCK1 = "sa1"
FLIP = "flip"
MODELS = (STUCK0, STUCK1, FLIP)


@dataclass(frozen=True, slots=True)
class Scheme:
    """What a fault-tolerance scheme builds around the pipeline."""
    copies: int          # pipeline replicas run side by side
    buffer_rows: int     # result-buffer rows: one per pass of each input
    stalls: bool         # detection units and voter latches; stalls on error
    guarantees: tuple    # (tolerates transient, tolerates permanent)


# The one table of scheme facts; iterating it gives the scheme names.
SCHEMES = {
    "original": Scheme(1, 0, False, (False, False)),
    "hfs": Scheme(2, 0, True, (True, False)),
    "tmr": Scheme(3, 0, False, (True, True)),
    "ttr": Scheme(1, 3, False, (True, False)),
}


def scheme_facts(scheme: str) -> Scheme:
    """The scheme's record in SCHEMES; an unknown name is a ValueError."""
    facts = SCHEMES.get(scheme) if isinstance(scheme, str) else None
    if facts is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    return facts


class InvalidSiteError(ValueError):
    """The fault site does not exist in the target design/scheme."""


class InvalidFaultError(ValueError):
    """A fault specification with an unknown model or a bad cycle window."""


def _check_ints(site) -> None:
    """Every site field is a plain int: a float or bool equal to one
    would look up as that site, yet print as itself and index nothing."""
    for name in site.__slots__:
        value = getattr(site, name)
        if type(value) is not int:
            raise InvalidSiteError(f"{type(site).__name__}.{name} must be "
                                   f"an integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class GateSite:
    gate_id: int
    replica: int = 0
    kind = "gate"
    __post_init__ = _check_ints

    def __str__(self):
        return f"gate:{self.gate_id}:r{self.replica}"


@dataclass(frozen=True, slots=True)
class RegisterSite:
    stage: int
    bit: int
    replica: int = 0
    kind = "register"
    __post_init__ = _check_ints

    def __str__(self):
        return f"reg:{self.stage}:{self.bit}:r{self.replica}"


@dataclass(frozen=True, slots=True)
class ComparatorSite:
    stage: int
    kind = "comparator"
    __post_init__ = _check_ints

    def __str__(self):
        return f"du:{self.stage}"


@dataclass(frozen=True, slots=True)
class VoterLatchSite:
    stage: int
    bit: int
    kind = "voter_latch"
    __post_init__ = _check_ints

    def __str__(self):
        return f"voter:{self.stage}:{self.bit}"


FaultSite = Union[GateSite, RegisterSite, ComparatorSite, VoterLatchSite]
_SITE_CLASSES = {"gate": GateSite, "reg": RegisterSite,
                 "du": ComparatorSite, "voter": VoterLatchSite}
SITE_KINDS = tuple(cls.kind for cls in _SITE_CLASSES.values())


def parse_site(text: str) -> FaultSite:
    """The site whose str() is text; a replica may be left out (replica
    0) or written without its "r"."""
    prefix, *values = text.split(":")
    cls = _SITE_CLASSES.get(prefix)
    names = [f.name for f in fields(cls)] if cls else []
    if names[-1:] == ["replica"]:
        if len(values) == len(names) - 1:
            values.append("0")
        elif len(values) == len(names):
            values[-1] = values[-1].removeprefix("r")
    if not names or len(values) != len(names) or \
            not all(v.isascii() and v.isdigit() for v in values):
        raise InvalidSiteError(
            f"bad fault site {text!r}; expected gate:ID[:rREPLICA], "
            "reg:STAGE:BIT[:rREPLICA], du:STAGE, or voter:STAGE:BIT")
    return cls(*map(int, values))


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


def enumerate_sites(design: PipelineDesign, scheme: str) -> list:
    """Complete, duplicate-free, deterministic fault-site list.

    Each replica's gates, register bits and result-buffer rows, then,
    for a scheme that stalls (the duplicated pipeline), the per-stage
    comparators and voter latches.
    """
    facts = scheme_facts(scheme)
    sites: list = []
    widths = [len(c) for c in design.cuts]
    for replica in range(facts.copies):
        for g in design.netlist.gates:
            sites.append(GateSite(g.id, replica))
        for stage, w in enumerate(widths):
            for bit in range(w):
                sites.append(RegisterSite(stage, bit, replica))
        for row in range(facts.buffer_rows):
            for bit in range(len(design.netlist.outputs)):
                sites.append(RegisterSite(design.n_stages + row, bit, replica))
    if facts.stalls:
        for stage in range(design.n_stages):
            sites.append(ComparatorSite(stage))
        for stage, w in enumerate(widths):
            for bit in range(w):
                sites.append(VoterLatchSite(stage, bit))
    return sites


def _triple(model: str, mask: int) -> tuple:
    """The (and, or, xor) masks of model on the bits of mask."""
    if model == STUCK0:
        return ~mask, 0, 0
    return (-1, mask, 0) if model == STUCK1 else (-1, 0, mask)


def _then(t: tuple, u: tuple) -> tuple:
    """The triple of reading through t, then through u: per bit, each
    maps x to 0, 1, x or not x, and so does the two in turn."""
    a, o, x = t
    a2, o2, x2 = u
    return a & a2, o & a2 | o2, x & a2 & ~o2 ^ x2


def _merged(tables) -> dict:
    """One table from several, their entries for one key joined in order:
    a later gate override replaces an earlier one on the same gate, and
    triples on one word compose with _then."""
    out = {}
    for table in tables:
        for key, v in table.items():
            if key in out:
                v = (frozenset({**dict(out[key]), **dict(v)}.items())
                     if key[0] == "gate" else _then(out[key], v))
            out[key] = v
    return out


class ActiveFault:
    """One FaultSpec bound to a design and scheme, as a one-entry table
    keyed by (kind, replica, stage) (see the module docstring).

    Machines call active(cycle) once per cycle and consult the hooks only
    while it is true.  Hooks are read transforms: they never modify
    stored state.  kinds holds the site's kind; each hook is the identity
    for sites of any other kind (it finds no entry of its own kind), so
    machines call only the hooks of the kinds a fault has (gate:
    gate_overrides; register: transform_regs and reg_read; comparator:
    du_apply; voter_latch: latch_read).
    """

    def __init__(self, spec: FaultSpec, design: PipelineDesign, scheme: str):
        site = spec.site
        sites = design._derived(
            ("sites", scheme),
            lambda: frozenset(enumerate_sites(design, scheme)))
        if site not in sites:
            raise InvalidSiteError(f"no site {site} in the {scheme} design")
        self.spec = spec
        self.start = spec.start_cycle
        self.end = (None if spec.duration is PERMANENT
                    else spec.start_cycle + spec.duration)
        entry = _triple(spec.model, 1 << getattr(site, "bit", 0))
        if site.kind == "gate":
            stage = design.stage_of_gate[site.gate_id
                                         - len(design.netlist.inputs)]
            entry = frozenset({(site.gate_id, entry)})
        else:
            stage = site.stage
        self._table = {(site.kind, getattr(site, "replica", 0), stage): entry}
        self.kinds = frozenset((site.kind,))

    def active(self, cycle: int) -> bool:
        return cycle >= self.start and (self.end is None or cycle < self.end)

    def expired(self, cycle: int) -> bool:
        return self.end is not None and cycle >= self.end

    # The hooks answer for the cycle last passed to active() and are only
    # consulted while it was true, so they skip the window check.

    def gate_overrides(self, stage: int, replica: int) -> Optional[frozenset]:
        return self._table.get(("gate", replica, stage))

    def transform_regs(self, replica: int, regs: tuple) -> tuple:
        """regs as the replica reads them: a new tuple if a word of it is
        faulted, else regs itself.  regs is never written."""
        for (kind, r, b), t in self._table.items():
            if kind == "register" and r == replica and b < len(regs):
                a, o, x = t
                regs = (*regs[:b], (regs[b] & a | o) ^ x, *regs[b + 1:])
        return regs

    def _read(self, key: tuple, word: int) -> int:
        t = self._table.get(key)
        return word if t is None else (word & t[0] | t[1]) ^ t[2]

    def reg_read(self, replica: int, boundary: int, word: int) -> int:
        return self._read(("register", replica, boundary), word)

    def du_apply(self, stage: int, err: bool) -> bool:
        return bool(self._read(("comparator", 0, stage), err))

    def latch_read(self, boundary: int, word: int) -> int:
        return self._read(("voter_latch", 0, boundary), word)


class FaultSet(ActiveFault):
    """Several simultaneous faults, applied in list order.

    Multi-fault scenarios carry no correction guarantee; they exist so the
    classifier can report what actually happens.  Member windows are
    checked per cycle, so faults with different start/duration compose:
    active(cycle) merges the tables of the members active at that cycle
    whenever that set of members changes.  kinds is the union of the
    members' site kinds.
    """

    def __init__(self, faults: list):
        if not faults:
            raise ValueError("empty fault set")
        self.faults = list(faults)
        self.kinds = frozenset().union(*(f.kinds for f in self.faults))
        self._live = ()     # the members the table was merged from
        self._table = {}

    @classmethod
    def bind(cls, specs, design: PipelineDesign, scheme: str) -> "FaultSet":
        return cls([ActiveFault(s, design, scheme) for s in specs])

    def active(self, cycle: int) -> bool:
        live = tuple(f for f in self.faults if f.active(cycle))
        if live != self._live:
            self._live = live
            self._table = _merged(f._table for f in live)
        return bool(live)

    def expired(self, cycle: int) -> bool:
        return all(f.expired(cycle) for f in self.faults)
