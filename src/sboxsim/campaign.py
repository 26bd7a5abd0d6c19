"""Fault-injection campaigns: scenario execution, classification, aggregation.

Each scenario runs one faulted simulation against a cached fault-free
(golden) run of the same input stream, which evaluates each distinct
stage input word once (StageProgram.clean), and classifies the outcome:

  * masked               - no detection, no stall, outputs identical
  * detected_corrected   - detection and/or stalls, outputs identical
  * sdc                  - an output deviated with no detection raised
  * detected_uncorrected - detection raised but the output stream still
    deviated or never completed

Each output is compared, as it is emitted, with the golden output at the
same position: a machine's emitted counter numbers its outputs as the
golden run's does, stalls and ttr replays included.  A scenario keeps
only the cycle of its first deviation.

Runs exit early once the faulted machine's state, at matching input
position, equals the golden run's snapshot and the fault window has
closed: from that point both futures are bit-identical, so the remaining
golden outputs are spliced in.  This is an exact check, not a heuristic,
and it is what makes exhaustive transient campaigns cheap.  A scheme
that never stalls (original, tmr, ttr) raises no error either, so an
untraced run of it also stops at its first wrong output, which decides
the row whatever follows: sdc, no stalls, that cycle (fault dropping).

Before its first fault cycle a scenario is the golden run, so it does not
re-simulate that clean prefix: it restores the machine to the golden
snapshot at that cycle (the resume of checkpoint-based fault injection).
The outputs emitted by then are the golden run's, and the restored
emitted counter puts the next output at the next golden position, so no
work grows with the prefix.  A scenario that collects a trace still
starts at cycle 0, so the trace covers the whole run and the traced run
stays the reference the tests compare the resume with.

A permanent fault never closes its window, so it never splices.  When it
is the only fault, starts at cycle 0 and hits a fixed-latency scheme
(original, tmr, ttr), and no trace is requested, every output is a pure
function of its input value; such a scenario skips the cycle loop and is
classified by one bit-sliced pass of the faulty replica's stages over
all 2**n_inputs input values at once (parallel-pattern single-fault
propagation).  It is sdc at the first stream position whose value comes
out wrong, with that position's golden emission cycle, else masked, and
never stalls.  The cycle-accurate machines remain the reference the tests
compare it with on full permanent grids.

Stage programs (compiled bodies, clean tables and lane variants; see
StageProgram) depend on nothing but the design, so the first use of a
design object builds them and keeps them on it (stage_programs), and every
later campaign, golden run and scenario on that object finds them there
and reuses them, so no call passes them along: tmr and ttr campaigns that
follow an original one on the same design compile nothing new, and their
golden runs start from warm tables.  They are kept
by object identity, never by value, and are not pickled: a worker process
builds its own from the design it receives.

Campaigns enumerate site x model x duration x start-cycle grids (or a
seeded random sample), optionally across worker processes; aggregation
is an order-independent merge, and re-running any campaign with the same
seed reproduces its result files byte for byte.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .faults import (MODELS, PERMANENT, SCHEMES, SITE_KINDS, STUCK0,
                     STUCK1, FLIP, ActiveFault, FaultSet, FaultSpec,
                     InvalidFaultError, enumerate_sites, scheme_facts)
from .pipeline import PipelineDesign, build_stage_programs
from .redundancy import feed, majority3, make_machine

MASKED = "masked"
DETECTED_CORRECTED = "detected_corrected"
SDC = "sdc"
DETECTED_UNCORRECTED = "detected_uncorrected"
CLASS_KINDS = (MASKED, DETECTED_CORRECTED, SDC, DETECTED_UNCORRECTED)


class EmptyCampaignError(ValueError):
    """The campaign configuration selects no scenarios."""


@dataclass(frozen=True, slots=True)
class Classification:
    kind: str
    stall_cycles: int = 0
    first_bad_cycle: Optional[int] = None


@dataclass
class GoldenRun:
    outputs: list
    states: list           # canonical state after k cycles, k = 0..cycles
    cycles: int
    emitted_at: list       # the cycle of each output


def stage_programs(design: PipelineDesign) -> list:
    """The stage programs of this design object: built on its first use
    and kept on it for every later campaign (see the module docstring)."""
    # build_stage_programs is looked up here on each build, so a test or
    # tracer that replaces this module's name sees every build.
    return design._derived("programs", lambda: build_stage_programs(design))


def golden_run(scheme: str, design: PipelineDesign, stream) -> GoldenRun:
    m = make_machine(scheme, design, None, stage_programs(design))
    stream = list(stream)
    outputs = []
    emitted_at = []
    states = [m.canonical_state()]
    cap = 4 * len(stream) + 4 * design.n_stages + 64
    for rec in feed(m, stream, cap):
        if rec.output is not None:
            outputs.append(rec.output)
            emitted_at.append(rec.cycle)
        states.append(m.canonical_state())
    if m.emitted != len(stream):
        raise RuntimeError("golden run failed to drain the pipeline")
    return GoldenRun(outputs=outputs, states=states, cycles=m.cycle,
                     emitted_at=emitted_at)


def _check_start(start: int, golden: GoldenRun) -> None:
    """A fault that starts once the fault-free run has ended is never
    injected, and would read as masked."""
    if start >= golden.cycles:
        raise InvalidFaultError(
            f"a fault starting at cycle {start} is never injected: the "
            f"fault-free run ends after {golden.cycles} cycles")


def run_scenario(scheme: str, design: PipelineDesign, stream,
                 spec, golden: GoldenRun = None, *,
                 collect_trace: bool = False):
    """Simulate one fault scenario and classify it against the golden run.

    spec is one FaultSpec, or a list of them for a simultaneous multi-fault
    scenario (classification only; no scheme guarantees multi-fault
    correction).  Returns (Classification, trace) where trace is a list of
    StepRecord when requested, else None.  An untraced scenario starts
    from the golden snapshot at its first fault cycle; a traced one runs
    from cycle 0.  A lone permanent fault from cycle 0 on original, tmr or
    ttr, untraced, is classified without a machine by one bit-sliced pass
    (see the module docstring).  Raises InvalidFaultError when the
    earliest start is not before the end of the golden run; a later
    member of a set may still fire, once stalls lengthen the run.
    """
    if not isinstance(stream, (bytes, list)):
        stream = list(stream)
    programs = stage_programs(design)
    if golden is None:
        golden = golden_run(scheme, design, stream)
    specs = list(spec) if isinstance(spec, (list, tuple)) else [spec]
    if not specs:
        raise ValueError("empty fault set: a scenario needs a fault")
    first = min(s.start_cycle for s in specs)
    _check_start(first, golden)
    fault = (FaultSet.bind(specs, design, scheme) if len(specs) > 1
             else ActiveFault(specs[0], design, scheme))
    stalls = SCHEMES[scheme].stalls
    if (len(specs) == 1 and not collect_trace
            and specs[0].duration is PERMANENT and specs[0].start_cycle == 0
            and not stalls
            and len(design.netlist.inputs) <= _MAX_LANE_INPUTS):
        return _classify_permanent(scheme, design, stream, fault, golden,
                                   programs), None
    m = make_machine(scheme, design, fault, programs)
    if not collect_trace:
        # No fault is active before the first start, so until then the
        # faulted run is the golden run: resume from its snapshot.
        m.restore(golden.states[first], first)

    window = max(0 if s.duration is PERMANENT else s.start_cycle + s.duration
                 for s in specs)
    cap = golden.cycles + window + _MAX_EXTRA_CYCLES

    trace = [] if collect_trace else None
    detected = False
    spliced = False
    first_bad = None
    for rec in feed(m, stream, cap):
        if rec.global_err:
            detected = True
        # An output's golden position is emitted - 1 (module docstring).
        if rec.output is not None and first_bad is None and \
                rec.output != golden.outputs[m.emitted - 1]:
            first_bad = rec.cycle
        if collect_trace:
            trace.append(rec)
            continue     # a requested trace must cover the whole run
        # A scheme that never stalls raises no error either, so its first
        # wrong output decides the row: sdc, no stalls, that cycle.
        if first_bad is not None and not stalls:
            break
        # Exact convergence check: fault gone, machine unstalled, state
        # identical to the golden run at the same input position.
        if fault.expired(m.cycle) and not rec.global_err:
            idx = m.cycle - m.stall_cycles
            if idx < len(golden.states) and \
                    m.canonical_state() == golden.states[idx]:
                spliced = True
                break

    if first_bad is not None or not (spliced or m.emitted == len(stream)):
        kind = DETECTED_UNCORRECTED if detected else SDC
        return Classification(kind, m.stall_cycles, first_bad), trace
    if detected or m.stall_cycles:
        return Classification(DETECTED_CORRECTED, m.stall_cycles), trace
    return Classification(MASKED), trace


# A faulted run may take this many cycles beyond the golden run and the
# fault window before it counts as never completing.
_MAX_EXTRA_CYCLES = 96
_MAX_LANE_INPUTS = 16      # 65,536 lanes; wider inputs take the cycle loop


def _classify_permanent(scheme: str, design: PipelineDesign, stream,
                        fault: ActiveFault, golden: GoldenRun,
                        programs: list) -> Classification:
    """Classify a permanent fault active from cycle 0 on a fixed-latency
    scheme with one bit-sliced pass of the faulty replica over every input
    value: each output is then a pure function of its input, so the set of
    input values whose output is wrong decides the whole scenario.  ttr
    votes three passes of its one replica, which agree, and a fault on one
    row of its result buffer is outvoted by the two clean rows, so its
    output is that replica's words, as for original."""
    n_lanes = programs[0].n_lanes
    site = fault.spec.site
    reg = site if site.kind == "register" else None
    if reg is not None:
        # The stuck bit as the fault's own table reads it, in every lane.
        stuck = ((1 << n_lanes) - 1
                 if fault.reg_read(reg.replica, reg.stage, 0) >> reg.bit & 1
                 else 0)

    def last_words(replica=None):
        """One replica's last-boundary lane words; None is fault-free."""
        words = design.netlist.input_lanes
        for s, p in enumerate(programs):
            ov = replica is not None and fault.gate_overrides(s, replica)
            words = p.lanes(words, ov or frozenset())
            if reg is not None and (s, replica) == (reg.stage, reg.replica):
                # A stuck register bit, read by what follows.
                words = words[:reg.bit] + (stuck,) + words[reg.bit + 1:]
        return words

    clean = last_words()
    faulty = site.replica
    rows = [last_words(r) if r == faulty else clean
            for r in range(SCHEMES[scheme].copies)]
    out = rows[0] if len(rows) == 1 else [majority3(*w) for w in zip(*rows)]
    bad = 0                  # bit x set: the output for input x is wrong
    for k in design.output_slots:
        bad |= out[k] ^ clean[k]
    if bad:
        for i, x in enumerate(stream):
            if bad >> (x & (n_lanes - 1)) & 1:
                return Classification(SDC, 0, golden.emitted_at[i])
    return Classification(MASKED)


# ---------------------------------------------------------------------------
# Campaign configuration and aggregation
# ---------------------------------------------------------------------------

FAULT_CLASSES = ("transient", "permanent")
DEFAULT_DURATIONS = (1, 2, 5, 10)
DEFAULT_SEED = 0x5B0C
# The fields a config file holds besides its stream, which it holds as
# "stream_hex"; workers never changes a result, so no file records it.
_JSON_FIELDS = ("scheme", "fault_class", "durations", "models", "site_kinds",
                "start_cycles", "sample", "seed")


def default_stream(seed: int = DEFAULT_SEED) -> bytes:
    """All 256 byte values in order plus 256 seeded-random bytes."""
    rng = random.Random(seed)
    return bytes(range(256)) + bytes(rng.randrange(256) for _ in range(256))


@dataclass(frozen=True)
class CampaignConfig:
    scheme: str
    fault_class: str = "transient"        # one of FAULT_CLASSES
    durations: tuple = DEFAULT_DURATIONS  # transient windows, in cycles
    models: tuple = None                  # default: flip / both stuck-ats
    site_kinds: tuple = ("gate", "register")
    start_cycles: tuple = None            # default 0 .. n_stages + 2
    stream: bytes = None                  # default: default_stream(seed)
    sample: Optional[int] = None          # None = exhaustive
    seed: int = DEFAULT_SEED
    workers: int = 1

    def __post_init__(self):
        # Checked here because a config file sets these fields directly.
        scheme_facts(self.scheme)
        if self.fault_class not in FAULT_CLASSES:
            raise ValueError(f"fault_class must be one of {FAULT_CLASSES}, "
                             f"got {self.fault_class!r}")
        if self.sample is not None and type(self.sample) is not int:
            raise ValueError(f"sample must be an integer or null, "
                             f"got {self.sample!r}")
        for name in ("durations", "models", "site_kinds", "start_cycles"):
            # A string would pass as a sequence of one-letter values, and
            # an iterator would be used up by the checks below; a list is
            # kept as a tuple, as a config file's list is read.
            value = getattr(self, name)
            if isinstance(value, (tuple, list)):
                object.__setattr__(self, name, tuple(value))
            elif value is not None or name in ("durations", "site_kinds"):
                raise ValueError(f"{name} must be a list, got {value!r}")
        for name, values in (("durations", self.durations),
                             ("start_cycles", self.start_cycles or ())):
            if any(type(v) is not int for v in values):
                raise ValueError(f"{name} must be integers, got "
                                 f"{list(values)!r}")
        for name, what, values, known in (
                ("site_kinds", "site kind", self.site_kinds, SITE_KINDS),
                ("models", "fault model", self.models or (), MODELS)):
            unknown = [k for k in values if k not in known]
            if unknown:
                raise ValueError(f"unknown {what} {unknown[0]!r} in {name}; "
                                 f"expected one of {', '.join(known)}")
        if self.stream is not None:
            if not (isinstance(self.stream, (bytes, bytearray))
                    and self.stream):
                raise ValueError(f"stream must be nonempty bytes, got "
                                 f"{self.stream!r}")
            # Kept as bytes: a caller's bytearray could change after this
            # check, and would make the config unhashable.
            object.__setattr__(self, "stream", bytes(self.stream))
        for name in ("seed", "workers"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got "
                                 f"{getattr(self, name)!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, "
                             f"got {self.workers}")

    def resolved_models(self) -> tuple:
        if self.models is not None:
            return self.models
        return (FLIP,) if self.fault_class == "transient" else (STUCK0, STUCK1)

    def resolved_starts(self, design: PipelineDesign) -> tuple:
        if self.start_cycles is not None:
            return self.start_cycles
        if self.fault_class == "permanent":
            return (0,)
        return tuple(range(design.n_stages + 3))

    def resolved_stream(self) -> bytes:
        return self.stream if self.stream is not None else default_stream(self.seed)

    def to_json_dict(self) -> dict:
        values = {k: getattr(self, k) for k in _JSON_FIELDS}
        doc = {k: list(v) if isinstance(v, tuple) else v
               for k, v in values.items()}
        if self.stream is not None:
            doc["stream_hex"] = self.stream.hex()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CampaignConfig":
        """A config from its file document; a field the file leaves out
        takes its default, and a key it does not know is a ValueError."""
        fields = {k: v for k, v in doc.items() if k != "stream_hex"}
        unknown = [k for k in fields if k not in _JSON_FIELDS]
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}; expected "
                             f"{', '.join(_JSON_FIELDS)} or stream_hex")
        if "stream_hex" in doc:
            text = doc["stream_hex"]
            try:
                fields["stream"] = bytes.fromhex(text)
            except (TypeError, ValueError):
                fields["stream"] = None
            if not fields["stream"]:
                raise ValueError(f"stream_hex must be a nonempty hex "
                                 f"string, got {text!r}")
        return cls(**fields)


@dataclass
class CampaignResult:
    scheme: str
    fault_class: str
    total: int
    counts: dict
    coverage: float
    per_site: dict
    seed: int
    rows: list = field(repr=False)        # (site, model, duration, start,
                                          #  classification, stalls)
    config: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # The embedded config makes any campaign replayable from its
        # result file alone.
        return {
            "scheme": self.scheme,
            "fault_class": self.fault_class,
            "total": self.total,
            "counts": {k: self.counts.get(k, 0) for k in CLASS_KINDS},
            "coverage": self.coverage,
            "per_site": self.per_site,
            "seed": self.seed,
            "config": self.config,
            "meta": self.meta,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["site", "model", "duration", "start",
                        "classification", "stalls"])
            w.writerows(self.rows)

    def guarantee_holds(self) -> bool:
        """Zero silent corruptions and zero uncorrected detections."""
        return (self.counts.get(SDC, 0) == 0
                and self.counts.get(DETECTED_UNCORRECTED, 0) == 0)


def enumerate_scenarios(design: PipelineDesign,
                        config: CampaignConfig) -> list[FaultSpec]:
    """The site x model x duration x start grid, site-major, or a seeded
    sample of it.  A sample draws grid indices, so only the drawn specs are
    built; it picks the same specs in the same order as sampling the built
    grid would, since random.sample depends only on the population size."""
    sites = [s for s in enumerate_sites(design, config.scheme)
             if s.kind in config.site_kinds]
    durations = (config.durations if config.fault_class == "transient"
                 else (PERMANENT,))
    cells = [(model, start, duration)
             for model in config.resolved_models() for duration in durations
             if not (duration is PERMANENT and model == FLIP)
             for start in config.resolved_starts(design)]
    n = len(sites) * len(cells)
    if config.sample is not None:
        if config.sample < 1:
            raise EmptyCampaignError(
                f"sample must be at least 1, got {config.sample}")
        if config.sample < n:
            # Build every cell once, so a bad start or duration is
            # rejected whether or not the sample draws it.
            for cell in cells:
                FaultSpec(sites[0], *cell)
            picks = random.Random(config.seed).sample(range(n), config.sample)
            return [FaultSpec(sites[i // len(cells)], *cells[i % len(cells)])
                    for i in picks]
    if not n:
        raise EmptyCampaignError("no fault scenarios selected")
    return [FaultSpec(site, *cell) for site, cell in product(sites, cells)]


def _run_chunk(scheme, design, stream, specs, golden) -> list:
    # A worker process receives the design without its programs (compiled
    # stage functions do not pickle) and builds its own on first use.
    return [run_scenario(scheme, design, stream, spec, golden)[0]
            for spec in specs]


def run_campaign(design: PipelineDesign, config: CampaignConfig,
                 meta: dict = None) -> CampaignResult:
    """Execute every scenario of the configured grid and aggregate.

    Scenario order, and therefore the result file contents, depend only
    on the design and the configuration (plus the seed for sampled runs).
    Worker parallelism changes nothing but the wall time; it starts at
    most one process per scenario and per CPU.
    """
    specs = enumerate_scenarios(design, config)
    stream = config.resolved_stream()
    golden = golden_run(config.scheme, design, stream)
    _check_start(max(config.resolved_starts(design)), golden)

    classifications: list[Classification]
    nw = min(config.workers, len(specs), os.cpu_count() or 1)
    if nw > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunks = [specs[i::nw] for i in range(nw)]
        with ProcessPoolExecutor(max_workers=nw) as pool:
            futures = [pool.submit(_run_chunk, config.scheme, design, stream,
                                   chunk, golden) for chunk in chunks]
            results = [f.result() for f in futures]
        classifications = [None] * len(specs)
        for i, res in enumerate(results):
            classifications[i::nw] = res
    else:
        classifications = _run_chunk(config.scheme, design, stream, specs,
                                     golden)

    counts: dict = {k: 0 for k in CLASS_KINDS}
    per_site: dict = {}
    rows = []
    site = None
    for spec, cls in zip(specs, classifications):
        counts[cls.kind] += 1
        if spec.site is not site:
            # A grid is site-major: its rows share one string per site.
            site = spec.site
            site_key = str(site)
            bucket = per_site.setdefault(site_key,
                                         {k: 0 for k in CLASS_KINDS})
        bucket[cls.kind] += 1
        rows.append((site_key, spec.model,
                     "perm" if spec.duration is PERMANENT else spec.duration,
                     spec.start_cycle, cls.kind, cls.stall_cycles))
    total = len(specs)
    coverage = (counts[MASKED] + counts[DETECTED_CORRECTED]) / total
    return CampaignResult(
        scheme=config.scheme, fault_class=config.fault_class, total=total,
        counts=counts, coverage=coverage, per_site=per_site,
        seed=config.seed, rows=rows, config=config.to_json_dict(),
        meta=dict(meta or {}))
