"""Machine-level behavior: stall-and-recover traces, majority voting, time
redundancy."""

import dataclasses
import hashlib
import json
import random
from collections import Counter

import pytest

from sboxsim import campaign
from sboxsim.campaign import (DEFAULT_SEED, CampaignConfig, default_stream,
                              enumerate_scenarios, golden_run, run_scenario)
from sboxsim.faults import (SCHEMES, ActiveFault, ComparatorSite,
                            FaultSet, FaultSpec, GateSite, PERMANENT,
                            RegisterSite, VoterLatchSite)
from sboxsim.gf import DEFAULT_PARAMS, sbox_reference
from sboxsim.pipeline import build_stage_programs, cut_pipeline
from sboxsim.redundancy import (MACHINE_CLASSES, FcDmrMachine, feed,
                                majority3, make_machine)
from sboxsim.synth import synth_sbox


@pytest.fixture(scope="module")
def design():
    return cut_pipeline(synth_sbox(DEFAULT_PARAMS), 5)


# ---------------------------------------------------------------------------
# Majority vote
# ---------------------------------------------------------------------------


def test_majority3_bitwise():
    assert majority3(0b1100, 0b1010, 0b1001) == 0b1000
    for a in (0, 0xFF, 0x5A):
        assert majority3(a, a, a) == a
        assert majority3(a, a, 0x33) == a


# ---------------------------------------------------------------------------
# FC-DMR machine
# ---------------------------------------------------------------------------


def test_fcdmr_latency_five_cycles(design):
    m = FcDmrMachine(design)
    rec = m.step(0x00)
    assert rec.cycle == 0 and rec.accepted
    outs = {}
    for _ in range(6):
        rec = m.step(None)
        if rec.output is not None:
            outs[rec.cycle] = rec.output
    assert outs == {5: 0x63}


def test_fcdmr_fault_free_equals_streaming(design):
    m = FcDmrMachine(design)
    stream = list(range(64))
    outputs = []
    while m.emitted < len(stream):
        inp = stream[m.consumed] if m.consumed < len(stream) else None
        rec = m.step(inp)
        if rec.output is not None:
            outputs.append(rec.output)
    assert outputs == [sbox_reference(x) for x in stream]
    assert m.stall_cycles == 0


def test_fcdmr_transient_raises_only_affected_stage(design):
    stream = list(range(40))
    spec = FaultSpec(GateSite(design.netlist.gates[60].id, 0), "flip", 9, 1)
    n_in = len(design.netlist.inputs)
    fault_stage = design.stage_of_gate[design.netlist.gates[60].id - n_in]
    cls, trace = run_scenario("hfs", design, stream, spec, collect_trace=True)
    assert cls.kind == "detected_corrected"
    err_cycles = [r for r in trace if r.global_err]
    assert err_cycles, "fault never detected"
    for r in err_cycles:
        assert r.errs[fault_stage]
        assert sum(r.errs) == 1, "error leaked into another stage"
    # Detection happens at the capture cycle, one after the corruption.
    assert err_cycles[0].cycle == 10


def test_fcdmr_stall_count_equals_duration_for_register_faults(design):
    stream = list(range(48))
    for duration in (1, 2, 5, 10):
        spec = FaultSpec(RegisterSite(2, 1, 0), "flip", 8, duration)
        cls, _ = run_scenario("hfs", design, stream, spec)
        assert cls.kind == "detected_corrected"
        assert cls.stall_cycles == duration


def test_fcdmr_recovers_within_duration_plus_two(design):
    stream = list(range(48))
    for duration in (1, 2, 5, 10):
        spec = FaultSpec(GateSite(design.netlist.gates[10].id, 1), "flip",
                         6, duration)
        cls, trace = run_scenario("hfs", design, stream, spec,
                                  collect_trace=True)
        assert cls.kind in ("detected_corrected", "masked")
        last_err = max((r.cycle for r in trace if r.global_err), default=0)
        assert last_err <= 6 + duration + 2
        assert cls.stall_cycles <= duration + 2


def test_fcdmr_output_equals_golden_with_extra_stalls(design):
    stream = list(range(32))
    golden = golden_run("hfs", design, stream)
    spec = FaultSpec(GateSite(design.netlist.gates[100].id, 0), "sa0", 4, 3)
    cls, trace = run_scenario("hfs", design, stream, spec, collect_trace=True)
    got = [r.output for r in trace if r.output is not None]
    assert got == golden.outputs
    assert cls.kind in ("detected_corrected", "masked")


def test_fcdmr_no_input_accepted_while_stalled(design):
    stream = list(range(24))
    spec = FaultSpec(RegisterSite(1, 0, 1), "flip", 7, 2)
    _, trace = run_scenario("hfs", design, stream, spec, collect_trace=True)
    for r in trace:
        if r.global_err:
            assert not r.accepted


def test_fcdmr_du_stuck_high_stalls_then_recovers(design):
    stream = list(range(24))
    spec = FaultSpec(ComparatorSite(3), "sa1", 5, 4)
    cls, _ = run_scenario("hfs", design, stream, spec)
    assert cls.kind == "detected_corrected"
    assert cls.stall_cycles >= 4


def test_fcdmr_du_stuck_low_alone_is_masked(design):
    stream = list(range(24))
    spec = FaultSpec(ComparatorSite(2), "sa0", 3, 5)
    cls, _ = run_scenario("hfs", design, stream, spec)
    assert cls.kind == "masked"


def test_fcdmr_du_permanent_stuck_high_never_delivers(design):
    stream = list(range(16))
    spec = FaultSpec(ComparatorSite(0), "sa1", 2, PERMANENT)
    cls, _ = run_scenario("hfs", design, stream, spec)
    assert cls.kind == "detected_uncorrected"


# ---------------------------------------------------------------------------
# TMR machine
# ---------------------------------------------------------------------------


def test_tmr_fault_free_and_never_stalls(design):
    g = golden_run("tmr", design, list(range(64)))
    assert g.outputs == [sbox_reference(x) for x in range(64)]


def test_tmr_majority_defeats_single_replica_permanent(design):
    stream = list(range(256))
    golden = golden_run("tmr", design, stream)
    for replica in range(3):
        spec = FaultSpec(GateSite(design.netlist.gates[77].id, replica),
                         "sa1", 0, PERMANENT)
        cls, _ = run_scenario("tmr", design, stream, spec, golden)
        assert cls.kind == "masked", f"replica {replica}"


def test_tmr_register_transient_masked(design):
    stream = list(range(64))
    spec = FaultSpec(RegisterSite(3, 2, 2), "flip", 9, 10)
    cls, _ = run_scenario("tmr", design, stream, spec)
    assert cls.kind == "masked"


# ---------------------------------------------------------------------------
# TTR machine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["original", "tmr", "ttr"])
def test_cycles_per_result(design, scheme):
    # Each input runs buffer_rows or 1 passes, so a result comes every
    # that many cycles, the first after the last pass leaves the pipeline.
    passes = SCHEMES[scheme].buffer_rows or 1
    m = make_machine(scheme, design)
    emit_cycles = [rec.cycle for rec in feed(m, list(range(12)))
                   if rec.output is not None]
    diffs = {b - a for a, b in zip(emit_cycles, emit_cycles[1:])}
    assert diffs == {passes}
    assert emit_cycles[0] == design.n_stages + passes - 1


def test_ttr_single_pass_transient_corrected(design):
    stream = list(range(48))
    golden = golden_run("ttr", design, stream)
    for start in range(6, 12):
        spec = FaultSpec(GateSite(design.netlist.gates[33].id, 0), "flip",
                         start, 1)
        cls, _ = run_scenario("ttr", design, stream, spec, golden)
        assert cls.kind == "masked", f"start {start}"


def test_ttr_buffer_bit_transient_corrected(design):
    stream = list(range(24))
    spec = FaultSpec(RegisterSite(design.n_stages + 1, 4, 0), "flip", 8, 1)
    cls, _ = run_scenario("ttr", design, stream, spec)
    assert cls.kind == "masked"


def test_ttr_permanent_live_gate_causes_sdc(design):
    stream = list(range(256))
    golden = golden_run("ttr", design, stream)
    spec = FaultSpec(GateSite(design.netlist.gates[77].id, 0), "sa1", 0,
                     PERMANENT)
    cls, _ = run_scenario("ttr", design, stream, spec, golden)
    assert cls.kind == "sdc"


# ---------------------------------------------------------------------------
# Stream driver
# ---------------------------------------------------------------------------


def test_feed_offers_none_once_consumed_and_stops_when_drained(design):
    m = make_machine("original", design)
    recs = list(feed(m, [0x00, 0x53]))
    assert [r.input for r in recs] == [0x00, 0x53] + [None] * design.n_stages
    assert [r.output for r in recs if r.output is not None] == [0x63, 0xED]


def test_feed_reoffers_each_byte_until_accepted_and_stops_at_cap(design):
    m = make_machine("ttr", design)
    recs = list(feed(m, [7, 8, 9], cap=7))
    assert m.cycle == 7
    assert [r.input for r in recs] == [7, 8, 8, 8, 9, 9, 9]
    assert [r.accepted for r in recs] == [True, False, False, True,
                                          False, False, True]


# ---------------------------------------------------------------------------
# Cross-machine determinism
# ---------------------------------------------------------------------------


def test_identical_scenarios_give_identical_traces(design):
    stream = list(range(24))
    spec = FaultSpec(GateSite(design.netlist.gates[42].id, 0), "flip", 5, 2)
    a = run_scenario("hfs", design, stream, spec, collect_trace=True)
    b = run_scenario("hfs", design, stream, spec, collect_trace=True)
    assert a[0] == b[0]
    assert a[1] == b[1]


@pytest.mark.parametrize("scheme", ["hfs", "tmr"])
def test_fault_free_replicas_stay_equal(design, scheme):
    # A clean cycle evaluates equal replica inputs once: after every step
    # the replicas hold equal words.
    m = make_machine(scheme, design)
    for _ in feed(m, random.Random(3).randbytes(300)):
        regs = [m.regs_a, m.regs_b] if scheme == "hfs" else m.regs
        assert all(r == regs[0] for r in regs)


# Each scheme's traced runs of pinned_scenarios, as pinned_digest hashes
# them.  These machines are the oracle every fast path is tested against,
# so a change to them must leave every record of these runs as it was.
PINNED_DIGESTS = {
    "original":
        "f13e2e5caaaaf7795f64edcf0346218ba8e9e80d3beeeb3efebc607e43528b8c",
    "tmr":
        "b0d27acafdd68896844759c8261030371a1be5570b3fffff42d76e2e417f216d",
    "ttr":
        "1009cc44e0002ee3878feaa1a1b505bffbb7d66592303ab2cd8dea66e0dafc0f",
}


def pinned_scenarios(design, scheme):
    """A gate flip, a register stuck-at from mid-stream, and a gate
    stuck-at from cycle 0 in each replica; tmr adds gate and register
    faults that two replicas share, which the vote cannot outvote, and
    ttr a flip of each buffer row alone and of two rows at once."""
    n = design.n_stages
    copies = SCHEMES[scheme].copies
    gate, live = design.netlist.gates[60].id, design.netlist.gates[77].id
    cases = [FaultSpec(GateSite(gate, 0), "flip", 7, 3),
             FaultSpec(RegisterSite(2, 1, copies - 1), "sa1", 9, PERMANENT)]
    cases += [FaultSpec(GateSite(live, r), "sa0", 0, PERMANENT)
              for r in range(copies)]
    if scheme == "tmr":
        cases += [[FaultSpec(GateSite(live, r), "sa0", 0, PERMANENT)
                   for r in (0, 2)],
                  [FaultSpec(RegisterSite(2, 1, r), "sa1", 9, PERMANENT)
                   for r in (1, 2)]]
    if scheme == "ttr":
        rows = [FaultSpec(RegisterSite(n + row, 3, 0), "flip", 13, 3)
                for row in range(3)]
        cases += rows + [rows[::2]]
    return cases


def pinned_digest(design, scheme):
    """sha256 of every StepRecord and the Classification of each pinned
    scenario's traced run on a short stream."""
    stream = list(random.Random(25).randbytes(24))
    golden = golden_run(scheme, design, stream)
    runs = []
    for spec in pinned_scenarios(design, scheme):
        cls, trace = run_scenario(scheme, design, stream, spec, golden,
                                  collect_trace=True)
        runs.append([[rec.to_json_dict() for rec in trace],
                     dataclasses.asdict(cls)])
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode()
                          ).hexdigest()


@pytest.mark.parametrize("scheme", ["original", "tmr", "ttr"])
def test_fixed_latency_traces_are_pinned(design, scheme):
    assert pinned_digest(design, scheme) == PINNED_DIGESTS[scheme]


# ---------------------------------------------------------------------------
# Snapshot restore
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["original", "hfs", "tmr", "ttr"])
def test_restore_inverts_canonical_state(design, scheme):
    # For every cycle k of a golden run, a fresh machine restored to the
    # snapshot after k cycles reports that snapshot, then steps through
    # the rest of the run: the same states and the same later outputs.
    stream = [0x00, 0x53, 0xFF, 0x1C, 0xA7, 0x80, 0x3D]
    golden = golden_run(scheme, design, stream)
    for k in range(golden.cycles + 1):
        m = make_machine(scheme, design)
        m.restore(golden.states[k], k)
        assert m.canonical_state() == golden.states[k]
        before = m.emitted
        states, outputs, emitted_at = [], [], []
        while m.cycle < golden.cycles:
            rec = m.step(stream[m.consumed] if m.consumed < len(stream)
                         else None)
            states.append(m.canonical_state())
            if rec.output is not None:
                outputs.append(rec.output)
                emitted_at.append(rec.cycle)
        assert states == golden.states[k + 1:]
        assert outputs == golden.outputs[before:]
        assert emitted_at == golden.emitted_at[before:]
    assert golden.states == golden_run(scheme, design, stream).states


@pytest.mark.parametrize("scheme", ["original", "hfs", "tmr", "ttr"])
def test_snapshot_is_the_state_itself(design, scheme):
    # The state is immutable, so a snapshot shares its objects with the
    # machine and restoring one copies nothing: after every step,
    # restoring the machine to its own snapshot leaves each field the
    # very object it was, fault-free and under a gate or register fault.
    gate = design.netlist.gates[60].id
    stream = list(random.Random(4).randbytes(20))
    for spec in (None, FaultSpec(GateSite(gate, 0), "flip", 3, 4),
                 FaultSpec(RegisterSite(2, 1, 0), "flip", 3, 4)):
        m = make_machine(scheme, design,
                         spec and ActiveFault(spec, design, scheme))
        for _ in feed(m, stream):
            state = m.canonical_state()
            m.restore(state, m.cycle)
            assert all(a is b for a, b in zip(m.canonical_state(), state))


# ---------------------------------------------------------------------------
# Stage sharing across replicas, and hooks by site kind
# ---------------------------------------------------------------------------

HOOKS_OF_KIND = {"gate": {"gate_overrides"},
                 "register": {"transform_regs", "reg_read"},
                 "comparator": {"du_apply"},
                 "voter_latch": {"latch_read"}}


class EveryHook:
    """A fault that claims every site kind, so a machine consults all of
    its hooks whatever the fault's own kinds are."""

    kinds = frozenset(HOOKS_OF_KIND)

    def __init__(self, fault):
        self.fault = fault

    def __getattr__(self, name):
        return getattr(self.fault, name)


def reference_machine(scheme, design, fault):
    """The scheme's machine with every stage of every replica evaluated on
    its own by fast or interp, under every fault hook: the per-replica
    loop the sharing rule replaced.  With fault None it is fault-free and
    calls fast for every stage on every cycle."""
    class Reference(MACHINE_CLASSES[scheme]):
        def _advance(self, word, srcs, kinds):
            out = []
            for r, src in enumerate(srcs):
                regs = []
                for s, p in enumerate(self.programs):
                    w = src[s - 1] if s else word
                    ov = kinds and self.fault.gate_overrides(s, r)
                    regs.append(p.interp(w, ov) if ov else p.fast(w))
                out.append(tuple(regs))
            return tuple(out)

    return Reference(design, fault and EveryHook(fault))


def bind(specs, design, scheme):
    return (FaultSet.bind(specs, design, scheme) if len(specs) > 1
            else ActiveFault(specs[0], design, scheme))


def sharing_cases(design, scheme):
    gate = design.netlist.gates[60].id
    cases = [[FaultSpec(GateSite(gate, r), model, 7, 3)]
             for r in range(SCHEMES[scheme].copies)
             for model in ("flip", "sa1")]
    cases += [[FaultSpec(RegisterSite(2, 1, 1), "flip", 8, 2)],
              [FaultSpec(GateSite(design.netlist.gates[5].id, 0), "flip",
                         6, 4),
               FaultSpec(RegisterSite(3, 0, 1), "sa0", 9, 5)]]
    if scheme == "hfs":
        cases += [[FaultSpec(ComparatorSite(2), "sa1", 7, 3)],
                  [FaultSpec(ComparatorSite(1), "flip", 8, 2)],
                  # A latch is read only while the pipeline stalls.
                  [FaultSpec(ComparatorSite(2), "sa1", 7, 3),
                   FaultSpec(VoterLatchSite(1, 0), "flip", 8, 4)],
                  [FaultSpec(VoterLatchSite(3, 2), "sa1", 6, PERMANENT),
                   FaultSpec(RegisterSite(1, 0, 0), "flip", 9, 1)]]
    else:
        cases += [[FaultSpec(GateSite(gate, 2), "sa0", 7, PERMANENT)]]
    return cases


@pytest.mark.parametrize("scheme", ["hfs", "tmr"])
def test_stage_sharing_equals_per_replica_reference(design, scheme):
    # Every cycle's record and canonical state match a machine that
    # evaluates each replica's stages on its own and calls every hook.
    stream = list(random.Random(11).randbytes(24))

    def run(m):
        return [(rec, m.canonical_state()) for rec in feed(m, stream, 80)]

    clean = run(make_machine(scheme, design))
    for specs in sharing_cases(design, scheme):
        got = run(make_machine(scheme, design, bind(specs, design, scheme)))
        want = run(reference_machine(scheme, design,
                                     bind(specs, design, scheme)))
        assert got == want, [str(s) for s in specs]
        assert got != clean, [str(s) for s in specs]    # the fault was seen


def counted_programs(design, calls):
    """Stage programs whose fast and interp calls add to calls."""
    programs = build_stage_programs(design)
    for p in programs:
        for name in ("fast", "interp"):
            fn = getattr(p, name)
            setattr(p, name, lambda *a, fn=fn, name=name:
                    calls.update((name,)) or fn(*a))
    return programs


@pytest.mark.parametrize("replica", [0, 1])
def test_gate_faulted_hfs_cycle_evaluates_each_stage_once(design, replica):
    calls = Counter()
    programs = counted_programs(design, calls)
    spec = FaultSpec(GateSite(design.netlist.gates[60].id, replica), "flip",
                     4, 1)
    m = make_machine("hfs", design, ActiveFault(spec, design, "hfs"),
                     programs)
    for x in range(4):
        m.step(x)
    calls.clear()
    m.step(4)
    assert calls == {"fast": design.n_stages, "interp": 1}


@pytest.mark.parametrize("scheme", ["original", "hfs", "tmr", "ttr"])
def test_fault_hooks_run_only_for_the_fault_site_kind(design, scheme,
                                                      monkeypatch):
    called = Counter()
    for hook in set().union(*HOOKS_OF_KIND.values()):
        fn = getattr(ActiveFault, hook)
        monkeypatch.setattr(ActiveFault, hook,
                            lambda *a, fn=fn, hook=hook:
                            called.update((hook,)) or fn(*a))
    # Each case's fault is active and read; a voter latch is read only
    # while a comparator stalls the pipeline.
    stream = list(range(24))
    n = design.n_stages
    cases = [[GateSite(design.netlist.gates[60].id, 0)],
             [RegisterSite(2, 1, 0)]]
    if scheme == "ttr":
        cases.append([RegisterSite(n + 1, 3, 0)])
    if scheme == "hfs":
        cases += [[ComparatorSite(2)],
                  [ComparatorSite(2), VoterLatchSite(1, 0)]]
    for sites in cases:
        called.clear()
        fault = bind([FaultSpec(site, "sa1", 6, 12) for site in sites],
                     design, scheme)
        for _ in feed(make_machine(scheme, design, fault), stream):
            pass
        kinds = {site.kind for site in sites}
        assert {h for k in kinds for h in HOOKS_OF_KIND[k]} >= set(called)
        assert all(HOOKS_OF_KIND[k] & set(called) for k in kinds), \
            ([str(site) for site in sites], called)


@pytest.mark.parametrize("scheme,most", [
    pytest.param("original", 225_804 + 19_296, id="original"),
    pytest.param("ttr", 266_489 + 19_296, id="ttr"),
])
def test_single_replica_grids_evaluate_no_more_stages(design, scheme, most,
                                                      monkeypatch):
    # Stage evaluations over the full transient grid, golden run included,
    # stay at or below the per-replica loop's count: a lone replica has
    # nothing to share, and gains no evaluations either.  A design of its
    # own: one whose programs an earlier campaign built reuses them, and
    # would never call the counting builder.
    own = cut_pipeline(design.netlist, design.n_stages)
    calls = Counter()
    monkeypatch.setattr(campaign, "build_stage_programs",
                        lambda d: counted_programs(d, calls))
    campaign.run_campaign(own, campaign.CampaignConfig(scheme=scheme))
    assert 0 < sum(calls.values()) <= most


# ---------------------------------------------------------------------------
# Fault-free stage tables
# ---------------------------------------------------------------------------

# The input stream of perfbench's late_fault_stream workload at seed 0.
LATE_STREAM = random.Random(DEFAULT_SEED).randbytes(2048)
GOLDEN_STREAMS = {"default": default_stream(), "late": LATE_STREAM,
                  "one_byte": bytes([0x53]),
                  "every_byte_twice": bytes(range(256)) * 2}


@pytest.mark.parametrize("stream", GOLDEN_STREAMS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_golden_run_equals_stepped_run(design, scheme, stream, monkeypatch):
    # The golden run reads its stages from the clean tables; the reference
    # calls fast for every stage of every replica on every cycle.
    got = golden_run(scheme, design, GOLDEN_STREAMS[stream])
    monkeypatch.setattr(campaign, "make_machine",
                        lambda scheme, design, fault, programs:
                        reference_machine(scheme, design, fault))
    want = golden_run(scheme, design, GOLDEN_STREAMS[stream])
    assert got.cycles == want.cycles
    assert got.outputs == want.outputs
    assert got.emitted_at == want.emitted_at
    assert got.states == want.states


@pytest.mark.parametrize("scheme", SCHEMES)
def test_golden_run_evaluates_each_clean_word_once(design, scheme,
                                                   monkeypatch):
    # A design of its own, whose programs the golden run finds on it.
    own = cut_pipeline(design.netlist, design.n_stages)
    calls = Counter()
    programs = campaign.stage_programs(own)
    for s, p in enumerate(programs):
        monkeypatch.setattr(p, "fast", lambda w, s=s, fn=p.fast:
                            calls.update((s,)) or fn(w))
    golden_run(scheme, own, LATE_STREAM)
    for s, p in enumerate(programs):
        # A clean word of stage s comes from an input value or from one
        # of the s reset words before it.
        size = p.clean.cache_info().currsize
        assert calls[s] == size <= p.n_lanes + s, (s, calls[s])


@pytest.mark.parametrize("scheme,config", [
    ("hfs", CampaignConfig(scheme="hfs", durations=(1, 3, 20),
                           site_kinds=("gate", "register", "comparator",
                                       "voter_latch"),
                           start_cycles=(0, 40, 300), sample=60)),
    ("tmr", CampaignConfig(scheme="tmr", fault_class="permanent",
                           start_cycles=(0, 50, 300), sample=12)),
    # One replica: a faulted register word reaches the shared stage pass.
    ("original", CampaignConfig(scheme="original", durations=(1, 3),
                                site_kinds=("register",), sample=30)),
])
def test_faulted_scenarios_leave_the_clean_tables_alone(design, scheme,
                                                        config, monkeypatch):
    # Faulted machines call fast and neither read nor fill a table: the
    # tables' hit and miss counts stay as the golden run left them.
    # A design of its own, whose programs every call finds on it.
    own = cut_pipeline(design.netlist, design.n_stages)
    stream = default_stream()
    programs = campaign.stage_programs(own)
    golden = golden_run(scheme, own, stream)
    tables = [p.clean.cache_info() for p in programs]
    calls = Counter()
    for p in programs:
        monkeypatch.setattr(p, "fast", lambda w, fn=p.fast:
                            calls.update(("fast",)) or fn(w))
    for spec in enumerate_scenarios(own, config):
        run_scenario(scheme, own, stream, spec, golden)
    assert calls["fast"] > 0
    assert [p.clean.cache_info() for p in programs] == tables
