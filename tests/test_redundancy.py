"""Machine-level behavior: stall-and-recover traces, majority voting, time
redundancy."""

import pytest

from sboxsim.campaign import golden_run, run_scenario
from sboxsim.faults import (FaultSpec, GateSite, PERMANENT, RegisterSite,
                            ComparatorSite)
from sboxsim.gf import DEFAULT_PARAMS, sbox_reference
from sboxsim.pipeline import cut_pipeline
from sboxsim.redundancy import (FcDmrMachine, TmrMachine, TtrMachine, feed,
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


def test_ttr_three_cycles_per_result(design):
    m = TtrMachine(design)
    stream = list(range(12))
    emit_cycles = []
    while m.emitted < len(stream):
        inp = stream[m.consumed] if m.consumed < len(stream) else None
        rec = m.step(inp)
        if rec.output is not None:
            emit_cycles.append(rec.cycle)
    diffs = {b - a for a, b in zip(emit_cycles, emit_cycles[1:])}
    assert diffs == {3}
    assert emit_cycles[0] == design.n_stages + 2


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
