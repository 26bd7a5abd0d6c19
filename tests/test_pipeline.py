"""Pipeline cuts and streaming: function preservation, balance, latency."""

import pytest
from hypothesis import given, settings, strategies as st

from sboxsim.campaign import (CampaignConfig, enumerate_scenarios,
                              run_campaign)
from sboxsim.faults import FaultSet, FaultSpec, GateSite
from sboxsim.gf import DEFAULT_PARAMS, sbox_reference
from sboxsim.netlist import (DEFAULT_COSTS, Gate, Netlist,
                             critical_path_delay, logic_depth)
from sboxsim.pipeline import (PipelineDesign, StageProgram,
                              TooManyStagesError, build_stage_programs,
                              cut_pipeline, streaming_eval)
from sboxsim.synth import synth_sbox


@pytest.fixture(scope="module")
def sbox_netlist():
    return synth_sbox(DEFAULT_PARAMS)


@pytest.fixture(scope="module")
def design5(sbox_netlist):
    return cut_pipeline(sbox_netlist, 5)


def stage_of_signal(design: PipelineDesign, sig: int) -> int:
    """The stage that produces sig; inputs count as stage 0."""
    n_in = len(design.netlist.inputs)
    return 0 if sig < n_in else design.stage_of_gate[sig - n_in]


def chain_netlist(k: int) -> Netlist:
    gates = tuple(Gate(1 + i, "NAND2", (i, 0)) for i in range(k))
    return Netlist(inputs=(0,), outputs=(k,), gates=gates)


def test_single_stage_is_whole_circuit(sbox_netlist):
    d = cut_pipeline(sbox_netlist, 1)
    assert d.n_stages == 1
    # No internal boundaries; the only cut is the output register.
    assert len(d.cuts) == 1
    assert abs(d.max_stage_delay
               - critical_path_delay(sbox_netlist)) < 1e-9


def test_chain_even_split():
    d = cut_pipeline(chain_netlist(10), 5)
    assert abs(d.max_stage_delay - 2.0) < 1e-9


def test_too_many_stages_rejected():
    with pytest.raises(TooManyStagesError):
        cut_pipeline(chain_netlist(4), 5)


def test_stage_assignment_monotone_along_paths(design5):
    nl = design5.netlist
    n_in = len(nl.inputs)
    for g in nl.gates:
        s = design5.stage_of_gate[g.id - n_in]
        for f in g.fanin:
            assert stage_of_signal(design5, f) <= s


def test_cuts_cover_every_crossing_signal(design5):
    nl = design5.netlist
    n_in = len(nl.inputs)
    for g in nl.gates:
        s = design5.stage_of_gate[g.id - n_in]
        for f in g.fanin:
            ps = stage_of_signal(design5, f)
            for boundary in range(ps, s):
                assert f in design5.cuts[boundary], (
                    f"signal {f} crosses boundary {boundary} unregistered")
    for o in nl.outputs:
        ps = stage_of_signal(design5, o)
        for boundary in range(ps, design5.n_stages):
            assert o in design5.cuts[boundary]


def test_cut_slot_removal_breaks_coverage(design5):
    # Completeness of the register cuts: every latched slot is justified,
    # i.e. removing it orphans some crossing (previous test is the
    # positive direction; here each slot must actually cross).
    nl = design5.netlist
    n_in = len(nl.inputs)
    consumers = {}
    for g in nl.gates:
        s = design5.stage_of_gate[g.id - n_in]
        for f in g.fanin:
            consumers.setdefault(f, []).append(s)
    for o in nl.outputs:
        consumers.setdefault(o, []).append(design5.n_stages)
    for boundary, cut in enumerate(design5.cuts):
        for sig in cut:
            prod = stage_of_signal(design5, sig)
            assert prod <= boundary
            assert max(consumers[sig]) > boundary, (
                f"slot {sig} in cut {boundary} never consumed later")


def test_stage_delay_bounds(design5, sbox_netlist):
    cp = critical_path_delay(sbox_netlist)
    assert design5.max_stage_delay <= cp / 3
    assert design5.max_stage_delay >= cp / 5 - 1e-9


def test_stage_delay_monotone_in_stage_count(sbox_netlist):
    prev = None
    for n in range(1, 9):
        d = cut_pipeline(sbox_netlist, n)
        if prev is not None:
            assert d.max_stage_delay <= prev + 1e-9
        prev = d.max_stage_delay


def test_streaming_single_byte_latency(design5):
    # Output for the input of cycle t appears at cycle t + n_stages; the
    # returned list hides latency but the machine-level tests confirm the
    # cycle count.  Here: one input, one output.
    assert streaming_eval(design5, [0x00]) == [0x63]


def test_streaming_all_bytes(design5):
    outs = streaming_eval(design5, range(256))
    assert outs == [sbox_reference(x) for x in range(256)]


def test_streaming_empty(design5):
    assert streaming_eval(design5, []) == []


def gather_output_bits(design, packed_last):
    """The output value bit by bit: output i is cut slot output_slots[i]."""
    return sum(((packed_last >> slot) & 1) << i
               for i, slot in enumerate(design.output_slots))


def test_output_byte_equals_bit_gather(design5):
    # The S-box's last cut is its outputs in declared order, so the packed
    # word is returned as it is; a design whose outputs repeat a signal
    # keeps a shorter last cut and gathers its bits.
    assert design5.output_slots == tuple(range(8))
    for word in range(256):
        assert design5.output_byte(word) == gather_output_bits(design5, word)
    gates = (Gate(2, "XOR2", (0, 1)), Gate(3, "AND2", (0, 1)))
    repeat = Netlist(inputs=(0, 1), outputs=(3, 2, 3, 0), gates=gates)
    d = cut_pipeline(repeat, 1)
    assert d.output_slots == (0, 1, 0, 2)
    for word in range(8):
        assert d.output_byte(word) == gather_output_bits(d, word)
    stream = [0, 1, 2, 3]
    want = [sum(b << i for i, b in enumerate(repeat.evaluate(
        [x & 1, x >> 1]))) for x in stream]
    assert streaming_eval(d, stream) == want


def test_streaming_matches_combinational_for_any_stage_count(sbox_netlist):
    stream = [7, 0, 255, 83, 129, 42]
    want = [sbox_reference(x) for x in stream]
    for n in (1, 2, 3, 4, 5, 6):
        d = cut_pipeline(sbox_netlist, n)
        assert streaming_eval(d, stream) == want, f"n={n}"


# Output of each gate kind, indexed by its fanin bits in fanin order; MUX2
# fanin is (select, d0, d1).  Written out here rather than taken from the
# netlist module, so the check below is independent of it.
TRUTH_TABLES = {
    "XOR2": ((0, 1), (1, 0)),
    "XNOR2": ((1, 0), (0, 1)),
    "AND2": ((0, 0), (0, 1)),
    "NAND2": ((1, 1), (1, 0)),
    "OR2": ((0, 1), (1, 1)),
    "NOR2": ((1, 0), (0, 0)),
    "NOT": (1, 0),
    "BUF": (0, 1),
    "MUX2": (((0, 0), (1, 1)), ((0, 1), (0, 1))),
}


# What each fault model forces a gate output to.
FORCED_OUTPUT = {"sa0": 0, "sa1": 1, "flip": "flip"}


def reference_stage(design, gates, s, word, forced):
    """Stage s of design on boundary word `word`, with the outputs of the
    gates in `forced` (gate id -> 0, 1 or "flip") overridden."""
    srcs = design.cuts[s - 1] if s else design.netlist.inputs
    val = {sig: (word >> k) & 1 for k, sig in enumerate(srcs)}
    for g in gates:
        v = TRUTH_TABLES[g.kind]
        for f in g.fanin:
            v = v[val[f]]
        if g.id in forced:
            v = 1 - v if forced[g.id] == "flip" else forced[g.id]
        val[g.id] = v
    out = 0
    for k, sig in enumerate(design.cuts[s]):
        out |= val[sig] << k
    return out


def to_lanes(packed, width):
    """One packed word per input value, bit-sliced: one word per slot whose
    bit x is that slot's bit in packed[x]."""
    return tuple(sum((w >> k & 1) << x for x, w in enumerate(packed))
                 for k in range(width))


def test_faulted_stage_variants_match_reference(design5):
    programs = build_stage_programs(design5)
    # The words each stage sees when all 256 inputs walk the clean pipe.
    words = [[] for _ in programs]
    for x in range(256):
        word = x
        for s, p in enumerate(programs):
            words[s].append(word)
            word = p.fast(word)
        assert design5.output_byte(word) == sbox_reference(x)
    widths = [len(design5.netlist.inputs)] + [len(c) for c in design5.cuts]
    lanes_in = [to_lanes(words[s], widths[s]) for s in range(len(programs))]
    assert lanes_in[0] == design5.netlist.input_lanes

    def check(s, specs):
        # The scalar masked body against the reference, then lane mode
        # against scalar, bit for bit on all 256 inputs.
        p = programs[s]
        overrides = frozenset()
        if specs:
            fault = FaultSet.bind(specs, design5, "original")
            fault.active(0)
            overrides = fault.gate_overrides(s, 0)
        forced = {spec.site.gate_id: FORCED_OUTPUT[spec.model]
                  for spec in specs}
        got = []
        for w in words[s]:
            got.append(p.interp(w, overrides) if specs else p.fast(w))
            assert got[-1] == \
                reference_stage(design5, p.gates, s, w, forced), \
                (s, [str(spec) for spec in specs], w)
        assert p.lanes(lanes_in[s], overrides) == \
            to_lanes(got, widths[s + 1]), (s, [str(spec) for spec in specs])

    for s, p in enumerate(programs):
        check(s, [])
        for g in p.gates:
            for model in ("sa0", "sa1", "flip"):
                check(s, [FaultSpec(GateSite(g.id), model, 0, 1)])
        first, mid, last = p.gates[0], p.gates[len(p.gates) // 2], \
            p.gates[-1]
        check(s, [FaultSpec(GateSite(first.id), "sa1", 0, 1),
                  FaultSpec(GateSite(last.id), "flip", 0, 1)])
        # On one gate the later fault wins: the flip, not the stuck-at.
        check(s, [FaultSpec(GateSite(mid.id), "sa0", 0, 1),
                  FaultSpec(GateSite(mid.id), "flip", 0, 1)])
        check(s, [FaultSpec(GateSite(g.id), model, 0, 1)
                  for g, model in ((first, "sa0"), (mid, "flip"),
                                   (last, "sa1"))])


def test_faulted_stages_compile_nothing_per_fault(sbox_netlist, monkeypatch):
    # Each stage compiles its fault-free body and, on its first faulted
    # call, one masked body that every gate fault shares.  A design of its
    # own, whose programs no earlier campaign has built.
    design5 = cut_pipeline(sbox_netlist, 5)
    calls = []
    compile_stage = StageProgram._compile

    def counted(self, *args, **kwargs):
        calls.append(args)
        return compile_stage(self, *args, **kwargs)

    monkeypatch.setattr(StageProgram, "_compile", counted)
    cfg = CampaignConfig(scheme="hfs", site_kinds=("gate",), durations=(1,),
                         sample=150, seed=7)
    assert len({spec.site for spec in enumerate_scenarios(design5, cfg)}) \
        >= 100
    run_campaign(design5, cfg)
    assert 0 < len(calls) <= 2 * design5.n_stages


def test_design_json_roundtrip(design5):
    again = PipelineDesign.from_json(design5.to_json())
    assert again == PipelineDesign(
        netlist=design5.netlist, n_stages=design5.n_stages,
        stage_of_gate=design5.stage_of_gate, cuts=design5.cuts,
        stage_delays=design5.stage_delays)
    assert streaming_eval(again, [0x53]) == [0xED]


@settings(deadline=None)
@given(data=st.data())
def test_design_json_round_trip_property(sbox_netlist, data):
    n = data.draw(st.integers(1, logic_depth(sbox_netlist)), label="stages")
    design = cut_pipeline(sbox_netlist, n)
    assert PipelineDesign.from_json(design.to_json()) == design


def test_cut_is_deterministic(sbox_netlist):
    a = cut_pipeline(sbox_netlist, 5)
    b = cut_pipeline(sbox_netlist, 5)
    assert a.stage_of_gate == b.stage_of_gate
    assert a.cuts == b.cuts
