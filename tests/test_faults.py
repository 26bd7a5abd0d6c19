"""Fault sites, specs, enumeration, and overlay semantics."""

import random
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from sboxsim.faults import (FLIP, MODELS, SCHEMES, SITE_KINDS,
                            ActiveFault, ComparatorSite, FaultSet, FaultSpec,
                            GateSite, InvalidFaultError, InvalidSiteError,
                            PERMANENT, RegisterSite, VoterLatchSite,
                            enumerate_sites, parse_site)
from sboxsim.gf import DEFAULT_PARAMS
from sboxsim.netlist import Gate, Netlist
from sboxsim.pipeline import cut_pipeline
from sboxsim.synth import synth_sbox


@pytest.fixture(scope="module")
def design():
    return cut_pipeline(synth_sbox(DEFAULT_PARAMS), 5)


def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(GateSite(8, 0), "flip", 0, PERMANENT)  # flip is an event
    with pytest.raises(ValueError):
        FaultSpec(GateSite(8, 0), "flip", -1, 1)
    with pytest.raises(ValueError):
        FaultSpec(GateSite(8, 0), "flip", 0, 0)
    with pytest.raises(ValueError):
        FaultSpec(GateSite(8, 0), "stuck", 0, 1)
    FaultSpec(GateSite(8, 0), "sa0", 0, PERMANENT)  # fine


# A window bound is valid only as a plain int: floats and bools are drawn
# too, and must be rejected even when they compare like a valid int.
_WINDOW = st.integers(-3, 2**40) | st.floats() | st.booleans()


@given(model=st.sampled_from(MODELS) | st.text(max_size=4),
       start=_WINDOW, duration=st.none() | _WINDOW)
@example(model=FLIP, start=1.5, duration=2)
@example(model=FLIP, start=True, duration=2.5)
@example(model=FLIP, start=0, duration=2.0)
def test_spec_accepts_exactly_the_valid_triples(model, start, duration):
    valid = (model in MODELS and type(start) is int and start >= 0
             and (type(duration) is int and duration >= 1
                  if duration is not PERMANENT else model != FLIP))
    try:
        FaultSpec(GateSite(8, 0), model, start, duration)
    except InvalidFaultError:
        assert not valid
    else:
        assert valid


def test_enumeration_counts(design):
    g = len(design.netlist.gates)
    r = sum(len(c) for c in design.cuts)
    n = design.n_stages
    plain = enumerate_sites(design, "original")
    assert len(plain) == g + r
    hfs = enumerate_sites(design, "hfs")
    assert len(hfs) == 2 * (g + r) + n + r
    tmr = enumerate_sites(design, "tmr")
    assert len(tmr) == 3 * (g + r)
    ttr = enumerate_sites(design, "ttr")
    assert len(ttr) == g + r + 3 * len(design.cuts[-1])


def test_enumeration_deterministic_and_duplicate_free(design):
    a = enumerate_sites(design, "hfs")
    b = enumerate_sites(design, "hfs")
    assert a == b
    assert len(set(a)) == len(a)


def test_enumeration_tags_replicas(design):
    tmr = enumerate_sites(design, "tmr")
    replicas = {s.replica for s in tmr if isinstance(s, GateSite)}
    assert replicas == {0, 1, 2}


def test_active_window():
    spec = FaultSpec(GateSite(8, 0), "flip", 5, 3)
    # window semantics checked via a bound fault below; here the raw spec
    assert spec.start_cycle == 5 and spec.duration == 3


def test_bound_fault_window(design):
    f = ActiveFault(FaultSpec(GateSite(design.netlist.gates[0].id, 0),
                              "flip", 5, 3), design, "hfs")
    assert not f.active(4)
    assert f.active(5) and f.active(7)
    assert not f.active(8)
    assert f.expired(8) and not f.expired(7)
    perm = ActiveFault(FaultSpec(GateSite(design.netlist.gates[0].id, 0),
                                 "sa1", 2, PERMANENT), design, "hfs")
    assert perm.active(10 ** 9) and not perm.expired(10 ** 9)


def test_register_overlay_models(design):
    base = FaultSpec(RegisterSite(1, 3, 0), "sa0", 0, 1)
    f = ActiveFault(base, design, "hfs")
    assert f.reg_read(0, 1, 0b1111) == 0b0111
    assert f.reg_read(1, 1, 0b1111) == 0b1111   # other replica untouched
    assert f.reg_read(0, 2, 0b1111) == 0b1111   # other boundary untouched
    f1 = ActiveFault(FaultSpec(RegisterSite(1, 3, 0), "sa1", 0, 1),
                     design, "hfs")
    assert f1.reg_read(0, 1, 0b0000) == 0b1000
    ff = ActiveFault(FaultSpec(RegisterSite(1, 3, 0), "flip", 0, 1),
                     design, "hfs")
    assert ff.reg_read(0, 1, 0b1000) == 0b0000
    assert ff.reg_read(0, 1, 0b0000) == 0b1000


def test_transform_regs_touches_only_its_boundary(design):
    f = ActiveFault(FaultSpec(RegisterSite(1, 0, 0), "flip", 0, 1),
                    design, "hfs")
    regs = [0b1010] * design.n_stages
    got = f.transform_regs(0, regs)
    assert got[1] == 0b1011
    assert all(got[s] == 0b1010 for s in range(design.n_stages) if s != 1)
    assert f.transform_regs(1, regs) == regs


def test_comparator_overlay(design):
    f = ActiveFault(FaultSpec(ComparatorSite(2), "sa1", 0, 1), design, "hfs")
    assert f.du_apply(2, False) is True
    assert f.du_apply(1, False) is False
    f0 = ActiveFault(FaultSpec(ComparatorSite(2), "sa0", 0, 1), design, "hfs")
    assert f0.du_apply(2, True) is False


def test_voter_latch_overlay(design):
    f = ActiveFault(FaultSpec(VoterLatchSite(0, 2), "flip", 0, 1),
                    design, "hfs")
    assert f.latch_read(0, 0b000) == 0b100
    assert f.latch_read(1, 0b000) == 0b000


def test_fault_set_composes_windows(design):
    fs = FaultSet.bind([FaultSpec(RegisterSite(1, 0, 0), "flip", 2, 2),
                        FaultSpec(RegisterSite(1, 1, 0), "flip", 5, 2)],
                       design, "hfs")
    assert fs.active(2) and fs.active(6)
    assert not fs.active(4)       # between the two windows
    assert not fs.active(8)
    assert not fs.expired(6)
    assert fs.expired(7)
    # At cycle 2 only the first member applies; at 5 only the second.
    # Hooks answer for the cycle last passed to active().
    fs.active(2)
    assert fs.transform_regs(0, [0] * 5)[1] == 0b01
    fs.active(5)
    assert fs.transform_regs(0, [0] * 5)[1] == 0b10


def test_invalid_sites_rejected(design):
    cases = [
        (FaultSpec(GateSite(10 ** 6, 0), "flip", 0, 1), "hfs"),
        (FaultSpec(GateSite(3, 0), "flip", 0, 1), "hfs"),  # an input, not gate
        (FaultSpec(GateSite(9, 2), "flip", 0, 1), "hfs"),  # replica 2 of 2
        (FaultSpec(GateSite(9, 1), "flip", 0, 1), "original"),
        (FaultSpec(RegisterSite(9, 0, 0), "flip", 0, 1), "hfs"),
        (FaultSpec(RegisterSite(0, 99, 0), "flip", 0, 1), "hfs"),
        (FaultSpec(RegisterSite(6, 0, 0), "flip", 0, 1), "original"),
        (FaultSpec(ComparatorSite(0), "sa1", 0, 1), "tmr"),
        (FaultSpec(VoterLatchSite(0, 0), "flip", 0, 1), "ttr"),
        (FaultSpec(ComparatorSite(77), "sa1", 0, 1), "hfs"),
    ]
    for spec, scheme in cases:
        with pytest.raises(InvalidSiteError):
            ActiveFault(spec, design, scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bind_accepts_exactly_the_enumerated_sites(design, scheme):
    # A box of candidate sites one past every bound of every kind, and
    # fields of the wrong type, some equal to a valid int: binding accepts
    # exactly the enumerated sites and rejects every other one as a site
    # error.
    nl = design.netlist
    n, width = design.n_stages, max(len(c) for c in design.cuts)
    replicas = range(SCHEMES[scheme].copies + 1)
    box = [GateSite(g, r) for g in range(len(nl.inputs) - 1,
                                         nl.signal_count + 1)
           for r in replicas]
    box += [RegisterSite(s, b, r) for s in range(n + 4)
            for b in range(width + 1) for r in replicas]
    box += [ComparatorSite(s) for s in range(n + 1)]
    box += [VoterLatchSite(s, b) for s in range(n + 1)
            for b in range(width + 1)]
    sites = set(enumerate_sites(design, scheme))
    assert sites < set(box)
    for site in box:
        spec = FaultSpec(site, "flip", 0, 1)
        if site in sites:
            assert ActiveFault(spec, design, scheme).kinds == {site.kind}
        else:
            with pytest.raises(InvalidSiteError):
                ActiveFault(spec, design, scheme)
    for cls, fields in [(GateSite, ("60", 0)), (GateSite, (60.0, 0)),
                        (RegisterSite, (True, 1, 0)), (GateSite, (60, False)),
                        (ComparatorSite, (1.0,))]:
        with pytest.raises(InvalidSiteError):
            ActiveFault(FaultSpec(cls(*fields), "flip", 0, 1), design, scheme)


def test_ttr_buffer_sites_valid_only_for_ttr(design):
    spec = FaultSpec(RegisterSite(design.n_stages + 2, 7, 0), "flip", 0, 1)
    ActiveFault(spec, design, "ttr")
    with pytest.raises(InvalidSiteError):
        ActiveFault(spec, design, "original")


def test_ttr_buffer_rows_are_as_wide_as_the_output_register():
    # A row holds the output register's word, one bit per distinct output
    # signal, however often the netlist lists a signal as an output.
    gates = (Gate(2, "XOR2", (0, 1)), Gate(3, "AND2", (0, 2)))
    d = cut_pipeline(Netlist(inputs=(0, 1), outputs=(2, 2, 3), gates=gates),
                     2)
    assert d.cuts[-1] == (2, 3)
    rows = [str(s) for s in enumerate_sites(d, "ttr")
            if s.kind == "register" and s.stage >= d.n_stages]
    assert rows == [f"reg:{2 + row}:{bit}:r0" for row in range(3)
                    for bit in range(2)]
    with pytest.raises(InvalidSiteError):
        ActiveFault(FaultSpec(RegisterSite(2, 2, 0), "flip", 0, 1), d, "ttr")


def test_site_strings_are_stable(design):
    assert str(GateSite(12, 1)) == "gate:12:r1"
    assert str(RegisterSite(2, 5, 0)) == "reg:2:5:r0"
    assert str(ComparatorSite(4)) == "du:4"
    assert str(VoterLatchSite(1, 9)) == "voter:1:9"
    assert str(FaultSpec(GateSite(12, 1), "sa0", 3, PERMANENT)) \
        == "gate:12:r1:sa0:@3+perm"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_parse_site_inverts_str(design, scheme):
    sites = enumerate_sites(design, scheme)
    assert {s.kind for s in sites} <= set(SITE_KINDS)
    for site in sites:
        assert parse_site(str(site)) == site


def test_parse_site_replica_may_be_short():
    assert parse_site("gate:60") == GateSite(60, 0)
    assert parse_site("gate:60:1") == GateSite(60, 1)
    assert parse_site("reg:1:2:2") == RegisterSite(1, 2, 2)
    assert parse_site("reg:1:2") == RegisterSite(1, 2, 0)


@pytest.mark.parametrize("text", [
    "du:1:5:9", "gate:60:0:7", "gate:60:r0:7", "reg:1:2:r0:1", "voter:1:2:3",
    "voter:1:2:r0", "du:r1", "gate:r60", "gate:60:rr1", "gate:60:r",
    "gate:-1", "gate:x", "gate: 6", "gate:\u0663", "reg:1", "voter:1",
    "du", "gate:", "gibberish", "", "Gate:6", "register:1:2",
])
def test_parse_site_rejects_malformed(text):
    with pytest.raises(InvalidSiteError):
        parse_site(text)


def _read(model, word, mask):
    """One fault's read of word: the test's own per-model oracle."""
    if model == "sa0":
        return word & ~mask
    if model == "sa1":
        return word | mask
    return word ^ mask


@pytest.mark.parametrize("first,second", list(product(MODELS, repeat=2)))
@pytest.mark.parametrize("bits", [(3, 3), (3, 0)], ids=["same", "different"])
def test_fault_set_composes_like_its_members_one_by_one(design, first,
                                                        second, bits):
    # Two faults each on one register word, one voter-latch word and one
    # comparator, with overlapping windows (cycles 2-5 and 4-7): at every
    # cycle each hook equals the active members applied one at a time, in
    # list order.  A comparator has bit 0 only.
    members = []
    for model, bit, start in ((first, bits[0], 2), (second, bits[1], 4)):
        for site, mask in ((RegisterSite(1, bit, 1), 1 << bit),
                           (VoterLatchSite(1, bit), 1 << bit),
                           (ComparatorSite(2), 1)):
            members.append((FaultSpec(site, model, start, 4), mask))
    fs = FaultSet.bind([spec for spec, _ in members], design, "hfs")
    width = len(design.cuts[1])
    rng = random.Random(5)
    words = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(14)]
    regs = words[:design.n_stages]

    for cyc in range(10):
        live = [(spec.site.kind, spec.model, mask) for spec, mask in members
                if spec.start_cycle <= cyc < spec.start_cycle + spec.duration]
        assert fs.active(cyc) == bool(live)
        if not live:
            continue

        def want(kind, word):
            for k, model, mask in live:
                if k == kind:
                    word = _read(model, word, mask)
            return word

        for w in words:
            assert fs.reg_read(1, 1, w) == want("register", w)
            assert fs.reg_read(0, 1, w) == w
            assert fs.reg_read(1, 2, w) == w
            assert fs.latch_read(1, w) == want("voter_latch", w)
            assert fs.latch_read(0, w) == w
        assert fs.transform_regs(1, regs) == \
            tuple(want("register", w) if b == 1 else w
                  for b, w in enumerate(regs))
        assert fs.transform_regs(0, regs) == regs
        for err in (False, True):
            assert fs.du_apply(2, err) is bool(want("comparator", err))
            assert fs.du_apply(1, err) is err


def test_fault_set_later_gate_fault_replaces_earlier(design):
    n_in = len(design.netlist.inputs)
    by_stage = {}
    for g in design.netlist.gates:
        by_stage.setdefault(design.stage_of_gate[g.id - n_in], []).append(g.id)
    stage, (g, h, *_) = next((s, ids) for s, ids in by_stage.items()
                             if len(ids) > 1)
    specs = [FaultSpec(GateSite(g, 1), "sa0", 2, 4),
             FaultSpec(GateSite(h, 1), "flip", 3, 2),
             FaultSpec(GateSite(g, 1), "sa1", 4, 4)]
    fs = FaultSet.bind(specs, design, "hfs")
    for cyc in range(10):
        merged = {}
        for spec in specs:
            if spec.start_cycle <= cyc < spec.start_cycle + spec.duration:
                merged[spec.site.gate_id] = spec.model
        assert fs.active(cyc) == bool(merged)
        if merged:
            # Each override is a (gate id, triple) pair whose read of the
            # gate's value, 0 or 1, is the winning model's.
            ov = fs.gate_overrides(stage, 1)
            assert len(ov) == len(merged)
            assert {g: tuple((v & a | o) ^ x for v in (0, 1))
                    for g, (a, o, x) in ov} == \
                {g: tuple(_read(model, v, 1) for v in (0, 1))
                 for g, model in merged.items()}
            assert fs.gate_overrides(stage, 0) is None
            assert fs.gate_overrides(stage + 1, 1) is None
