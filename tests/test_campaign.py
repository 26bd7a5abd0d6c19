"""Campaign machinery: classification rules, caching, determinism,
aggregation, file formats."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, strategies as st

from sboxsim import campaign
from sboxsim.campaign import (CampaignConfig, EmptyCampaignError,
                              default_stream, enumerate_scenarios,
                              golden_run, run_campaign, run_scenario)
from sboxsim.faults import (FLIP, FaultSpec, GateSite, PERMANENT,
                            RegisterSite, enumerate_sites)
from sboxsim.gf import DEFAULT_PARAMS, sbox_reference
from sboxsim.pipeline import build_stage_programs, cut_pipeline
from sboxsim.redundancy import make_machine
from sboxsim.synth import synth_sbox


@pytest.fixture(scope="module")
def design():
    return cut_pipeline(synth_sbox(DEFAULT_PARAMS), 5)


@pytest.fixture(scope="module")
def stream():
    return list(range(48))


def test_default_stream_layout():
    s = default_stream(1)
    assert len(s) == 512
    assert list(s[:256]) == list(range(256))
    assert default_stream(1) == default_stream(1)
    assert default_stream(1) != default_stream(2)


def test_golden_runs_match_reference(design, stream):
    for scheme in ("original", "hfs", "tmr", "ttr"):
        g = golden_run(scheme, design, stream)
        assert g.outputs == [sbox_reference(x) for x in stream]


def test_golden_emitted_at_matches_traced_run(design, stream):
    for scheme in ("original", "hfs", "tmr", "ttr"):
        m = make_machine(scheme, design)
        cycles = []
        while m.emitted < len(stream):
            rec = m.step(stream[m.consumed] if m.consumed < len(stream)
                         else None)
            if rec.output is not None:
                cycles.append(rec.cycle)
        assert golden_run(scheme, design, stream).emitted_at == cycles


@pytest.mark.parametrize("scheme", ["original", "tmr", "ttr"])
def test_permanent_lane_path_equals_cycle_loop(design, scheme, monkeypatch):
    # Permanent faults from cycle 0 on the fixed-latency schemes are
    # classified by one bit-sliced pass and build no machine; a requested
    # trace runs the cycle-accurate machines, which stay the oracle.  The
    # whole permanent grid, every site kind.
    stream = random.Random(7).sample(range(256), 64)
    programs = build_stage_programs(design)
    golden = golden_run(scheme, design, stream, programs)
    specs = enumerate_scenarios(
        design, CampaignConfig(scheme=scheme, fault_class="permanent"))
    with monkeypatch.context() as mp:
        mp.setattr(campaign, "make_machine", None)
        fast = [(str(spec), run_scenario(scheme, design, stream, spec,
                                         golden, programs)[0])
                for spec in specs]
    slow = [(str(spec), run_scenario(scheme, design, stream, spec, golden,
                                     programs, collect_trace=True)[0])
            for spec in specs]
    assert fast == slow


def test_other_scenarios_keep_the_cycle_loop(design, stream, monkeypatch):
    # Everything but a lone permanent fault from cycle 0 on original, tmr
    # or ttr without a trace still runs a machine.
    golden = golden_run("original", design, stream)

    def machine_built(*args):
        raise LookupError("cycle loop")
    monkeypatch.setattr(campaign, "make_machine", machine_built)
    site = GateSite(design.netlist.gates[60].id)
    late = FaultSpec(site, "sa1", 3, PERMANENT)
    early = FaultSpec(site, "sa1", 0, PERMANENT)
    for scheme, spec, trace in (("hfs", early, False),
                                ("original", late, False),
                                ("original", FaultSpec(site, "sa1", 0, 9),
                                 False),
                                ("original", [early, early], False),
                                ("original", early, True)):
        with pytest.raises(LookupError):
            run_scenario(scheme, design, stream, spec, golden,
                         collect_trace=trace)


@pytest.mark.parametrize("scheme", ["original", "hfs", "tmr", "ttr"])
def test_resume_equals_run_from_cycle_zero(design, scheme):
    # An untraced scenario resumes from the golden snapshot at its first
    # fault cycle; a traced one runs from cycle 0 and is the reference.
    # Every site of the scheme gets a transient and a permanent fault,
    # models, durations and starts taking turns; starts run from cycle 0
    # through mid-stream to the drain and past it.  Then two-fault sets
    # whose members start at different cycles.
    stream = [0x00, 0x53, 0xFF, 0x1C, 0xA7, 0x80]
    programs = build_stage_programs(design)
    golden = golden_run(scheme, design, stream, programs)
    end = golden.cycles
    starts = (0, 1, end // 2, end - 3, end, end + 4)
    specs = []
    for i, site in enumerate(enumerate_sites(design, scheme)):
        specs.append(FaultSpec(site, ("flip", "sa0", "sa1")[i % 3],
                               starts[i // 3 % 6], (1, 3, 10)[i // 18 % 3]))
        specs.append(FaultSpec(site, ("sa0", "sa1")[i % 2],
                               starts[1 + i // 2 % 5], PERMANENT))
    rng = random.Random(5)
    pairs = [rng.sample(specs, 2) for _ in range(60)]
    specs += [[a, b] for a, b in pairs if a.start_cycle != b.start_cycle]

    def classify(spec, trace):
        return run_scenario(scheme, design, stream, spec, golden, programs,
                            collect_trace=trace)[0]
    resumed = [classify(spec, False) for spec in specs]
    assert resumed == [classify(spec, True) for spec in specs]


@pytest.mark.parametrize("scheme", ["original", "hfs", "tmr", "ttr"])
def test_resume_equals_run_from_cycle_zero_late_in_a_long_stream(design,
                                                                 scheme):
    # A resumed scenario keeps only the outputs emitted after its resume
    # point and compares them from golden position base on.  Here the
    # prefix holds hundreds of outputs: single and two-fault scenarios
    # start in the last quarter of a 600-byte stream's golden run, and the
    # whole Classification must equal the traced run's, first_bad_cycle
    # included.
    stream = random.Random(11).randbytes(600)
    programs = build_stage_programs(design)
    golden = golden_run(scheme, design, stream, programs)
    rng = random.Random(13)
    sites = enumerate_sites(design, scheme)

    def late_spec():
        start = rng.randrange(3 * golden.cycles // 4, golden.cycles)
        duration = rng.choice((1, 3, 10, PERMANENT))
        models = ("sa0", "sa1") if duration is PERMANENT else \
            ("flip", "sa0", "sa1")
        return FaultSpec(rng.choice(sites), rng.choice(models), start,
                         duration)
    specs = [late_spec() for _ in range(28)]
    specs += [[late_spec(), late_spec()] for _ in range(12)]

    def classify(spec, trace):
        return run_scenario(scheme, design, stream, spec, golden, programs,
                            collect_trace=trace)[0]
    resumed = [classify(spec, False) for spec in specs]
    assert resumed == [classify(spec, True) for spec in specs]
    if scheme == "original":
        assert any(c.first_bad_cycle is not None for c in resumed)


@pytest.mark.parametrize("scheme", ["original", "hfs", "tmr", "ttr"])
def test_campaign_leaves_golden_run_intact(design, scheme, monkeypatch):
    # Scenarios resume from the golden snapshots; none may alter them.
    stream = bytes(range(0, 256, 9))
    kept = []
    monkeypatch.setattr(campaign, "golden_run",
                        lambda *args: kept.append(golden_run(*args))
                        or kept[-1])
    run_campaign(design, CampaignConfig(
        scheme=scheme, models=("flip", "sa1"), durations=(1, 4),
        stream=stream, sample=200, seed=3))
    fresh = golden_run(scheme, design, stream)
    assert [dataclasses.asdict(g) for g in kept] == [dataclasses.asdict(fresh)]


def test_cached_and_fresh_golden_agree(design, stream):
    g = golden_run("hfs", design, stream)
    spec = FaultSpec(GateSite(design.netlist.gates[5].id, 0), "flip", 3, 2)
    with_cache, _ = run_scenario("hfs", design, stream, spec, golden=g)
    fresh, _ = run_scenario("hfs", design, stream, spec)
    assert with_cache == fresh


def test_masked_requires_no_stall_and_no_deviation(design, stream):
    # A fault on one replica before any data is in flight still raises a
    # register mismatch only if it alters a captured value; an unreachable
    # window is masked.
    spec = FaultSpec(GateSite(design.netlist.gates[5].id, 0), "sa0", 2, 1)
    cls, trace = run_scenario("hfs", design, stream, spec,
                              collect_trace=True)
    if cls.kind == "masked":
        assert cls.stall_cycles == 0
        assert not any(r.global_err for r in trace)
        got = [r.output for r in trace if r.output is not None]
        assert got == [sbox_reference(x) for x in stream]


def test_unprotected_permanent_is_sdc(design, stream):
    spec = FaultSpec(GateSite(design.netlist.gates[120].id, 0), "sa0", 0,
                     PERMANENT)
    cls, _ = run_scenario("original", design, list(range(256)), spec)
    assert cls.kind == "sdc"
    assert cls.first_bad_cycle is not None


def test_sdc_reports_first_bad_cycle(design):
    stream = list(range(256))
    golden = golden_run("original", design, stream)
    spec = FaultSpec(RegisterSite(4, 0, 0), "flip", 9, 1)
    cls, trace = run_scenario("original", design, stream, spec,
                              collect_trace=True)
    assert cls.kind == "sdc"
    bad = [r for r in trace if r.cycle == cls.first_bad_cycle]
    assert bad and bad[0].output is not None
    idx = sum(1 for r in trace
              if r.output is not None and r.cycle < cls.first_bad_cycle)
    assert bad[0].output != golden.outputs[idx]


def test_splice_equals_full_run(design):
    # The convergence early-exit must classify identically to a full run;
    # collect_trace=True disables the splice, giving the full-run answer.
    stream = list(range(64))
    golden = golden_run("hfs", design, stream)
    for gate_pos in (3, 47, 99, 133):
        spec = FaultSpec(GateSite(design.netlist.gates[gate_pos].id, 1),
                         "flip", 6, 2)
        fast, _ = run_scenario("hfs", design, stream, spec, golden)
        slow, _ = run_scenario("hfs", design, stream, spec, golden,
                               collect_trace=True)
        assert fast == slow


def test_splice_equals_full_run_broad_sample(design):
    # Same equivalence over a seeded sample of sites, models, durations,
    # phases and schemes; the early exit must never change a verdict.
    import random
    from sboxsim.faults import enumerate_sites
    rng = random.Random(42)
    stream = list(range(48))
    for scheme in ("original", "hfs", "tmr", "ttr"):
        golden = golden_run(scheme, design, stream)
        sites = enumerate_sites(design, scheme)
        for _ in range(18):
            spec = FaultSpec(rng.choice(sites),
                             rng.choice(("flip", "sa0", "sa1")),
                             rng.randrange(0, 10),
                             rng.choice((1, 2, 3, 7)))
            fast, _ = run_scenario(scheme, design, stream, spec, golden)
            slow, _ = run_scenario(scheme, design, stream, spec, golden,
                                   collect_trace=True)
            assert fast == slow, (scheme, str(spec))


def test_scenario_grid_shape(design):
    cfg = CampaignConfig(scheme="hfs", fault_class="transient",
                         durations=(1, 2), start_cycles=(0, 1, 2))
    specs = enumerate_scenarios(design, cfg)
    g = len(design.netlist.gates)
    r = sum(len(c) for c in design.cuts)
    assert len(specs) == 2 * (g + r) * 2 * 3
    # permanent campaigns: stuck-at both ways, start 0 only
    cfg_p = CampaignConfig(scheme="original", fault_class="permanent")
    specs_p = enumerate_scenarios(design, cfg_p)
    assert len(specs_p) == (g + r) * 2
    assert all(s.duration is PERMANENT for s in specs_p)


def _reference_grid(design, config):
    """The scenario grid built in full, in site, model, duration, start
    order."""
    specs = []
    for site in enumerate_sites(design, config.scheme):
        if site.kind not in config.site_kinds:
            continue
        for model in config.resolved_models():
            for duration in (config.durations
                             if config.fault_class == "transient"
                             else (PERMANENT,)):
                if duration is PERMANENT and model == FLIP:
                    continue
                for start in config.resolved_starts(design):
                    specs.append(FaultSpec(site, model, start, duration))
    return specs


@pytest.mark.parametrize("config", [
    CampaignConfig(scheme="hfs"),
    CampaignConfig(scheme="tmr", models=("flip", "sa0"), durations=(2, 7),
                   start_cycles=(0, 40, 900)),
    CampaignConfig(scheme="ttr", fault_class="permanent",
                   models=("sa0", "flip", "sa1"), site_kinds=("register",)),
], ids=["hfs", "tmr", "ttr-permanent-with-flip"])
def test_enumeration_equals_sampling_the_full_grid(design, config):
    # A sample is drawn as grid indices before any spec is built; it must
    # pick the very specs, in the very order, that sampling the built grid
    # picks.
    grid = _reference_grid(design, config)
    n = len(grid)
    assert enumerate_scenarios(design, config) == grid
    for seed in (0, 1, 0x5B0C):
        for sample in (1, 2, n // 3, n - 1, n, n + 7):
            picked = enumerate_scenarios(
                design, dataclasses.replace(config, sample=sample, seed=seed))
            want = (random.Random(seed).sample(grid, sample) if sample < n
                    else grid)
            assert picked == want, (seed, sample)


def test_empty_campaign_rejected(design):
    cfg = CampaignConfig(scheme="hfs", fault_class="transient",
                         site_kinds=("nonexistent",))
    with pytest.raises(EmptyCampaignError):
        enumerate_scenarios(design, cfg)
    for sample in (0, -1):
        with pytest.raises(EmptyCampaignError):
            enumerate_scenarios(design, CampaignConfig(
                scheme="hfs", fault_class="transient", sample=sample))


def test_sampled_grid_rejects_every_bad_cell(design):
    # A sample builds only the specs it draws, yet a bad start or duration
    # anywhere in the grid is rejected, whichever spec the seed draws.
    from sboxsim.faults import InvalidFaultError
    for bad in ({"durations": (1, 0)}, {"start_cycles": (0, -1)}):
        for seed in range(8):
            with pytest.raises(InvalidFaultError):
                enumerate_scenarios(design, CampaignConfig(
                    scheme="original", sample=1, seed=seed, **bad))


@pytest.mark.parametrize("field,bad", [
    ("durations", (1, 1.5)), ("durations", (True,)),
    ("start_cycles", (0, 2.0)), ("seed", "x"), ("seed", True),
    ("workers", 0), ("workers", -1),
])
def test_config_rejects_non_integer_windows_seed_and_workers(field, bad):
    # Checked at construction: a permanent campaign never builds a spec
    # from its durations, and a sample builds only the specs it draws.
    with pytest.raises(ValueError, match=field):
        CampaignConfig(scheme="original", fault_class="permanent",
                       **{field: bad})


_ints = st.integers(min_value=0, max_value=2**20)


@given(st.builds(
    CampaignConfig,
    scheme=st.sampled_from(("original", "hfs", "tmr", "ttr")),
    fault_class=st.sampled_from(campaign.FAULT_CLASSES),
    durations=st.lists(_ints, max_size=4).map(tuple),
    models=st.none() | st.lists(st.sampled_from(("sa0", "sa1", "flip")),
                                max_size=3).map(tuple),
    site_kinds=st.lists(st.sampled_from(("gate", "register", "comparator",
                                         "voter_latch")),
                        max_size=4).map(tuple),
    start_cycles=st.none() | st.lists(_ints, max_size=4).map(tuple),
    stream=st.none() | st.binary(max_size=64),
    sample=st.none() | _ints,
    seed=_ints))
def test_config_json_round_trip(config):
    doc = json.loads(json.dumps(config.to_json_dict()))
    assert CampaignConfig.from_json_dict(doc) == config


def test_campaign_counts_sum_and_coverage(design):
    cfg = CampaignConfig(scheme="hfs", fault_class="transient", sample=120,
                         seed=11)
    res = run_campaign(design, cfg)
    assert res.total == 120
    assert sum(res.counts.values()) == res.total
    assert 0.0 <= res.coverage <= 1.0
    per_site_total = sum(sum(v.values()) for v in res.per_site.values())
    assert per_site_total == res.total


def test_campaign_deterministic_across_runs_and_workers(design):
    cfg1 = CampaignConfig(scheme="hfs", fault_class="transient", sample=90,
                          seed=5, workers=1)
    cfg2 = CampaignConfig(scheme="hfs", fault_class="transient", sample=90,
                          seed=5, workers=2)
    a = run_campaign(design, cfg1)
    b = run_campaign(design, cfg1)
    c = run_campaign(design, cfg2)
    assert a.rows == b.rows == c.rows
    assert a.counts == b.counts == c.counts


def test_campaign_files_byte_identical(design, tmp_path):
    cfg = CampaignConfig(scheme="original", fault_class="transient",
                         sample=40, seed=9)
    paths = []
    for tag in ("one", "two"):
        res = run_campaign(design, cfg, meta={"tool_version": "x"})
        j = tmp_path / f"{tag}.json"
        c = tmp_path / f"{tag}.csv"
        res.write_json(j)
        res.write_csv(c)
        paths.append((j.read_bytes(), c.read_bytes()))
    assert paths[0] == paths[1]


def test_campaign_json_schema(design, tmp_path):
    cfg = CampaignConfig(scheme="tmr", fault_class="transient", sample=10,
                         seed=2)
    res = run_campaign(design, cfg, meta={"tool_version": "0"})
    res.write_json(tmp_path / "r.json")
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["scheme"] == "tmr"
    assert doc["total"] == 10
    assert set(doc["counts"]) == {"masked", "detected_corrected", "sdc",
                                  "detected_uncorrected"}
    assert doc["seed"] == 2
    assert doc["meta"]["tool_version"] == "0"


def test_campaign_csv_columns(design, tmp_path):
    cfg = CampaignConfig(scheme="hfs", fault_class="permanent", sample=8,
                         seed=4)
    res = run_campaign(design, cfg)
    res.write_csv(tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().strip().split("\n")
    assert lines[0] == "site,model,duration,start,classification,stalls"
    assert len(lines) == 9
    assert all(",perm," in line for line in lines[1:])


def test_run_scenario_rejects_invalid_site(design):
    from sboxsim.faults import InvalidSiteError
    with pytest.raises(InvalidSiteError):
        run_scenario("original", design, [1, 2, 3],
                     FaultSpec(GateSite(5, 0), "flip", 0, 1))  # id 5 is input


def test_unprotected_design_sanity_floor(design):
    # No detection hardware exists: every non-masked outcome must be a
    # silent corruption, and some faults must corrupt.
    cfg = CampaignConfig(scheme="original", fault_class="transient",
                         durations=(1,))
    res = run_campaign(design, cfg)
    assert res.counts["detected_corrected"] == 0
    assert res.counts["detected_uncorrected"] == 0
    assert res.counts["sdc"] > 0
    assert res.counts["masked"] + res.counts["sdc"] == res.total


def test_fcdmr_permanent_fault_detected_but_uncorrected(design):
    # Duplication detects a permanent mismatch forever; the pipeline
    # stalls rather than emit wrong data, and never completes.
    spec = FaultSpec(RegisterSite(2, 0, 0), "sa1", 0, PERMANENT)
    cls, _ = run_scenario("hfs", design, list(range(32)), spec)
    assert cls.kind == "detected_uncorrected"
    assert cls.first_bad_cycle is None


def test_voter_latch_fault_alone_is_invisible(design):
    # Latches are only consumed during a stall, and a single latch fault
    # never causes one, so the single-fault campaign over latch sites is
    # all-masked.  No correction guarantee is claimed for these sites.
    cfg = CampaignConfig(scheme="hfs", fault_class="transient",
                         site_kinds=("voter_latch",), durations=(1, 2))
    res = run_campaign(design, cfg)
    assert res.counts["masked"] == res.total


def test_double_fault_classified_honestly(design):
    # A stall-inducing register fault plus a corrupted voter latch breaks
    # the single-fault assumption; the run is classified, not corrected.
    from sboxsim.faults import VoterLatchSite
    stream = list(range(64))
    double = [FaultSpec(RegisterSite(2, 0, 0), "flip", 8, 2),
              FaultSpec(VoterLatchSite(1, 3), "flip", 8, 2)]
    cls, _ = run_scenario("hfs", design, stream, double)
    assert cls.kind == "detected_uncorrected"
    assert cls.first_bad_cycle is not None


def test_correction_guarantee_holds_for_stuck_at_transients(design):
    # The headline campaign uses bit flips; stuck-at transients must be
    # corrected just the same (a read corruption either reaches a register
    # pair and stalls, or is logically masked).
    cfg = CampaignConfig(scheme="hfs", fault_class="transient",
                         models=("sa0", "sa1"), durations=(1, 10))
    res = run_campaign(design, cfg)
    assert res.counts["sdc"] == 0
    assert res.counts["detected_uncorrected"] == 0


def test_correction_guarantee_holds_for_alternate_params():
    from sboxsim.gf import derive_field_params
    from sboxsim.pipeline import cut_pipeline
    from sboxsim.synth import synth_sbox
    alt = cut_pipeline(synth_sbox(derive_field_params(0xC, 0x2, 0)), 5)
    cfg = CampaignConfig(scheme="hfs", fault_class="transient",
                         durations=(1, 5), sample=600, seed=3)
    res = run_campaign(alt, cfg)
    assert res.counts["sdc"] == 0
    assert res.counts["detected_uncorrected"] == 0


@pytest.mark.parametrize("n_stages", [2, 3, 7])
def test_correction_guarantee_holds_for_other_depths(n_stages):
    from sboxsim.gf import DEFAULT_PARAMS
    from sboxsim.pipeline import cut_pipeline
    from sboxsim.synth import synth_sbox
    d = cut_pipeline(synth_sbox(DEFAULT_PARAMS), n_stages)
    cfg = CampaignConfig(scheme="hfs", fault_class="transient",
                         durations=(1, 4), sample=400, seed=1)
    res = run_campaign(d, cfg)
    assert res.counts["sdc"] == 0
    assert res.counts["detected_uncorrected"] == 0


def test_aggregation_order_independent(design):
    # Classifications are per-scenario; shuffling execution order (via the
    # worker interleave) must not change any aggregate.  Covered partly by
    # the workers test; here: merging rows recomputes identical counts.
    cfg = CampaignConfig(scheme="hfs", fault_class="transient", sample=60,
                         seed=13)
    res = run_campaign(design, cfg)
    recount = {}
    for row in sorted(res.rows):
        recount[row[4]] = recount.get(row[4], 0) + 1
    for kind, n in recount.items():
        assert res.counts[kind] == n
