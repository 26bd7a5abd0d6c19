"""Campaign machinery: classification rules, caching, determinism,
aggregation, file formats."""

import concurrent.futures
import dataclasses
import json
import os
import pickle
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sboxsim import campaign, faults
from sboxsim.campaign import (CampaignConfig, Classification,
                              EmptyCampaignError, default_stream,
                              enumerate_scenarios, golden_run, run_campaign,
                              run_scenario)
from sboxsim.faults import (FLIP, MODELS, SITE_KINDS, FaultSpec, GateSite,
                            InvalidFaultError, PERMANENT, RegisterSite,
                            enumerate_sites)
from sboxsim.gf import DEFAULT_PARAMS, sbox_reference
from sboxsim.pipeline import StageProgram, build_stage_programs, cut_pipeline
from sboxsim.redundancy import make_machine
from sboxsim.synth import synth_sbox

from test_stall_law import (assert_rows_follow_stall_law,
                            cycle_0_exceptions)


@pytest.fixture(scope="module")
def design():
    return cut_pipeline(synth_sbox(DEFAULT_PARAMS), 5)


@pytest.fixture(scope="module")
def stream():
    return list(range(48))


def assert_engine_matches_trace(scheme, design, stream, specs, golden):
    """Each spec (a FaultSpec or a list of them) gets the same whole
    Classification from the engine run_scenario picks untraced (lane
    pass, resume, splice) as from the traced run from cycle 0, the
    reference.  Returns the untraced classifications."""
    fast = []
    for spec in specs:
        got = run_scenario(scheme, design, stream, spec, golden)[0]
        want = run_scenario(scheme, design, stream, spec, golden,
                            collect_trace=True)[0]
        assert got == want, (scheme, str(spec))
        fast.append(got)
    return fast


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
    golden = golden_run(scheme, design, stream)
    specs = enumerate_scenarios(
        design, CampaignConfig(scheme=scheme, fault_class="permanent"))
    lane = []
    monkeypatch.setattr(campaign, "_classify_permanent",
                        lambda *a, fn=campaign._classify_permanent:
                        lane.append(a) or fn(*a))
    assert_engine_matches_trace(scheme, design, stream, specs, golden)
    assert len(lane) == len(specs)


@pytest.mark.parametrize("scheme", ["original", "ttr"])
def test_first_wrong_output_stop_equals_cycle_loop(design, scheme):
    # A scheme that never stalls stops an untraced run at its first wrong
    # output; the traced run goes on to the end.  The whole gate and
    # register permanent grid from starts that take the cycle loop: 1, n,
    # mid-stream, and the last cycle of the fault-free run.
    stream = random.Random(7).sample(range(256), 12)
    golden = golden_run(scheme, design, stream)
    starts = (1, design.n_stages, golden.cycles // 2, golden.cycles - 1)
    specs = enumerate_scenarios(design, CampaignConfig(
        scheme=scheme, fault_class="permanent",
        site_kinds=("gate", "register"), start_cycles=starts))
    got = assert_engine_matches_trace(scheme, design, stream, specs, golden)
    assert {c.kind for c in got} == {"masked", "sdc"}


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


def test_collect_trace_is_keyword_only(design, stream):
    # A sixth positional argument raises: it must not land in
    # collect_trace and silently take the traced path.
    spec = FaultSpec(GateSite(design.netlist.gates[5].id), "flip", 3, 2)
    golden = golden_run("hfs", design, stream)
    with pytest.raises(TypeError):
        run_scenario("hfs", design, stream, spec, golden, [])


@pytest.mark.parametrize("scheme", ["original", "hfs", "tmr", "ttr"])
def test_resume_equals_run_from_cycle_zero(design, scheme):
    # An untraced scenario resumes from the golden snapshot at its first
    # fault cycle; a traced one runs from cycle 0 and is the reference.
    # Every site of the scheme gets a transient and a permanent fault,
    # models, durations and starts taking turns; starts run from cycle 0
    # through mid-stream to the drain and past it.  Then two-fault sets
    # whose members start at different cycles.  A scenario whose every
    # fault starts once the run has ended is rejected on both paths.
    stream = [0x00, 0x53, 0xFF, 0x1C, 0xA7, 0x80]
    golden = golden_run(scheme, design, stream)
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

    def first_start(spec):
        return min(s.start_cycle for s in
                   (spec if isinstance(spec, list) else [spec]))
    late = [spec for spec in specs if first_start(spec) >= end]
    assert late
    for spec in late:
        for trace in (False, True):
            with pytest.raises(InvalidFaultError):
                run_scenario(scheme, design, stream, spec, golden,
                             collect_trace=trace)
    assert_engine_matches_trace(scheme, design, stream,
                                [spec for spec in specs
                                 if first_start(spec) < end], golden)


@pytest.mark.parametrize("scheme", ["original", "hfs", "tmr", "ttr"])
def test_resume_equals_run_from_cycle_zero_late_in_a_long_stream(design,
                                                                 scheme):
    # A resumed scenario compares each output with the golden output at
    # the position its restored emitted counter gives.  Here the prefix
    # holds hundreds of outputs: single and two-fault scenarios
    # start in the last quarter of a 600-byte stream's golden run, and the
    # whole Classification must equal the traced run's, first_bad_cycle
    # included.
    stream = random.Random(11).randbytes(600)
    golden = golden_run(scheme, design, stream)
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
    resumed = assert_engine_matches_trace(scheme, design, stream, specs,
                                          golden)
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
    # A 6-cycle flip corrupts several outputs; the first one is reported,
    # and every output before it is golden.
    stream = list(range(256))
    golden = golden_run("original", design, stream)
    for duration in (1, 6):
        spec = FaultSpec(RegisterSite(4, 0, 0), "flip", 9, duration)
        cls, trace = run_scenario("original", design, stream, spec,
                                  collect_trace=True)
        assert cls.kind == "sdc"
        got = [r for r in trace if r.output is not None]
        wrong = [r.cycle for r, want in zip(got, golden.outputs)
                 if r.output != want]
        assert len(wrong) >= (2 if duration > 1 else 1)
        assert cls.first_bad_cycle == wrong[0]


def test_splice_equals_full_run(design):
    # The convergence early-exit must classify identically to a full run;
    # collect_trace=True disables the splice, giving the full-run answer.
    # The last case is a fault pair whose stall count still grows after
    # its first wrong output: a run that stops there reads 2 stalls.
    stream = list(range(64))
    golden = golden_run("hfs", design, stream)
    specs = [FaultSpec(GateSite(design.netlist.gates[gate_pos].id, 1),
                       "flip", 6, 2) for gate_pos in (3, 47, 99, 133)]
    specs.append([FaultSpec(RegisterSite(4, 7, 1), "flip", 6, 5),
                  FaultSpec(GateSite(141, 0), "sa1", 7, 2)])
    got = assert_engine_matches_trace("hfs", design, stream, specs, golden)
    assert got[-1] == Classification("detected_uncorrected", 3, 8)


def test_splice_equals_full_run_broad_sample(design):
    # Same equivalence over a seeded sample of sites, models, durations,
    # phases and schemes; the early exit must never change a verdict.
    rng = random.Random(42)
    stream = list(range(48))
    for scheme in ("original", "hfs", "tmr", "ttr"):
        sites = enumerate_sites(design, scheme)
        specs = [FaultSpec(rng.choice(sites),
                           rng.choice(("flip", "sa0", "sa1")),
                           rng.randrange(0, 10), rng.choice((1, 2, 3, 7)))
                 for _ in range(18)]
        assert_engine_matches_trace(scheme, design, stream, specs,
                                    golden_run(scheme, design, stream))


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
    with pytest.raises(ValueError, match="'nonexistent'"):
        CampaignConfig(scheme="hfs", fault_class="transient",
                       site_kinds=("gate", "nonexistent"))
    cfg = CampaignConfig(scheme="tmr", fault_class="transient",
                         site_kinds=("comparator",))
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
    ("workers", 0), ("workers", -1), ("workers", 2.5), ("workers", "2"),
    ("workers", True),
    # A string is no list of values, though it iterates as one.
    ("durations", "12"), ("models", "flip"), ("site_kinds", "gate"),
    ("start_cycles", "12"),
    # Nor is any other iterable: a range or a set would not be written
    # back as a list, a generator would be used up by the checks.
    ("start_cycles", range(3)), ("durations", {1, 2}),
    ("site_kinds", (k for k in ("gate",))), ("models", {"flip": 1}),
    ("stream", [0, 1]), ("stream", (0, 1)), ("stream", "0001"),
])
def test_config_rejects_non_integer_windows_seed_and_workers(field, bad):
    # Checked at construction: a permanent campaign never builds a spec
    # from its durations, and a sample builds only the specs it draws.
    with pytest.raises(ValueError, match=field) as e:
        CampaignConfig(scheme="original", fault_class="permanent",
                       **{field: bad})
    if isinstance(bad, str):
        assert repr(bad) in str(e.value)    # whole, not letter by letter


def test_config_keeps_lists_as_tuples_and_a_bytearray_stream_as_bytes():
    stream = bytearray(b"ab")
    config = CampaignConfig(scheme="hfs", durations=[1, 2],
                            start_cycles=[0], stream=stream)
    assert config.durations == (1, 2) and config.start_cycles == (0,)
    assert type(config.stream) is bytes
    assert hash(config) == hash(CampaignConfig(
        scheme="hfs", durations=(1, 2), start_cycles=(0,), stream=b"ab"))
    stream[0] = 0       # a later change to the caller's buffer
    assert config.stream == b"ab"
    doc = json.loads(json.dumps(config.to_json_dict()))
    assert CampaignConfig.from_json_dict(doc) == config


def test_config_file_rejects_unknown_keys():
    # A whole result document is no config: its config is its "config"
    # member, and read as one it would run a different campaign.
    result = {"scheme": "hfs", "config": {"scheme": "hfs", "sample": 3},
              "counts": {}}
    for doc, key in ((result, "config"), ({"scheme": "hfs", "workers": 2},
                                          "workers"),
                     ({"scheme": "hfs", "stream": "00"}, "stream")):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            CampaignConfig.from_json_dict(doc)


@pytest.mark.parametrize("text", [5, "zz", None, "", ["00"], "0"])
def test_config_file_rejects_a_stream_hex_that_is_no_hex_bytes(text):
    with pytest.raises(ValueError) as e:
        CampaignConfig.from_json_dict({"scheme": "hfs", "stream_hex": text})
    assert str(e.value) == (f"stream_hex must be a nonempty hex string, "
                            f"got {text!r}")


def test_unknown_scheme_is_rejected_alike_everywhere(design):
    from sboxsim.metrics import measure_design
    calls = [lambda: CampaignConfig(scheme="bogus"),
             lambda: make_machine("bogus", design),
             lambda: measure_design("bogus", design),
             lambda: enumerate_sites(design, "bogus")]
    for call in calls:
        with pytest.raises(ValueError) as e:
            call()
        assert type(e.value) is ValueError
        assert str(e.value) == "unknown scheme 'bogus'"


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
    stream=st.none() | st.binary(min_size=1, max_size=64),
    sample=st.none() | _ints,
    seed=_ints))
def test_config_json_round_trip(config):
    doc = json.loads(json.dumps(config.to_json_dict()))
    assert CampaignConfig.from_json_dict(doc) == config


_GOOD_FIELDS = {"scheme": "hfs", "fault_class": "transient",
                "durations": (1, 2), "models": ("flip",),
                "site_kinds": ("gate",), "start_cycles": (0, 3),
                "stream": b"\x00\x53", "sample": 3, "seed": 7, "workers": 1}
_scalars = (st.floats(allow_nan=False) | st.booleans() | st.none()
            | st.integers(-3, 3)
            | st.sampled_from(("", "hfs", "flip", "gate", "12", "bogus")))
_wrong = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=3), inner,
                                        max_size=2),
                      max_leaves=6)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(_GOOD_FIELDS)), _wrong,
                       min_size=1, max_size=3))
def test_config_from_wrong_types_builds_and_round_trips_or_names_the_field(
        wrong):
    # Each drawn field takes a value of a wrong type (float, bool, str,
    # list, dict, None, nested); the others keep valid ones.  Either the
    # config builds and its file document reads back as it, or a
    # ValueError names a drawn field.  No file records workers.
    try:
        config = CampaignConfig(**{**_GOOD_FIELDS, **wrong})
    except ValueError as e:
        assert any(name in str(e) for name in wrong), (wrong, str(e))
        return
    doc = json.loads(json.dumps(config.to_json_dict()))
    assert CampaignConfig.from_json_dict(doc) == \
        dataclasses.replace(config, workers=1)


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


class _InProcessPool:
    """A ProcessPoolExecutor stand-in that runs each task at submit and
    records the pool size and the number of submits."""

    def __init__(self, pools, max_workers):
        self.max_workers, self.submits = max_workers, 0
        pools.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submits += 1
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers", [1, 2, 3, 8, 5000])
def test_campaign_asks_no_more_workers_than_scenarios(design, monkeypatch,
                                                      workers):
    # Three scenarios: a pool of min(workers, 3, CPUs) processes, one
    # chunk each, and none at all for one worker or one CPU; the rows
    # never change.  The CPU count is patched, so no host decides it.
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _InProcessPool(pools,
                                                           max_workers))
    cfg = CampaignConfig(scheme="hfs", fault_class="transient", sample=3,
                         seed=5)
    serial = run_campaign(design, cfg)
    assert not pools
    for cpus in (1, 2, 64, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pools.clear()
        res = run_campaign(design, dataclasses.replace(cfg, workers=workers))
        nw = min(workers, 3, cpus or 1)
        assert [(p.max_workers, p.submits) for p in pools] == \
            ([(nw, nw)] if nw > 1 else []), cpus
        assert res.rows == serial.rows


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


def _files(result, path):
    result.write_json(path.with_suffix(".json"))
    result.write_csv(path.with_suffix(".csv"))
    return (path.with_suffix(".json").read_bytes(),
            path.with_suffix(".csv").read_bytes())


def _counted_builds(monkeypatch):
    """The designs campaign.build_stage_programs is called for, in order."""
    builds = []
    monkeypatch.setattr(campaign, "build_stage_programs",
                        lambda d: builds.append(d) or build_stage_programs(d))
    return builds


def test_campaigns_on_one_design_share_its_programs_exactly(design, tmp_path,
                                                            monkeypatch):
    # Original, tmr and ttr permanent campaigns back to back on one design,
    # as Acceptance 4 and perfbench's permanent_fixed_latency run them: the
    # first compiles one fault-free body and one clean lane body per stage
    # and one lane variant per gate, shared by its sa0 and sa1 faults; the
    # later ones compile nothing, reusing those and the clean tables, and
    # write the bytes each writes on a design of its own.
    configs = [
        CampaignConfig(scheme="original", fault_class="permanent"),
        CampaignConfig(scheme="tmr", fault_class="permanent", sample=60),
        CampaignConfig(scheme="ttr", fault_class="permanent",
                       site_kinds=("gate",), sample=40),
    ]
    builds = _counted_builds(monkeypatch)
    compiled = []           # per campaign: (stage gates, forced, mode)
    compile_stage = StageProgram._compile

    def counted(self, forced=frozenset(), lanes=False, masked=False):
        compiled[-1].append((tuple(g.id for g in self.gates), forced, lanes,
                             masked))
        return compile_stage(self, forced, lanes, masked)
    monkeypatch.setattr(StageProgram, "_compile", counted)

    shared = cut_pipeline(design.netlist, design.n_stages)
    together = []
    for i, cfg in enumerate(configs):
        compiled.append([])
        together.append(_files(run_campaign(shared, cfg),
                               tmp_path / f"shared{i}"))
    n, gates = design.n_stages, design.netlist.gates
    first = compiled[0]
    assert len(set(first)) == len(first) == n + n + len(gates)
    assert sum(not lanes for _, _, lanes, _ in first) == n
    assert {forced for _, forced, lanes, _ in first if lanes} == \
        {frozenset(), *(frozenset({g.id}) for g in gates)}
    assert compiled[1] == compiled[2] == []

    fresh = []
    for i, cfg in enumerate(configs):
        # An equal but distinct design builds programs of its own.
        fresh.append(cut_pipeline(design.netlist, design.n_stages))
        assert fresh[-1] == shared and fresh[-1] is not shared
        compiled.append([])
        assert _files(run_campaign(fresh[-1], cfg),
                      tmp_path / f"fresh{i}") == together[i]
        assert set(compiled[-1]) & set(compiled[0])
    assert len(builds) == 4
    assert all(b is d for b, d in zip(builds, [shared, *fresh]))


def test_a_design_lists_each_schemes_sites_once(design, monkeypatch):
    # Scenario enumeration and fault binding read one site list per
    # (design object, scheme), however many campaigns and faults use it.
    built = []
    sites = faults._sites
    monkeypatch.setattr(faults, "_sites",
                        lambda d, s: built.append(s) or sites(d, s))
    own = cut_pipeline(design.netlist, design.n_stages)
    for scheme in ("hfs", "tmr", "hfs"):
        run_campaign(own, CampaignConfig(scheme=scheme, sample=30, seed=3))
    assert built == ["hfs", "tmr"]
    assert enumerate_sites(own, "tmr") is enumerate_sites(own, "tmr")


def test_workers_build_their_own_programs_after_the_cache_is_filled(
        design, monkeypatch):
    own = cut_pipeline(design.netlist, design.n_stages)
    # Starts 0 and 7: the lane path and the cycle loop.
    cfg = CampaignConfig(scheme="tmr", fault_class="permanent",
                         start_cycles=(0, 7), sample=60, seed=5)
    serial = run_campaign(own, cfg)
    builds = _counted_builds(monkeypatch)
    programs = campaign.stage_programs(own)
    assert not builds
    # The design pickles without its programs: the copy builds its own.
    copy = pickle.loads(pickle.dumps(own))
    assert copy == own
    assert campaign.stage_programs(copy) is not programs
    assert len(builds) == 1 and builds[0] is copy
    parallel = run_campaign(own, dataclasses.replace(cfg, workers=2))
    assert parallel.rows == serial.rows
    assert campaign.stage_programs(own) is programs


def test_fault_after_the_run_is_rejected(design, stream, monkeypatch):
    golden = golden_run("hfs", design, stream)
    site = GateSite(60, 0)
    last = FaultSpec(site, FLIP, golden.cycles - 1, 1)
    assert run_scenario("hfs", design, stream, last, golden)[0].kind \
        == "masked"
    late = FaultSpec(site, FLIP, golden.cycles, 1)
    for traced in (False, True):
        with pytest.raises(InvalidFaultError, match="never injected"):
            run_scenario("hfs", design, stream, late, golden,
                         collect_trace=traced)
    # Only the earliest start counts: a later member may still fire.
    run_scenario("hfs", design, stream,
                 [FaultSpec(RegisterSite(2, 0, 0), FLIP, 8, 2), late], golden)

    # A campaign rejects a late start before any scenario runs, whether
    # or not its sample draws that start.
    def run_scenario_(*args, **kwargs):
        raise AssertionError("a scenario ran before the starts were checked")
    monkeypatch.setattr(campaign, "run_scenario", run_scenario_)
    cfg = CampaignConfig(scheme="original", stream=bytes(stream), sample=1,
                         start_cycles=(0, golden.cycles + 100))
    with pytest.raises(InvalidFaultError, match="never injected"):
        run_campaign(design, cfg)


def test_run_scenario_rejects_invalid_site(design):
    from sboxsim.faults import InvalidSiteError
    with pytest.raises(InvalidSiteError):
        run_scenario("original", design, [1, 2, 3],
                     FaultSpec(GateSite(5, 0), "flip", 0, 1))  # id 5 is input


@pytest.mark.parametrize("empty", [[], ()])
def test_run_scenario_rejects_an_empty_fault_list(design, empty):
    for traced in (False, True):
        with pytest.raises(ValueError, match="^empty fault set"):
            run_scenario("tmr", design, [1, 2, 3], empty,
                         collect_trace=traced)


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


def test_one_fault_per_stage_in_any_replicas_is_corrected(design):
    # The paper corrects faults "in each pipeline stage": sets of two to
    # n_stages faults, at most one gate or register fault per stage (a
    # register counts with the stage that writes it), each in either
    # replica, under every model, with starts up to 8 cycles apart.  A
    # seeded sample, not a proof.
    stream = default_stream()
    golden = golden_run("hfs", design, stream)
    n_in = len(design.netlist.inputs)
    by_stage = [[RegisterSite(s, b, 0) for b in range(len(cut))]
                for s, cut in enumerate(design.cuts)]
    for g in design.netlist.gates:
        by_stage[design.stage_of_gate[g.id - n_in]].append(GateSite(g.id))
    rng = random.Random(21)
    kinds = set()
    for _ in range(1600):
        base = rng.randrange(300)
        specs = [FaultSpec(dataclasses.replace(rng.choice(by_stage[s]),
                                               replica=rng.randrange(2)),
                           rng.choice(MODELS), base + rng.randrange(9),
                           rng.choice((1, 2, 5, 10)))
                 for s in rng.sample(range(design.n_stages),
                                     rng.randint(2, design.n_stages))]
        cls = run_scenario("hfs", design, stream, specs, golden)[0]
        assert cls.kind in ("masked", "detected_corrected"), \
            ([str(s) for s in specs], cls)
        kinds.add(cls.kind)
    assert "detected_corrected" in kinds


def test_faults_in_one_stage_of_both_replicas_defeat_detection(design):
    # Where correction ends: the two replicas go wrong alike, so their
    # registers agree and no error is raised.  No fault in the checking
    # machinery is needed.
    common = [FaultSpec(GateSite(8, r), FLIP, 3, 1) for r in (0, 1)]
    assert run_scenario("hfs", design, list(range(64)), common)[0] == \
        Classification("sdc", 0, 8)
    apart = [FaultSpec(GateSite(126, 0), FLIP, 5, 1),
             FaultSpec(GateSite(125, 1), FLIP, 5, 1)]
    assert run_scenario("hfs", design, default_stream(), apart)[0] == \
        Classification("sdc", 0, 6)


def test_common_mode_faults_defeat_detection_this_often(design):
    # The exhaustive common-mode grids: one gate, or one register bit,
    # flipped in both replicas at once for one cycle, every start 0..7.
    stream = default_stream()
    golden = golden_run("hfs", design, stream)
    gates = [[GateSite(g.id, r) for r in (0, 1)]
             for g in design.netlist.gates]
    bits = [[RegisterSite(s, b, r) for r in (0, 1)]
            for s, cut in enumerate(design.cuts) for b in range(len(cut))]
    for sites, want in ((gates, {"sdc": 703, "masked": 369}),
                        (bits, {"sdc": 316, "masked": 332})):
        assert Counter(
            run_scenario("hfs", design, stream,
                         [FaultSpec(s, FLIP, start, 1) for s in pair],
                         golden)[0].kind
            for pair, start in product(sites, range(8))) == want


def test_correction_guarantee_holds_for_stuck_at_transients(design):
    # The headline campaign uses bit flips; stuck-at transients must be
    # corrected just the same (a read corruption either reaches a register
    # pair and stalls, or is logically masked).
    cfg = CampaignConfig(scheme="hfs", fault_class="transient",
                         models=("sa0", "sa1"), durations=(1, 10))
    res = run_campaign(design, cfg)
    assert res.counts["sdc"] == 0
    assert res.counts["detected_uncorrected"] == 0
    # Each stall lasts as long as the fault's effect does: the rows are the
    # stall law's, but for the listed register stuck-ats from reset.
    assert_rows_follow_stall_law(design, cfg, res, cycle_0_exceptions((10,)))


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


def test_correction_guarantee_holds_for_any_duration(design):
    # The paper's claim covers transients of any duration: windows up to
    # 64 cycles outlast the 5-stage pipeline's drain many times over.
    cfg = CampaignConfig(scheme="hfs", fault_class="transient",
                         durations=tuple(range(1, 65)), sample=300, seed=5)
    specs = enumerate_scenarios(design, cfg)
    assert max(s.duration for s in specs) > 4 * design.n_stages
    assert {s.site.kind for s in specs} == {"gate", "register"}
    res = run_campaign(design, cfg)
    assert res.total == 300
    assert res.guarantee_holds(), res.counts
    assert res.counts["detected_corrected"] > 0


def test_correction_guarantee_holds_with_every_byte_in_every_stage(design):
    # The default stream opens with the byte values 0..255 in order, and
    # at cycle c stage k evaluates the input taken at cycle c - k, which
    # register k holds from the next cycle.  So starts 0..n_stages+256
    # start a fault while each byte value is in each stage and each
    # register: the sample draws every one of those starts, on every site
    # kind, under every fault model, in about a second.
    starts = tuple(range(design.n_stages + 257))
    cfg = CampaignConfig(scheme="hfs", models=MODELS,
                         site_kinds=SITE_KINDS, start_cycles=starts,
                         sample=5000, seed=17)
    specs = enumerate_scenarios(design, cfg)
    assert {s.start_cycle for s in specs} == set(starts)
    assert {s.site.kind for s in specs} == set(SITE_KINDS)
    assert {s.model for s in specs} == set(MODELS)
    res = run_campaign(design, cfg)
    assert res.counts["sdc"] == 0, res.counts
    assert res.counts["detected_uncorrected"] == 0, res.counts


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
