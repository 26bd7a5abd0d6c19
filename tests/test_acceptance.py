"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain pytest; each criterion's PASS/FAIL line is echoed in the
terminal summary at the end of the session:

    pytest tests/test_acceptance.py -v
"""

import pytest

from sboxsim.campaign import (CampaignConfig, default_stream, golden_run,
                              run_campaign)
from sboxsim.gf import (DEFAULT_PARAMS, gf4_inv, gf4_mul, gf16_inv, gf16_mul,
                        gf256_mul, gf256_tower_inv, map_iso, map_iso_inv,
                        sbox_composite, sbox_reference)
from sboxsim.metrics import build_metrics, overhead, throughput
from sboxsim.netlist import critical_path_delay
from sboxsim.pipeline import cut_pipeline, streaming_eval
from sboxsim.redundancy import FcDmrMachine
from sboxsim.synth import synth_sbox

from test_stall_law import assert_rows_follow_stall_law

P = DEFAULT_PARAMS


@pytest.fixture(scope="module")
def design():
    return cut_pipeline(synth_sbox(P), 5)


@pytest.fixture(scope="module")
def hfs_exhaustive(design):
    """Criterion 3's campaign; its artifacts also serve criterion 7."""
    cfg = CampaignConfig(scheme="hfs", fault_class="transient",
                         durations=(1, 2, 5, 10))
    return cfg, run_campaign(design, cfg, meta={"criterion": 3})


def test_criterion_1_sbox_functional_oracle(design, acceptance_report):
    """Formula, combinational netlist, and fault-free pipeline all equal
    the published table on every byte, bit-exact."""
    table = [sbox_reference(x) for x in range(256)]
    formula = [sbox_composite(x, P) for x in range(256)]
    combinational = [design.netlist.evaluate_byte(x) for x in range(256)]
    pipelined = streaming_eval(design, range(256))
    ok = formula == table and combinational == table and pipelined == table
    acceptance_report(1, ok, "composite formula, synthesized netlist, and "
                      "5-stage pipeline match the published S-box on "
                      "all 256 bytes")


def test_criterion_2_overhead_arithmetic_regression(acceptance_report):
    """Recomputing the published percentage cells from the published raw
    cells reproduces them within 1% absolute."""
    checks = [
        (100 * overhead(503.46, 212.42), 137.0),   # duplicated-pipeline area
        (100 * overhead(673.31, 212.42), 216.0),   # triple-modular area
        (100 * overhead(279.02, 212.42), 31.35),   # time-redundant area
        (100 * overhead(525.0, 555.0), -5.4),      # frequencies
        (100 * overhead(519.0, 555.0), -6.4),
        (100 * overhead(492.0, 555.0), -11.3),
        (100 * overhead(1384.0, 4440.0), -68.8),   # time-redundant throughput
    ]
    worst = max(abs(got - want) for got, want in checks)
    extras = [abs(throughput(555.0, 8, 1) - 4440.0),
              abs(throughput(519.0, 8, 3) - 1384.0),
              abs(throughput(492.0, 8, 1) - 3936.0)]
    ok = worst < 1.0 and max(extras) < 0.5
    acceptance_report(2, ok, f"published percentage cells reproduced, "
                      f"worst absolute error {worst:.3f}%")


def test_criterion_3_fcdmr_correction_guarantee(design, hfs_exhaustive, acceptance_report):
    """Exhaustive single-replica transients over every gate output and
    register bit, durations 1/2/5/10, all start phases, 512-byte stream:
    no silent corruption, nothing detected-but-uncorrected."""
    cfg, res = hfs_exhaustive
    assert len(cfg.resolved_stream()) == 512
    ok = (res.counts["sdc"] == 0
          and res.counts["detected_uncorrected"] == 0
          and res.total > 10000)
    acceptance_report(3, ok, f"{res.total} exhaustive transient scenarios: "
                      f"sdc={res.counts['sdc']} "
                      f"uncorrected={res.counts['detected_uncorrected']} "
                      f"corrected={res.counts['detected_corrected']} "
                      f"masked={res.counts['masked']}")


def test_criterion_3_stalls_last_as_long_as_the_fault(design,
                                                     hfs_exhaustive):
    """Criterion 3's rows are the stall law's (see test_stall_law): the
    control unit holds the voter output till the fault effect disappears,
    and no longer.  Checked alongside criterion 3, with no line of its
    own."""
    cfg, res = hfs_exhaustive
    assert_rows_follow_stall_law(design, cfg, res)


def test_criterion_4_guarantee_matrix(design, acceptance_report):
    """Triple-modular corrects transients and single-replica permanents;
    time redundancy corrects single-pass transients but not permanents;
    the unprotected design corrupts silently under both."""
    tmr_t = run_campaign(design, CampaignConfig(
        scheme="tmr", fault_class="transient", workers=2))
    tmr_p = run_campaign(design, CampaignConfig(
        scheme="tmr", fault_class="permanent", workers=2))
    ttr_t = run_campaign(design, CampaignConfig(
        scheme="ttr", fault_class="transient", durations=(1,)))
    ttr_p = run_campaign(design, CampaignConfig(
        scheme="ttr", fault_class="permanent", site_kinds=("gate",),
        workers=2))
    orig_t = run_campaign(design, CampaignConfig(
        scheme="original", fault_class="transient"))
    orig_p = run_campaign(design, CampaignConfig(
        scheme="original", fault_class="permanent"))
    ok = (tmr_t.counts["sdc"] == 0 and tmr_t.counts["detected_uncorrected"] == 0
          and tmr_p.counts["sdc"] == 0
          and tmr_p.counts["detected_uncorrected"] == 0
          and ttr_t.counts["sdc"] == 0
          and ttr_p.counts["sdc"] >= 1
          and orig_t.counts["sdc"] >= 1
          and orig_p.counts["sdc"] >= 1)
    acceptance_report(
        4, ok,
        f"tmr transient sdc={tmr_t.counts['sdc']}/{tmr_t.total}, "
        f"tmr permanent sdc={tmr_p.counts['sdc']}/{tmr_p.total}, "
        f"ttr single-pass sdc={ttr_t.counts['sdc']}/{ttr_t.total}, "
        f"ttr permanent sdc={ttr_p.counts['sdc']}/{ttr_p.total}, "
        f"original sdc={orig_t.counts['sdc']}+{orig_p.counts['sdc']}")


def test_criterion_5_area_ordering_and_bands(design, acceptance_report):
    """Measured GE ordering and banded overheads under the default costs."""
    rows = {r.design: r for r in build_metrics(design)}
    ordering = (rows["original"].area_ge < rows["ttr"].area_ge
                < rows["hfs"].area_ge < rows["tmr"].area_ge)
    hfs_band = 100.0 <= rows["hfs"].area_overhead_pct <= 180.0
    tmr_band = 180.0 <= rows["tmr"].area_overhead_pct <= 260.0
    ok = ordering and hfs_band and tmr_band
    acceptance_report(
        5, ok,
        f"areas {rows['original'].area_ge:.1f} < {rows['ttr'].area_ge:.1f}"
        f" < {rows['hfs'].area_ge:.1f} < {rows['tmr'].area_ge:.1f} GE; "
        f"overheads hfs {rows['hfs'].area_overhead_pct:.1f}% "
        f"tmr {rows['tmr'].area_overhead_pct:.1f}%")


def test_criterion_6_pipeline_properties(design, acceptance_report):
    """Five-stage cut preserves the function with exactly 5-cycle latency;
    stage delay within [cp/5, cp/3]."""
    table_ok = streaming_eval(design, range(256)) == \
        [sbox_reference(x) for x in range(256)]
    latency_ok = True
    for x in range(256):
        m = FcDmrMachine(design)
        emissions = []
        m.step(x)
        for _ in range(7):
            rec = m.step(None)
            if rec.output is not None:
                emissions.append((rec.cycle, rec.output))
        if emissions != [(5, sbox_reference(x))]:
            latency_ok = False
            break
    cp = critical_path_delay(design.netlist)
    balance_ok = cp / 5 - 1e-9 <= design.max_stage_delay <= cp / 3
    ok = table_ok and latency_ok and balance_ok
    acceptance_report(6, ok, f"function preserved, single-byte latency "
                      f"exactly 5, max stage delay "
                      f"{design.max_stage_delay:.2f} within "
                      f"[{cp / 5:.2f}, {cp / 3:.2f}]")


def test_criterion_7_campaign_determinism(design, hfs_exhaustive, tmp_path, acceptance_report):
    """Re-running criterion 3's campaign with the same seed reproduces its
    result files byte for byte."""
    cfg, first = hfs_exhaustive
    second = run_campaign(design, cfg, meta={"criterion": 3})
    blobs = []
    for tag, res in (("a", first), ("b", second)):
        j = tmp_path / f"{tag}.json"
        c = tmp_path / f"{tag}.csv"
        res.write_json(j)
        res.write_csv(c)
        blobs.append((j.read_bytes(), c.read_bytes()))
    ok = blobs[0] == blobs[1]
    acceptance_report(7, ok, f"two runs, seed {cfg.seed}: JSON and CSV "
                      f"artifacts byte-identical "
                      f"({len(blobs[0][1])} bytes of CSV)")


def test_criterion_8_field_axiom_suite(acceptance_report):
    """Exhaustive subfield axioms, exhaustive 8-bit inverse against brute
    force, and the basis-change round trip."""
    ok = True
    for a in range(4):
        for b in range(4):
            ok &= gf4_mul(a, b) == gf4_mul(b, a)
        ok &= gf4_mul(1, a) == a
        if a:
            ok &= gf4_mul(a, gf4_inv(a)) == 1
    for a in range(16):
        for b in range(16):
            ok &= gf16_mul(a, b, P) == gf16_mul(b, a, P)
        ok &= gf16_mul(1, a, P) == a
        if a:
            ok &= gf16_mul(a, gf16_inv(a, P), P) == 1
    for x in range(256):
        ok &= map_iso_inv(map_iso(x, P), P) == x
        inv = map_iso_inv(gf256_tower_inv(map_iso(x, P), P), P)
        if x == 0:
            ok &= inv == 0
        else:
            ok &= gf256_mul(x, inv) == 1
    acceptance_report(8, ok, "gf(4)/gf(16) identity, commutativity and "
                      "inverses exhaustive; gf(256) inverse and basis "
                      "round trip on all 256 bytes")
