"""Cost model: overhead arithmetic against the published comparison
figures, measured orderings and bands, table rendering."""

import json

import pytest

from sboxsim.gf import DEFAULT_PARAMS
from sboxsim.metrics import (MetricsRow, MissingBaselineError,
                             ZeroBaselineError, attach_overheads,
                             build_metrics, measure_design, overhead,
                             render_table, throughput)
from sboxsim.netlist import CostTable, DEFAULT_COSTS, Gate, Netlist
from sboxsim.pipeline import cut_pipeline
from sboxsim.synth import synth_sbox


@pytest.fixture(scope="module")
def design():
    return cut_pipeline(synth_sbox(DEFAULT_PARAMS), 5)


@pytest.fixture(scope="module")
def rows(design):
    return build_metrics(design)


def by_name(rows):
    return {r.design: r for r in rows}


# ---------------------------------------------------------------------------
# Pure arithmetic regression against the published comparison table.
# Raw cells in, printed percentage cells out, within 1% absolute.
# ---------------------------------------------------------------------------

PUBLISHED_AREA = {"original": 212.42, "tmr": 673.31, "ttr": 279.02,
                  "hfs": 503.46}
PUBLISHED_AREA_PCT = {"tmr": 216.0, "ttr": 31.35, "hfs": 137.0}
PUBLISHED_FREQ = {"original": 555.0, "tmr": 525.0, "ttr": 519.0,
                  "hfs": 492.0}
PUBLISHED_FREQ_PCT = {"tmr": -5.4, "ttr": -6.4, "hfs": -11.3}
PUBLISHED_THR = {"original": 4440.0, "tmr": 4200.0, "ttr": 1384.0,
                 "hfs": 3936.0}
PUBLISHED_THR_PCT = {"tmr": -5.4, "ttr": -68.8, "hfs": -11.3}


def test_overhead_reproduces_published_area_percentages():
    base = PUBLISHED_AREA["original"]
    for name, pct in PUBLISHED_AREA_PCT.items():
        got = 100 * overhead(PUBLISHED_AREA[name], base)
        assert abs(got - pct) < 1.0, (name, got)


def test_overhead_reproduces_published_frequency_percentages():
    base = PUBLISHED_FREQ["original"]
    for name, pct in PUBLISHED_FREQ_PCT.items():
        got = 100 * overhead(PUBLISHED_FREQ[name], base)
        assert abs(got - pct) < 1.0, (name, got)


def test_overhead_reproduces_published_throughput_percentages():
    base = PUBLISHED_THR["original"]
    for name, pct in PUBLISHED_THR_PCT.items():
        got = 100 * overhead(PUBLISHED_THR[name], base)
        assert abs(got - pct) < 1.0, (name, got)


def test_published_throughputs_are_freq_times_width_over_cycles():
    cycles = {"original": 1, "tmr": 1, "ttr": 3, "hfs": 1}
    for name, thr in PUBLISHED_THR.items():
        got = throughput(PUBLISHED_FREQ[name], 8, cycles[name])
        assert abs(got - thr) < 0.5, (name, got)


def test_overhead_basics():
    assert overhead(503.46, 212.42) == pytest.approx(1.3701, abs=1e-4)
    assert overhead(7.0, 7.0) == 0.0
    assert overhead(1.0, 2.0) < 0
    with pytest.raises(ZeroBaselineError):
        overhead(1.0, 0.0)


def test_throughput_cycle_scaling():
    assert throughput(100.0, 8, 1) == pytest.approx(3 * throughput(100.0, 8, 3))


# ---------------------------------------------------------------------------
# Measured designs
# ---------------------------------------------------------------------------


def test_guarantee_flags(rows):
    r = by_name(rows)
    assert (r["original"].tolerates_transient,
            r["original"].tolerates_permanent) == (False, False)
    assert (r["hfs"].tolerates_transient,
            r["hfs"].tolerates_permanent) == (True, False)
    assert (r["tmr"].tolerates_transient,
            r["tmr"].tolerates_permanent) == (True, True)
    assert (r["ttr"].tolerates_transient,
            r["ttr"].tolerates_permanent) == (True, False)


def test_area_ordering_matches_published_table(rows):
    r = by_name(rows)
    assert (r["original"].area_ge < r["ttr"].area_ge
            < r["hfs"].area_ge < r["tmr"].area_ge)


def test_area_overhead_bands(rows):
    r = by_name(rows)
    assert 100.0 <= r["hfs"].area_overhead_pct <= 180.0
    assert 180.0 <= r["tmr"].area_overhead_pct <= 260.0
    assert r["ttr"].area_overhead_pct > 0


def test_frequency_relations(rows, design):
    r = by_name(rows)
    assert r["tmr"].max_freq <= r["original"].max_freq
    # The protected pipeline's stage is never faster than the bare one.
    hfs_stage = 1.0 / r["hfs"].max_freq
    assert hfs_stage >= design.max_stage_delay - 1e-9


def test_ttr_throughput_penalty(rows):
    r = by_name(rows)
    assert r["ttr"].cycles_per_result == 3
    assert r["ttr"].throughput == pytest.approx(r["ttr"].max_freq * 8 / 3)


def test_baseline_overheads_zero(rows):
    r = by_name(rows)
    assert r["original"].area_overhead_pct == 0.0
    assert r["original"].freq_overhead_pct == 0.0
    assert r["original"].throughput_overhead_pct == 0.0


def test_custom_cost_table_keeps_ordering(design):
    costs = CostTable(entries={**DEFAULT_COSTS.entries,
                               "XOR2": (2.0, 1.4), "XNOR2": (2.0, 1.4)},
                      register_bit_ge=6.0)
    rows = build_metrics(design, costs)
    r = by_name(rows)
    assert (r["original"].area_ge < r["ttr"].area_ge
            < r["hfs"].area_ge < r["tmr"].area_ge)


def test_buffer_rows_and_voters_are_as_wide_as_the_output_register():
    # A netlist that lists signal 2 twice as an output: its output
    # register holds two bits, which the ttr buffer rows store and the
    # tmr and ttr majority voters vote.
    gates = (Gate(2, "XOR2", (0, 1)), Gate(3, "AND2", (0, 2)))
    d = cut_pipeline(Netlist(inputs=(0, 1), outputs=(2, 2, 3), gates=gates),
                     2)
    bit = DEFAULT_COSTS.register_bit_ge
    voter = 3 * DEFAULT_COSTS.ge("AND2") + 2 * DEFAULT_COSTS.ge("OR2")
    plain = measure_design("original", d).area_ge
    assert measure_design("tmr", d).area_ge == \
        pytest.approx(3 * plain + 2 * voter)
    # Three two-bit rows, the two-bit input hold register, a phase counter.
    assert measure_design("ttr", d).area_ge == \
        pytest.approx(plain + (3 * 2 + 2 + 2) * bit + 2 * voter)


def test_missing_baseline_rejected(rows):
    no_base = [r for r in rows if r.design != "original"]
    with pytest.raises(MissingBaselineError):
        attach_overheads(no_base)


def test_renderings_agree(rows):
    csv_text = render_table(rows, "csv")
    json_text = render_table(rows, "json")
    doc = json.loads(json_text)
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "design"
    assert len(lines) == 1 + len(rows)
    for line, jrow in zip(lines[1:], doc):
        cells = line.split(",")
        for key, cell in zip(header, cells):
            assert str(jrow[key]) == cell
    text = render_table(rows, "text")
    assert "original" in text and "hfs" in text


def test_single_baseline_row_renders(design):
    row = measure_design("original", design)
    out = render_table([row], "csv")
    assert ",0.0," in out


def test_render_rejects_unknown_format(rows):
    with pytest.raises(ValueError):
        render_table(rows, "yaml")
