"""Generated netlists as a second design family: small random netlists
with every gate kind, repeated outputs and dead gates, cut into pipelines
and checked against their truth tables, the register-cut rule, the site
list and, on full small fault grids, the traced cycle loop."""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from sboxsim import pipeline
from sboxsim.campaign import golden_run
from sboxsim.faults import (MODELS, PERMANENT, RegisterSite, SCHEMES,
                            FaultSpec, VoterLatchSite, enumerate_sites)
from sboxsim.netlist import (DEFAULT_COSTS, GATES, Gate, Netlist,
                             critical_path_delay, logic_depth)
from sboxsim.pipeline import build_stage_programs, cut_pipeline, streaming_eval

from test_campaign import assert_engine_matches_trace


@st.composite
def pipelines(draw):
    """A netlist of 1-4 inputs, 1-10 gates of any kind and 1-4 outputs,
    and a stage count from its logic depth, at most 4, down to 1.  The first
    output is the last gate, so the depth is at least 1; the others may
    repeat a signal or be an input, and a gate no output reaches is
    dead."""
    n_in = draw(st.integers(1, 4), label="inputs")
    gates = []
    for gid in range(n_in, n_in + draw(st.integers(1, 10), label="gates")):
        # The first fanin is one of the two signals just before, so that
        # chains, and so deep pipelines, are common.
        kind = draw(st.sampled_from(sorted(GATES)))
        gates.append(Gate(gid, kind, (
            draw(st.integers(max(0, gid - 2), gid - 1)),
            *(draw(st.integers(0, gid - 1))
              for _ in range(GATES[kind][0] - 1)))))
    outputs = (gates[-1].id, *draw(st.lists(
        st.integers(0, gates[-1].id), max_size=3), label="more outputs"))
    netlist = Netlist(inputs=tuple(range(n_in)), outputs=outputs,
                      gates=tuple(gates))
    most = min(logic_depth(netlist), 4)
    return netlist, most - draw(st.integers(0, most - 1), label="fewer")


def bisection_level(netlist, n_stages, costs=DEFAULT_COSTS):
    """The leveled stage list as the cut found it before its exact
    search: 60 halvings of the per-stage budget between the largest gate
    delay and the critical path, each tried by one greedy pass.  None
    where that search had no feasible pass (a dead gate arriving after
    every output)."""
    delays = [0.0] * netlist.signal_count
    for g in netlist.gates:
        delays[g.id] = costs.delay(g.kind)

    def greedy(budget):
        stage = [0] * netlist.signal_count
        arrive = [0.0] * netlist.signal_count
        for g in netlist.gates:
            s, start = -1, 0.0
            for f in g.fanin:
                if stage[f] > s:
                    s, start = stage[f], arrive[f]
                elif stage[f] == s and arrive[f] > start:
                    start = arrive[f]
            a = start + delays[g.id]
            if a > budget + 1e-9:
                s += 1
                a = delays[g.id]
                if a > budget + 1e-9:
                    return None
            if s >= n_stages:
                return None
            stage[g.id] = s
            arrive[g.id] = a
        return stage

    lo, hi = max(delays), critical_path_delay(netlist, costs)
    stage = greedy(hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        attempt = greedy(mid)
        if attempt is None:
            lo = mid
        else:
            hi, stage = mid, attempt
    return stage


def small_grid(design, scheme):
    """Every site of the scheme with each model: a 1-cycle transient from
    reset (cycle 0), a 2-cycle one from cycle n + 1, once outputs flow,
    and a stuck-at permanent from n + 1.  A permanent from reset takes the
    lane path on the schemes that never stall, so they get one more; on
    hfs it runs the same stall to the cap as from n + 1, about 100 cycles
    for each run."""
    late = design.n_stages + 1
    cells = [(0, 1), (late, 2), (late, PERMANENT)]
    if not SCHEMES[scheme].stalls:
        cells.append((0, PERMANENT))
    return [FaultSpec(site, model, start, duration)
            for site in enumerate_sites(design, scheme) for model in MODELS
            for start, duration in cells
            if not (model == "flip" and duration is PERMANENT)]


@settings(derandomize=True, max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pipelines())
def test_generated_netlists_cut_stream_and_match_the_traced_run(case):
    netlist, n = case
    levels = []
    width_pass = pipeline._reduce_cut_width

    def keep_levels(netlist, delays, stage, *rest):
        levels.append(list(stage))
        return width_pass(netlist, delays, stage, *rest)

    with mock.patch.object(pipeline, "_reduce_cut_width", keep_levels):
        design = cut_pipeline(netlist, n)
    old = bisection_level(netlist, n)
    if old is not None:
        assert levels == [old]

    # Every gate in one stage, in the program of that stage.
    n_in = len(netlist.inputs)
    assert len(design.stage_of_gate) == len(netlist.gates)
    assert all(0 <= s < n for s in design.stage_of_gate)
    programs = build_stage_programs(design)
    for s, p in enumerate(programs):
        assert [g.id for g in p.gates] == [
            g.id for g in netlist.gates
            if design.stage_of_gate[g.id - n_in] == s]

    # Each signal is latched at every boundary from its producer's stage
    # to the last stage that reads it (stage n for an output), and only
    # there; the last cut is the outputs, each once, in declared order.
    stage = [0] * n_in + list(design.stage_of_gate)
    last = [n if sig in netlist.outputs else 0
            for sig in range(netlist.signal_count)]
    for g in netlist.gates:
        for f in g.fanin:
            last[f] = max(last[f], stage[g.id])
    for b in range(n - 1):
        assert design.cuts[b] == tuple(
            sig for sig in range(netlist.signal_count)
            if stage[sig] <= b < last[sig])
    assert design.cuts[-1] == tuple(dict.fromkeys(netlist.outputs))

    # The fault-free stream equals the truth table on every input, and the
    # output of the input accepted at cycle t leaves at cycle t + n.
    values = list(range(1 << n_in))
    want = [sum(bit << i for i, bit in enumerate(
        netlist.evaluate([x >> k & 1 for k in range(n_in)])))
        for x in values]
    assert streaming_eval(design, values) == want
    stream = [(3 * i + 1) % (1 << n_in) for i in range(4)]
    for scheme in SCHEMES:
        golden = golden_run(scheme, design, stream)
        passes = SCHEMES[scheme].buffer_rows or 1
        assert golden.emitted_at == [passes * (t + 1) - 1 + n
                                     for t in range(len(stream))]

        # The site list's register, buffer-row and latch widths are the
        # cut widths.
        facts = SCHEMES[scheme]
        widths = [len(c) for c in design.cuts]
        expected = {(RegisterSite, r, b): w for r in range(facts.copies)
                    for b, w in enumerate(widths
                                          + widths[-1:] * facts.buffer_rows)}
        if facts.stalls:
            expected.update({(VoterLatchSite, 0, b): w
                             for b, w in enumerate(widths)})
        got = dict.fromkeys(expected, 0)
        for site in enumerate_sites(design, scheme):
            if isinstance(site, (RegisterSite, VoterLatchSite)):
                got[type(site), getattr(site, "replica", 0), site.stage] += 1
        assert got == expected, scheme

        assert_engine_matches_trace(scheme, design, stream,
                                    small_grid(design, scheme), golden)
