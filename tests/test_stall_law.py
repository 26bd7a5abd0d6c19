"""The paper's stall rule as a law on full hfs grids.

The abstract says that on a detected fault "the control unit holds the
output of our proposed DMR voter till the fault effect disappears", for
transients "with any duration".  Acceptance 3 checks the outcome (no sdc,
nothing uncorrected); this module checks the mechanism: each hfs row
that the machine gives equals the row computed from the golden run and
the stage programs alone, with no machine.

The law, for one fault with window [a, e) on a golden run of G cycles:
let c be the first cycle in [a, e) at which the fault changes what the
machine reads,

  * a gate in stage s: the stage's masked result for that cycle's golden
    stage-input word differs from its clean one, with c < G - 1 (at
    G - 1 the run has ended);
  * a register bit: the faulted read differs from the stored word, with
    c < G;
  * a comparator: its output is forced high, from c = a.

With no such c the row is masked; a voter-latch fault alone is never
read, so it is masked too.  Otherwise it is detected_corrected with
max(e, c + 1) - c stall cycles, and a permanent is detected_uncorrected
with cap - c - 1 stalls for a gate and cap - c otherwise, where
cap = G + 96.

The one exception is a register stuck-at from cycle 0.  The machine then
holds the reset state, which no computation produced; a stall re-executes
from the latches and the held input, so a stalled cycle 0 computes new
words and changes the stored bit, and the machine stalls for fewer
cycles than the law says.  Those rows are listed below with the
machine's stall counts, not skipped.
"""

from math import inf

import pytest

from sboxsim.campaign import (DETECTED_CORRECTED, DETECTED_UNCORRECTED,
                              MASKED, CampaignConfig, enumerate_scenarios,
                              golden_run, run_campaign, run_scenario,
                              stage_programs)
from sboxsim.faults import (PERMANENT, ActiveFault, ComparatorSite,
                            FaultSpec, GateSite, RegisterSite,
                            VoterLatchSite, parse_site)
from sboxsim.gf import DEFAULT_PARAMS
from sboxsim.pipeline import cut_pipeline
from sboxsim.synth import synth_sbox

_CAP_EXTRA = 96     # the cycles a run may take past the golden run


def stall_law(design, golden, stream, spec) -> tuple:
    """The (class, stall cycles) the law gives a lone hfs fault, from the
    golden run's states and the stage programs (module docstring)."""
    fault = ActiveFault(spec, design, "hfs")
    cycles = golden.cycles
    site = spec.site
    a = spec.start_cycle
    e = inf if spec.duration is PERMANENT else a + spec.duration
    c = None
    if site.kind == "comparator":
        c = a if fault.du_apply(site.stage, False) else None
    elif site.kind == "gate":
        s = design.stage_of_gate[site.gate_id - len(design.netlist.inputs)]
        program = stage_programs(design)[s]
        overrides = fault.gate_overrides(s, site.replica)
        for cyc in range(a, min(e, cycles - 1)):
            regs, _, _, _, held, consumed, _ = golden.states[cyc]
            # A golden cycle never stalls: stage 0 reads the offered byte,
            # or the held one once the stream is used up.
            word = (regs[s - 1] if s else stream[consumed]
                    if consumed < len(stream) else held)
            if program.interp(word, overrides) != program.clean(word):
                c = cyc
                break
    elif site.kind == "register":
        for cyc in range(a, min(e, cycles)):
            word = golden.states[cyc][0][site.stage]
            if fault.reg_read(site.replica, site.stage, word) != word:
                c = cyc
                break
    if c is None:
        return MASKED, 0
    if e == inf:
        return (DETECTED_UNCORRECTED,
                cycles + _CAP_EXTRA - c - (site.kind == "gate"))
    return DETECTED_CORRECTED, max(e, c + 1) - c


def assert_rows_follow_stall_law(design, config, result, exceptions=None):
    """Every row of an hfs campaign is the law's, except the rows named in
    exceptions, {spec text: (class, stalls)}, which must be the machine's
    and must differ from the law's."""
    stream = config.resolved_stream()
    golden = golden_run("hfs", design, stream)
    specs = enumerate_scenarios(design, config)
    assert len(specs) == len(result.rows)
    off = {}
    for spec, row in zip(specs, result.rows):
        if stall_law(design, golden, stream, spec) != row[4:]:
            off[str(spec)] = row[4:]
    assert off == (exceptions or {})


# The machine's stall counts for the register stuck-ats from cycle 0 that
# the law does not describe: sa1 on output-register bits 0, 1, 5 and 6 of
# either replica, for durations 2, 5 and 10 and for a permanent fault.  The
# law gives the window's length, and the cap less cycle 0 (613).  Duration
# 1, sa0 and every other register bit follow the law.
CYCLE_0_EXCEPTIONS = {
    f"reg:4:{bit}:r{replica}": stalls
    for replica in (0, 1)
    for bit, stalls in ((0, (1, 1, 4, 607)), (1, (1, 1, 4, 607)),
                        (5, (1, 1, 1, 601)), (6, (1, 1, 1, 600)))}


def cycle_0_exceptions(durations) -> dict:
    """The listed exceptions among sa1 faults of these durations."""
    column = {2: 0, 5: 1, 10: 2, PERMANENT: 3}
    return {f"{site}:sa1:@0+{'perm' if d is PERMANENT else d}":
            (DETECTED_CORRECTED if d is not PERMANENT
             else DETECTED_UNCORRECTED, stalls[column[d]])
            for site, stalls in CYCLE_0_EXCEPTIONS.items()
            for d in durations if d in column}


@pytest.fixture(scope="module")
def design():
    return cut_pipeline(synth_sbox(DEFAULT_PARAMS), 5)


def test_stall_law_holds_for_comparators_and_voter_latches(design):
    cfg = CampaignConfig(scheme="hfs", site_kinds=("comparator",
                                                   "voter_latch"),
                         models=("sa0", "sa1", "flip"), durations=(1, 3, 20))
    assert_rows_follow_stall_law(design, cfg, run_campaign(design, cfg))


def test_register_stuck_ats_from_reset_are_the_listed_exceptions(design):
    # Every register stuck-at from cycle 0 of durations 2 and 5 follows
    # the law but the listed ones (durations 1 and 10 are checked with the
    # stuck-at grid in test_campaign.py).
    cfg = CampaignConfig(scheme="hfs", site_kinds=("register",),
                         models=("sa0", "sa1"), durations=(2, 5),
                         start_cycles=(0,))
    assert_rows_follow_stall_law(design, cfg, run_campaign(design, cfg),
                                 cycle_0_exceptions((2, 5)))


def test_stall_law_holds_for_permanents(design):
    # Permanents stall until the cap, from their first read of the fault;
    # the listed cycle-0 exceptions stall less.
    stream = CampaignConfig(scheme="hfs").resolved_stream()
    golden = golden_run("hfs", design, stream)
    gate = design.netlist.gates[60].id
    specs = [FaultSpec(GateSite(gate, 0), "sa1", 3, PERMANENT),
             FaultSpec(GateSite(gate, 1), "sa0", 3, PERMANENT),
             FaultSpec(RegisterSite(2, 1, 1), "sa0", 7, PERMANENT),
             FaultSpec(ComparatorSite(2), "sa1", 5, PERMANENT),
             FaultSpec(ComparatorSite(2), "sa0", 5, PERMANENT),
             FaultSpec(VoterLatchSite(2, 1), "sa1", 5, PERMANENT)]
    specs += [FaultSpec(parse_site(site), model, 0, PERMANENT)
              for site in CYCLE_0_EXCEPTIONS for model in ("sa0", "sa1")]
    off = {}
    for spec in specs:
        cls, _ = run_scenario("hfs", design, stream, spec, golden)
        if stall_law(design, golden, stream, spec) != \
                (cls.kind, cls.stall_cycles):
            off[str(spec)] = (cls.kind, cls.stall_cycles)
    assert off == cycle_0_exceptions([PERMANENT])
