"""Workload definitions for the campaign benchmark.

Every workload is a list of named campaigns, built only from the seed.
The benchmark publishes reference rows for a fixed set of campaign seeds;
`--seed n` selects published seed number n modulo their count, so seed 0
is DEFAULT_SEED and gives Acceptance 3's and 4's grids.  The seed sets the
input stream of every campaign.  Sampled campaigns draw their sample with
DEFAULT_SEED whatever the seed, so that every seed runs the same scenario
list: a sample drawn per seed changed the work of late_fault_stream by up
to 20% between seeds (its mean start cycle ranged from 943 to 1153 over
seeds 0..9), more than the benchmark's bounds allow on top of host noise.

  hfs_transient            Acceptance 3's exhaustive hfs transient grid:
                           short scenarios that all splice, so per-scenario
                           fixed cost dominates.
  permanent_fixed_latency  Acceptance 4's permanent grids for the three
                           fixed-latency schemes: no scenario splices, every
                           one runs the whole stream through the faulted
                           (interp) stage path.
  late_fault_stream        hfs transients started late in a long stream: most
                           cycles are the clean prefix, the golden run is
                           four times longer, and each sampled site appears
                           about once.
"""

from __future__ import annotations

import random

from sboxsim.campaign import DEFAULT_SEED, CampaignConfig, default_stream

WORKLOADS = ("hfs_transient", "permanent_fixed_latency", "late_fault_stream")
PUBLISHED_SEEDS = tuple(DEFAULT_SEED + i for i in range(16))
N_STAGES = 5

# Sample sizes give tmr and ttr about the same host time as the full
# 430-scenario original grid (about 30 ms and 50 ms per scenario against
# 14 ms on 2 CPUs with Python 3.11).
TMR_PERMANENT_SAMPLE = 200
TTR_PERMANENT_SAMPLE = 120

LATE_STREAM_LEN = 2048
LATE_SAMPLE = 150
# 16 evenly spaced start cycles, each in the middle of its sixteenth of the
# stream, so every scenario has a clean prefix before its fault.
LATE_STARTS = tuple(range(LATE_STREAM_LEN // 32, LATE_STREAM_LEN,
                          LATE_STREAM_LEN // 16))


def campaign_seed(seed: int) -> int:
    """The published campaign seed that benchmark seed `seed` selects."""
    return PUBLISHED_SEEDS[seed % len(PUBLISHED_SEEDS)]


def late_stream(seed: int) -> bytes:
    """The 2,048-byte input stream of late_fault_stream for a campaign
    seed."""
    return random.Random(seed).randbytes(LATE_STREAM_LEN)


def campaigns(workload: str, seed: int) -> list[tuple[str, CampaignConfig]]:
    """The (name, config) pairs a workload runs, in order, for a benchmark
    seed.  A pure function of its arguments."""
    s = campaign_seed(seed)
    if workload == "hfs_transient":
        return [("hfs", CampaignConfig(scheme="hfs", fault_class="transient",
                                       durations=(1, 2, 5, 10), seed=s))]
    if workload == "permanent_fixed_latency":
        stream = default_stream(s)
        return [
            ("original", CampaignConfig(scheme="original",
                                        fault_class="permanent", seed=s)),
            ("tmr", CampaignConfig(scheme="tmr", fault_class="permanent",
                                   stream=stream, sample=TMR_PERMANENT_SAMPLE,
                                   seed=DEFAULT_SEED)),
            ("ttr", CampaignConfig(scheme="ttr", fault_class="permanent",
                                   site_kinds=("gate",), stream=stream,
                                   sample=TTR_PERMANENT_SAMPLE,
                                   seed=DEFAULT_SEED)),
        ]
    if workload == "late_fault_stream":
        return [("hfs", CampaignConfig(scheme="hfs", fault_class="transient",
                                       durations=(1, 5),
                                       start_cycles=LATE_STARTS,
                                       stream=late_stream(s),
                                       sample=LATE_SAMPLE,
                                       seed=DEFAULT_SEED))]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose one of {', '.join(WORKLOADS)}")
