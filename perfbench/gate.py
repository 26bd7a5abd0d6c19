"""Correctness gate: the design oracle and the recorded reference rows.

A row is (site, model, duration, start, classification, stalls), read by
column name from the CSV the campaign wrote, so added columns do not
count as mismatches.  The references were recorded from the library at
the commit that introduced this benchmark, one file per workload and
published seed, and are the full-grid oracle that any faster engine must
reproduce.
"""

from __future__ import annotations

import csv
import json
import lzma
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from sboxsim.gf import sbox_reference
from sboxsim.pipeline import streaming_eval

ROW_COLUMNS = ("site", "model", "duration", "start", "classification",
               "stalls")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Outcome:
    """One campaign's result as the benchmark checks it."""

    rows: list            # tuples of strings, one per ROW_COLUMNS
    total: int
    counts: dict
    golden_cycles: int


def design_problems(netlist, design) -> list[str]:
    """Compare the netlist and the fault-free pipeline with the published
    S-box on all 256 bytes; an empty list means both match."""
    table = [sbox_reference(x) for x in range(256)]
    problems = []
    if [netlist.evaluate_byte(x) for x in range(256)] != table:
        problems.append("netlist.evaluate_byte differs from sbox_reference")
    if streaming_eval(design, range(256)) != table:
        problems.append("streaming_eval differs from sbox_reference")
    return problems


def read_rows(csv_path) -> list[tuple]:
    """The result rows of a campaign CSV, restricted to ROW_COLUMNS."""
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [tuple(rec[c] for c in ROW_COLUMNS) for rec in reader]


def reference_path(workload: str, campaign_seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{campaign_seed}.json.xz"


def load_reference(workload: str, campaign_seed: int) -> dict:
    """{campaign name: {"total", "counts", "golden_cycles", "rows"}}."""
    with lzma.open(reference_path(workload, campaign_seed), "rt") as fh:
        doc = json.load(fh)
    for ref in doc["campaigns"].values():
        ref["rows"] = [tuple(r) for r in csv.reader(ref.pop("rows_csv")
                                                    .splitlines())]
    return doc["campaigns"]


def write_reference(workload: str, campaign_seed: int, outcomes: dict) -> None:
    """Record {name: Outcome} as the reference rows of a published seed."""
    campaigns = {}
    for name, out in outcomes.items():
        lines = [",".join(row) for row in out.rows]
        campaigns[name] = {"total": out.total, "counts": out.counts,
                           "golden_cycles": out.golden_cycles,
                           "rows_csv": "\n".join(lines) + "\n"}
    doc = {"workload": workload, "seed": campaign_seed,
           "columns": list(ROW_COLUMNS), "campaigns": campaigns}
    path = reference_path(workload, campaign_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    path.write_bytes(lzma.compress(text.encode(),
                                   preset=9 | lzma.PRESET_EXTREME))


def read_outcome(csv_path, json_path, golden_cycles: int) -> Outcome:
    """What a campaign produced, read back from the files it wrote."""
    with open(json_path) as fh:
        doc = json.load(fh)
    return Outcome(read_rows(csv_path), doc["total"], doc["counts"],
                   golden_cycles)


def failed_rows(ref: dict, out: Optional[Outcome]) -> int:
    """Scenarios of one campaign that count as failed against its reference.

    out is None when the campaign raised: then every row it should have
    produced failed.  So does every row when the result's totals disagree
    with its own rows or the golden run's length differs.  Otherwise each
    reference row that differs or is missing failed, as does each extra
    row, and at least one if the class counts differ.
    """
    expected = ref["rows"]
    if out is None:
        return len(expected)
    kinds = Counter(row[4] for row in out.rows)
    consistent = (out.total == len(out.rows)
                  and sum(out.counts.values()) == out.total
                  and all(out.counts.get(k, 0) == n for k, n in kinds.items()))
    if not consistent or out.golden_cycles != ref["golden_cycles"]:
        return len(expected)
    failed = sum(1 for got, want in zip(out.rows, expected) if got != want)
    failed += abs(len(expected) - len(out.rows))
    if out.counts != ref["counts"]:
        failed = max(failed, 1)
    return min(failed, len(expected))
