"""Cost model: GE area, normalized frequency, throughput, overheads.

All four schemes are measured over the same pipelined S-box design.
Register bits, voters, comparators and majority gates use explicit
structural estimates whose unit costs come from the cost table:

  * register bit: costs.register_bit_ge (4.0 GE default)
  * hold-state voter: one MUX2 per latched bit
  * detection unit, width w: (w-1) XOR2 plus an OR reduction
  * control unit: OR tree over the per-stage error flags
  * majority voter: 3 AND2 + 2 OR2 per output-register bit

Frequency is reported in normalized units, the reciprocal of the worst
per-stage delay including the scheme's comparator/voter overhead on the
register path.  Absolute MHz belongs to a real cell library and is out
of scope; the overhead formula (cost_ft - cost_0) / cost_0 is what the
comparison table reproduces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

from .faults import scheme_facts
from .netlist import CostTable, DEFAULT_COSTS, area_ge
from .pipeline import PipelineDesign

SCHEME_ORDER = ("original", "tmr", "ttr", "hfs")


class ZeroBaselineError(ValueError):
    """A ratio over a zero cost is undefined: an overhead against a
    zero-cost baseline, or a frequency over a zero stage delay."""


class MissingBaselineError(ValueError):
    """A comparison table needs the original design as its baseline."""


def overhead(c_ft: float, c_0: float) -> float:
    """Relative cost overhead (c_ft - c_0) / c_0; negative means cheaper."""
    if c_0 == 0:
        raise ZeroBaselineError("baseline cost is zero")
    return (c_ft - c_0) / c_0


def throughput(max_freq: float, bits_per_result: int = 8,
               cycles_per_result: int = 1) -> float:
    """Bits per normalized time unit."""
    return max_freq * bits_per_result / cycles_per_result


@dataclass(frozen=True)
class MetricsRow:
    design: str
    area_ge: float
    max_freq: float
    throughput: float
    cycles_per_result: int
    tolerates_transient: bool
    tolerates_permanent: bool
    area_overhead_pct: Optional[float] = None
    freq_overhead_pct: Optional[float] = None
    throughput_overhead_pct: Optional[float] = None


def _or_tree_ge(n: int, costs: CostTable) -> float:
    return max(0, n - 1) * costs.ge("OR2")


def _or_tree_delay(n: int, costs: CostTable) -> float:
    return (math.ceil(math.log2(n)) if n > 1 else 0) * costs.delay("OR2")


def _du_ge(width: int, costs: CostTable) -> float:
    return max(0, width - 1) * costs.ge("XOR2") + _or_tree_ge(width - 1, costs)


def _du_delay(width: int, costs: CostTable) -> float:
    return costs.delay("XOR2") + _or_tree_delay(max(1, width - 1), costs)


def _maj3_ge(costs: CostTable) -> float:
    return 3 * costs.ge("AND2") + 2 * costs.ge("OR2")


def _maj3_delay(costs: CostTable) -> float:
    return costs.delay("AND2") + 2 * costs.delay("OR2")


def measure_design(scheme: str, design: PipelineDesign,
                   costs: CostTable = DEFAULT_COSTS) -> MetricsRow:
    """Area/frequency/throughput for one scheme built on this pipeline:
    its pipeline copies, then each structure of its scheme record."""
    facts = scheme_facts(scheme)
    widths = [len(c) for c in design.cuts]
    out_bits = len(design.netlist.outputs)
    # The buffer rows hold, and the voters vote, the output register's
    # word: one bit per distinct output signal.
    word_bits = widths[-1]
    area = facts.copies * (area_ge(design.netlist, costs)
                           + sum(widths) * costs.register_bit_ge)
    stage_delay = design.max_stage_delay
    if facts.buffer_rows:
        # Result buffer, input hold register, phase counter.
        area += (facts.buffer_rows * word_bits + len(design.netlist.inputs)
                 + 2) * costs.register_bit_ge
    if facts.stalls:
        # Hold-state voters, detection units, control unit.
        area += sum(widths) * costs.ge("MUX2")
        area += sum(_du_ge(w, costs) for w in widths)
        area += _or_tree_ge(design.n_stages, costs)
        stage_delay += _du_delay(max(widths), costs)
        stage_delay += costs.delay("MUX2")
    if max(facts.copies, facts.buffer_rows) == 3:
        # A majority voter over three copies or three passes.
        area += word_bits * _maj3_ge(costs)
        stage_delay += _maj3_delay(costs)

    if stage_delay == 0:
        raise ZeroBaselineError(f"{scheme} has a zero stage delay, so its "
                                f"frequency is undefined")
    freq = 1.0 / stage_delay
    cycles = facts.buffer_rows or 1
    return MetricsRow(design=scheme, area_ge=area, max_freq=freq,
                      throughput=throughput(freq, out_bits, cycles),
                      cycles_per_result=cycles,
                      tolerates_transient=facts.guarantees[0],
                      tolerates_permanent=facts.guarantees[1])


def build_metrics(design: PipelineDesign,
                  costs: CostTable = DEFAULT_COSTS) -> list[MetricsRow]:
    """Measure all four schemes and fill in overheads against the original."""
    rows = [measure_design(s, design, costs) for s in SCHEME_ORDER]
    return attach_overheads(rows)


def attach_overheads(rows: list[MetricsRow]) -> list[MetricsRow]:
    base = next((r for r in rows if r.design == "original"), None)
    if base is None:
        raise MissingBaselineError("rows do not include the original design")
    return [replace(
        r, area_overhead_pct=100 * overhead(r.area_ge, base.area_ge),
        freq_overhead_pct=100 * overhead(r.max_freq, base.max_freq),
        throughput_overhead_pct=100 * overhead(r.throughput, base.throughput))
        for r in rows]


_COLUMNS = ("design", "area_ge", "area_ovh_pct", "freq_norm", "freq_ovh_pct",
            "throughput_norm", "thr_ovh_pct", "transient_ok", "permanent_ok")


def _row_values(r: MetricsRow) -> list:
    return [r.design,
            round(r.area_ge, 2),
            round(r.area_overhead_pct, 2),
            round(r.max_freq, 6),
            round(r.freq_overhead_pct, 2),
            round(r.throughput, 6),
            round(r.throughput_overhead_pct, 2),
            r.tolerates_transient,
            r.tolerates_permanent]


def render_table(rows: list[MetricsRow], fmt: str = "text") -> str:
    """Deterministic rendering of the comparison table.

    Rows must include the original design; overheads are computed
    against it.
    """
    rows = attach_overheads(rows)
    if fmt == "json":
        doc = [dict(zip(_COLUMNS, _row_values(r))) for r in rows]
        return json.dumps(doc, indent=1)
    if fmt == "csv":
        lines = [",".join(_COLUMNS)]
        for r in rows:
            lines.append(",".join(str(v) for v in _row_values(r)))
        return "\n".join(lines) + "\n"
    if fmt == "text":
        header = ["design", "area GE", "area %", "freq", "freq %",
                  "thr", "thr %", "trans", "perm"]
        body = [[str(v) for v in _row_values(r)] for r in rows]
        widths = [max(len(header[i]), *(len(b[i]) for b in body))
                  for i in range(len(header))]
        def line(cells):
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        return "\n".join([line(header)] + [line(b) for b in body]) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
