"""Gate-level workbench for fault-tolerant AES S-box designs.

Builds the composite-field S-box as a verified gate netlist, cuts it
into a balanced pipeline, wraps it in duplication-with-correction,
triple-modular and triple-time redundancy schemes, and runs exhaustive
fault-injection campaigns with area/frequency/throughput reporting.

The package top re-exports what the demos use; everything else is
imported from its submodule (`sboxsim.campaign`, `sboxsim.faults`, ...).
"""

__version__ = "0.1.0"

from .gf import (DEFAULT_PARAMS, affine_transform, gf16_inv, gf16_mul,
                 gf16_square_scale, gf256_mul, map_iso, map_iso_inv,
                 sbox_composite, sbox_reference)
from .netlist import DEFAULT_COSTS, area_ge, critical_path_delay, logic_depth
from .synth import synth_sbox
from .pipeline import cut_pipeline, streaming_eval
from .faults import FaultSpec, GateSite
from .campaign import CampaignConfig, run_campaign, run_scenario
from .metrics import build_metrics, render_table
