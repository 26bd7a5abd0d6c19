"""Gate-level workbench for fault-tolerant AES S-box designs.

Builds the composite-field S-box as a verified gate netlist, cuts it
into a balanced pipeline, wraps it in duplication-with-correction,
triple-modular and triple-time redundancy schemes, and runs exhaustive
fault-injection campaigns with area/frequency/throughput reporting.
"""

__version__ = "0.1.0"

from .gf import (DEFAULT_PARAMS, FieldParams, InvalidParamsError, TowerElem,
                 affine_transform, derive_field_params, gf4_inv, gf4_mul,
                 gf16_inv, gf16_mul, gf16_square_scale, gf256_mul,
                 gf256_tower_inv, map_iso, map_iso_inv, sbox_composite,
                 sbox_reference, validate_params)
from .netlist import (CostTable, DEFAULT_COSTS, Gate, Netlist, area_ge,
                      critical_path_delay, logic_depth)
from .synth import NetlistBuilder, build_linear_block, synth_sbox
from .pipeline import (PipelineDesign, TooManyStagesError, cut_pipeline,
                       streaming_eval)
from .faults import (ComparatorSite, FaultSpec, GateSite, InvalidSiteError,
                     PERMANENT, RegisterSite, VoterLatchSite,
                     enumerate_sites)
from .redundancy import (FcDmrMachine, PlainPipelineMachine, StepRecord,
                         TmrMachine, TtrMachine, majority3, make_machine,
                         ttr_run)
from .campaign import (CampaignConfig, CampaignResult, Classification,
                       EmptyCampaignError, default_stream, golden_run,
                       run_campaign, run_scenario)
from .metrics import (MetricsRow, MissingBaselineError, ZeroBaselineError,
                      build_metrics, measure_design, overhead, render_table,
                      throughput)
