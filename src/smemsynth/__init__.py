"""Application-tuned memory synthesis: macro modeling, organization search,
netlist/HDL generation, floorplanning, simulation, pixel-array mapping, and
leaf-cell layout scoring."""

from .baplus import (BAPlusMacro, BoundsError, Library, LibraryError,
                     TechParams, default_library, generate_variant,
                     load_library, save_library)
from .explorer import (ConfigError, MemoryConfig, PPAEstimate, SelectResult,
                       UserSpec, enumerate_configs, evaluate_ppa, gops_per_watt,
                       pareto_front, select_best, traditional_baseline_ppa,
                       write_report_csv)
from .floorplan import Floorplan, Rect, estimate_dimensions, realize
from .leafcell import (GridLayout, LayoutError, Shape, check_restrictions,
                       count_constructs, fin_efficiency, load_cell,
                       power_rail_efficiency, transistor_efficiency)
from .netlist import (Cell, Net, NetlistError, NetlistIR, check_wellformed,
                      emit_hdl, emit_netlist, generate_sram, parse_netlist)
from .pa import (PAComparison, PAError, PAWindowSpec, axis_plans,
                 check_budget, check_plans, compare_pa_ppa, generate_pa,
                 window_planner)
from .sim import (SimError, SimResult, SimTrace, TraceError, TraceFile,
                  Warnings, energy_report, simulate, verify_pa)

__version__ = "0.1.0"
