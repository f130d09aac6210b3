"""Moving small cell over a stationary traffic hotspot: radio-level throughput
CCDFs, Manhattan trajectories, coupled processor-sharing flow simulation and
the matching closed-form queueing analysis."""

from mobicell.geometry import CellLayout, PolarPoint, disk_radius, distance
from mobicell.radio import RadioParams, shannon_rate, interference_factor
from mobicell.hotspot import HotspotSpec
from mobicell.mobility import ManhattanGrid, MobilityPolicy, generate_trajectory
from mobicell.ccdf import CcdfCurve, ClassProfile, macro_ccdf, small_ccdf, macro_only_ccdf, extract_classes
from mobicell.flowsim import TrafficSpec, TransitionRates, simulate, empirical_metrics
from mobicell.analytic import (CoupledLoads, coupled_loads_fixed_point, estimate_transition_rates,
                               stationary_static, stationary_mobile)

__version__ = "0.1.0"
