"""Conservative n-particle collision process: simulation and analysis.

The package simulates the constrained velocity dynamics (random binary
elastic collisions at Levy-normalized angular rates), couples two copies
through transported collision frames, and checks the alignment inequalities
and moment bounds that control the coupling's contraction rate.
"""

from .geometry import GeometryError
from .kernels import AngularKernel, KernelError, make_kernel
from .assignment import solve_assignment, sym_distance
from .system import (
    CoupledState,
    InvariantViolation,
    TrajectoryRecord,
    align_configurations,
    equilibrium_m4,
    event_rate,
    project_to_constraint_sphere,
    sample_equilibrium,
    simulate_coupled,
    simulate_kac,
    step_coupled,
    step_kac,
    substream,
    two_temperature_initial,
)
from .analysis import (
    AnalysisError,
    DiscreteCoupledDistribution,
    InequalityReport,
    PairStatistics,
    area_decomposition,
    coupling_creation,
    counterexample_heavy_tail,
    counterexample_radial_band,
    delta4,
    fund_inequality_report,
    holder_constants,
    k_main_estimate,
    kappa,
    max_eigenvalue,
    order4_bound,
    pair_statistics,
    pathwise_weak_inequality,
    trace_inequality_report,
    weak_exponents,
    wishart_kappa_moment,
)

__version__ = "0.1.0"
