"""Driven dissipative cavity QED simulator with atomic quantum-correlation analysis."""

__version__ = "0.1.0"

from .hilbert import (  # noqa: F401
    DensityMatrix,
    HilbertLayout,
    Operator,
    annihilation,
    displacement,
    embed,
    hermitian_spectrum,
    partial_trace,
    tensor,
    trace_distance,
)
from .model import (  # noqa: F401
    DerivedParams,
    Generator,
    SystemConfig,
    apply_generator,
    build_generator,
    derived_params,
    initial_state,
)
from .dynamics import (  # noqa: F401
    SteadyStateResult,
    Trajectory,
    evolve,
    evolve_spectral,
    propagate,
    steady_state,
)
from .correlations import (  # noqa: F401
    CorrelationReport,
    FieldStats,
    XStateElements,
    concurrence,
    correlation_report,
    eof,
    field_statistics,
    purity,
    quantum_discord_bruteforce,
    quantum_discord_x,
    von_neumann_entropy,
    x_structure,
)
