"""Driven dissipative cavity QED simulator with atomic quantum-correlation analysis."""

import os

# One BLAS thread unless the caller chose a count: the many small dense products
# run faster so, and a table's last digits depend on the thread count.  Set
# before numpy loads, which reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .hilbert import (  # noqa: F401
    DensityMatrix,
    HilbertLayout,
    annihilation,
    partial_trace,
    trace_distance,
)
from .model import (  # noqa: F401
    DerivedParams,
    Generator,
    SystemConfig,
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
