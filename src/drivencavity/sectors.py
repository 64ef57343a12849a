"""The names the benchmark binds in this module, until it binds them in `dynamics`.

`two_atom_steady_state` is `dynamics.steady_state`, the collective-basis
solve for every atom number; the tracer wraps it under this name.
"""

from .dynamics import coherence_block_gap, steady_state_raw  # noqa: F401
from .dynamics import steady_state as two_atom_steady_state  # noqa: F401
