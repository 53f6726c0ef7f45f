"""Traffic emission modeling and multi-objective speed-limit optimization.

The package couples a macroscopic traffic network model (Godunov finite
volumes with junction coupling and access queues), an emission raster on a
2D control area, and an advection-diffusion dispersion model whose adjoint
makes the pollution objective cheap to re-evaluate.  On top sits a
derivative-free Pareto-front search over box-constrained speed limits.
"""

__version__ = "0.1.0"

from tramopt.network import Scenario, load_scenario, validate_scenario

__all__ = [
    "Scenario",
    "load_scenario",
    "validate_scenario",
    "__version__",
]
