"""Exact time-dependent quantum mechanics of a particle in a hard-wall box.

The library evaluates a closed-form solution of the Schrödinger equation built
from Jacobi theta functions, together with everything the solution carries:
the probability density and its period average, the Wigner function (a Dirac
comb in momentum), the velocity field of probability flow, hydrodynamic
moments with their conservation laws, and a Gibbs-thermodynamic layer
(partition function, mean energy, entropy, quantum potential).  Every claimed
identity is machine-checked by :mod:`thetawell.verification`.

All series are summed to a controlled truncation tolerance; no finite grids or
solvers are involved except where a check deliberately compares against
quadrature or finite differences.
"""

from .density import (
    averaged_density,
    density,
    density_derivatives,
    period,
    stationary_density,
)
from .numerics import (
    DEFAULT_TRUNCATION,
    FieldSample,
    FieldTag,
    NonIntegrableSampleError,
    Truncation,
    TruncationOverflowError,
    cutoff_for,
    integrate,
)
from .phase_space import (
    DENSITY_FLOOR,
    MomentSet,
    WignerAtom,
    WignerComb,
    flux,
    kinetic_energy_density,
    moment_law_residual,
    moment_rate,
    moments,
    pressure_gradient,
    velocity_field,
    velocity_from_vlasov,
    wigner_comb,
)
from .thermo import (
    GibbsParams,
    avg_energy_profile,
    double_avg_energy,
    entropy,
    entropy_from_factor,
    gibbs_params,
    mean_energy_gibbs,
    partition,
    partition_theta_form,
    quantum_potential,
    quantum_potential_gradient,
)
from .theta import ThetaArgs, theta1, theta_char
from .verification import CHECK_NAMES, CheckResult, run_all_checks, run_check
from .wavefunction import (
    NATURAL_UNITS,
    DerivedScales,
    QuantumState,
    SystemParams,
    derived_scales,
    norm_constant,
    psi,
    schrodinger_residual,
    stationary_psi,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CHECK_NAMES",
    "DEFAULT_TRUNCATION",
    "DENSITY_FLOOR",
    "DerivedScales",
    "FieldSample",
    "FieldTag",
    "GibbsParams",
    "MomentSet",
    "NATURAL_UNITS",
    "NonIntegrableSampleError",
    "QuantumState",
    "SystemParams",
    "ThetaArgs",
    "Truncation",
    "TruncationOverflowError",
    "WignerAtom",
    "WignerComb",
    "averaged_density",
    "avg_energy_profile",
    "cutoff_for",
    "density",
    "density_derivatives",
    "derived_scales",
    "double_avg_energy",
    "entropy",
    "entropy_from_factor",
    "flux",
    "gibbs_params",
    "integrate",
    "kinetic_energy_density",
    "mean_energy_gibbs",
    "moment_law_residual",
    "moment_rate",
    "moments",
    "norm_constant",
    "partition",
    "partition_theta_form",
    "period",
    "pressure_gradient",
    "psi",
    "quantum_potential",
    "quantum_potential_gradient",
    "run_all_checks",
    "run_check",
    "schrodinger_residual",
    "stationary_density",
    "stationary_psi",
    "theta1",
    "theta_char",
    "velocity_field",
    "velocity_from_vlasov",
    "wigner_comb",
    "__version__",
]
