"""Equal-angle spin Wigner functions for small cyclic spin-1/2 chains.

The package computes ground states of transverse-field Ising, anisotropic XY
and XXZ rings by dense diagonalization, evaluates displaced-parity Wigner
functions of the full and reduced states, sweeps couplings to produce phase
lines, and detects derivative extrema and symmetry-sector level crossings with
the jumps across them.
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalError, PolicyError, SpinPhaseError
from .qcore import label_name, parse_label, reduced_factor, validate_label
from .models import (GroundStateResult, ModelSpec, build_hamiltonian, ground_state,
                     spin_parity_diagonal, staggered_flip_diagonal, ti_classical_energy,
                     ti_classical_mx, ti_classical_mz, ti_thermo_energy, ti_thermo_mx,
                     ti_thermo_mz, total_sz_diagonal, xy_factorization_angle,
                     xy_factorization_point)
from .wigner import (SphereGrid, bloch_factors, equal_angle_values, kernels,
                     phase_point_values, reconstruct_density, reference_state, sphere_field,
                     wigner_values)
from .analysis import (CriticalPoint, PhaseLine, SweepConfig, canonical_labels,
                       count_sign_changes, factorization_value_check,
                       find_derivative_extrema, find_sector_crossings, first_derivative,
                       sweep)

__all__ = [
    "__version__",
    "ConfigError", "NumericalError", "PolicyError", "SpinPhaseError",
    "reduced_factor",
    "validate_label", "label_name", "parse_label",
    "ModelSpec", "GroundStateResult", "build_hamiltonian", "ground_state",
    "spin_parity_diagonal", "staggered_flip_diagonal", "total_sz_diagonal",
    "ti_classical_energy", "ti_classical_mx", "ti_classical_mz",
    "ti_thermo_energy", "ti_thermo_mx", "ti_thermo_mz",
    "xy_factorization_point", "xy_factorization_angle",
    "kernels", "bloch_factors", "wigner_values", "equal_angle_values", "phase_point_values",
    "SphereGrid", "sphere_field", "reference_state", "reconstruct_density",
    "SweepConfig", "PhaseLine", "CriticalPoint", "canonical_labels", "sweep",
    "first_derivative", "find_derivative_extrema", "find_sector_crossings",
    "factorization_value_check", "count_sign_changes",
]
