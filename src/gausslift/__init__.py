"""gausslift: phase-exact composition of inhomogeneous Gaussian unitaries.

Represents a Gaussian unitary as a lifted triple (M, z, Psi) over a Kähler
structure, composes triples with the exact inhomogeneous cocycle, lifts
quadratic Hamiltonians (h, f, c) to triples, and verifies every phase formula
against a truncated Fock-space oracle.
"""

from .errors import (
    GaussLiftError,
    InputError,
    NumericalDomainError,
)
from .matfunc import (
    complex_det,
    imag_trace_log,
    mat_exp,
    mat_sqrt_principal,
    phi1_entire,
    wrap_angle,
)
from .phase_space import (
    KahlerStructure,
    Species,
    delta_y_z,
    split_cd,
    standard_kahler,
    validate_group_element,
)
from .metaplectic import (
    LiftedSymplectic,
    circle_function,
    cocycle_eta,
    mp_lift,
    mp_multiply,
)
from .inhomogeneous import (
    Displacement,
    LiftedGaussian,
    disp_multiply,
    displacement_to_gaussian,
    gamma_phase,
    ig_decompose,
    ig_identity,
    ig_inverse,
    ig_multiply,
    zeta_cocycle,
)
from .generator import (
    QuadraticHamiltonian,
    gqh_overlap_analytic,
    lift_from_gqh,
    sigma_map,
    vacuum_phase_stable,
    vacuum_phase_tracked,
    z_from_hf,
)
from .fock import (
    FockRep,
    build_fock,
    mean_excitation,
    number_expectation,
    number_expectation_analytic,
    truncation_reliable,
    truncation_reliable_pair,
    vacuum_amplitude_gqh,
    zeta_numeric,
)
from .fermion import (
    MajoranaRep,
    build_majorana,
    fermion_vacuum_amplitude,
    mw_reflection,
    pin_component_phase,
    reference_reflection,
    so_generator,
)

__version__ = "0.1.0"
