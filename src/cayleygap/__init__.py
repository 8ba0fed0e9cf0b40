"""Spectral gaps of Cayley graphs on finite groups.

Dense and representation-block Laplace spectra, nonabelian Fourier analysis,
machine-checked gap bounds (diameter, basis, exceptional-set, progression and
Bohr-set characterizations), Bohr-set calculus, and seeded extremal-set
experiments with deterministic reports.
"""

from .bohr import (
    InclusionReport,
    LargeSpectrum,
    Progression,
    bohr_doubling_check,
    bohr_set,
    bohr_sets_from_gap,
    bohr_size_thresholds,
    bohr_sum_rule_check,
    bohr_tail_check,
    check_bohr_eps_size,
    check_bohr_half_size,
    convolution_share,
    find_covering_interval,
    find_regular,
    gap_from_bohr_sets,
    gap_from_progressions,
    is_prime,
    is_regular,
    large_spectrum,
    large_spectrum_product_check,
    multi_bohr_lower_bound_check,
    normal_subgroup_min_index,
    progressions_from_gap,
    progressions_from_gap_certified,
    regular_spectrum_check,
    ruzsa_covering,
    verify_bohr_basis_bound,
    verify_bohr_basis_bound_certified,
    verify_progression_basis_bound,
)
from .bounds import (
    BoundReport,
    RegularGraph,
    basis_bound_value,
    diameter_bound_value,
    exceptional_bound_value,
    exceptional_set,
    graph_lambda1,
    graph_paths,
    pair_rep_count,
    rep_count,
    symmetrized_rep_count,
    verify_basis_bound,
    verify_diameter_bound,
    verify_exceptional_bound,
    verify_exceptional_bound_pair,
    verify_exceptional_bound_star,
    verify_fourier_norm_bound,
    verify_graph_bound,
    verify_uniformity,
)
from .errors import *  # noqa: F401,F403 -- small, explicit exception module
from .experiments import (
    EXPERIMENTS,
    run_additive_basis,
    run_interval_union,
    run_sidon,
    run_triple_free,
)
from .groups import (
    AbelianProductGroup,
    CyclicGroup,
    DihedralGroup,
    FiniteGroup,
    GroupFunction,
    GroupSubset,
    TableGroup,
    convolve,
    diameter,
    inverse_set,
    iterated_convolution,
    kth_roots,
    make_group,
    permutation_closure,
    power_set,
    product_set,
)
from .reports import emit_report
from .representations import (
    FourierCoefficient,
    IrrepCatalog,
    UnitaryRepresentation,
    d_min,
    fourier_all,
    fourier_transform,
    inverse_fourier,
    irrep_catalog,
    set_norm,
)
from .spectra import (
    SpectrumReport,
    WalkEnergyReport,
    balanced_function,
    cluster_eigenvalues,
    lambda1,
    lambda1_of_function,
    lambda1_star,
    laplace_spectrum_blocks,
    laplace_spectrum_dense,
    markov_matrix,
    multiset_distance,
    multiset_key,
    walk_energy,
)

__version__ = "0.1.0"
