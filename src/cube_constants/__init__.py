"""Exact and approximate constants of function spaces on the Boolean cube:
projection constants, Sidon constants, and their Hermite-moment limits."""

from .combinatorics import (
    BecknerFit,
    PowerIdentityReport,
    beckner_coefficients,
    c_coefficient,
    c_coefficient_bounds,
    level_sum_at,
    verify_power_identity,
)
from .core import (
    CubeError,
    FamilySpecError,
    SizeGuardError,
    SubsetMask,
    SupportFamily,
    WalshPolynomial,
    family_explicit,
    family_full,
    family_homogeneous,
    family_prime_singletons,
    family_squarefree,
    family_upto,
    make_family,
    primes_upto,
)
from .hermite import (
    RationalPolynomial,
    hermite_poly,
    hermite_roots,
    larsson_cohn_ratio,
    limit_constant,
    normalized_limit_constant,
    p_poly,
)
from .projection import (
    ClosedForms,
    McEstimate,
    PrimeSingletonReport,
    SquarefreeReport,
    haagerup_lambda,
    lambda_closed_forms,
    lambda_exact,
    lambda_level_exact,
    lambda_mc,
    lambda_of_spec,
    prime_singleton_report,
    squarefree_mc,
)
from .sidon import (
    Bgl3Report,
    DensityReport,
    KszReport,
    SidonResult,
    bh_functional,
    check_sidon_projection_bound,
    kappa_constant,
    ksz_signs,
    lp_maximize,
    sidon_density_bounds,
    sidon_exact,
)
from .verify import (
    BoundsReport,
    check_desigforo,
    check_homog_vs_upto,
    check_klimek,
    check_range_bounds,
    mckay_constant,
    run_suite,
    szarek_y_bounds,
    y_function,
)

__version__ = "0.1.0"
