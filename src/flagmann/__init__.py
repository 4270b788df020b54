"""flagmann: exact cell-count polynomials for flag varieties of quiver
subrepresentations over Dynkin quivers, verified by finite-field counts."""

from .counting import (
    count_flags,
    count_strata,
    enumerate_flags,
    sample_flags,
    stratum_counts,
)
from .errors import (
    BudgetExceededError,
    FlagmannError,
    InputError,
    InternalConsistencyError,
    UnsupportedQuiverError,
    VerificationError,
)
from .extended import (
    ExtendedQuiver,
    FiberReport,
    Rep0Representation,
    extend_quiver,
    hom_dim_rep0,
    phi,
    verify_fiber_rank,
)
from .linalg import (
    PrimeField,
    QQ,
    Rationals,
    gaussian_binomial,
)
from .poincare import (
    PoincareEngine,
    PoincarePolynomial,
    directed_order,
    engine_for,
    enumerate_splittings,
    poincare,
    rigid_dimension,
    stratum_rank,
)
from .quiver import (
    DynkinClass,
    FlagType,
    Quiver,
    classify_dynkin,
    euler_form,
    flag_differences,
    flag_types,
    load_quiver,
    parse_flag_type,
    parse_quiver,
    positive_roots,
)
from .reps import (
    Representation,
    RootMultiset,
    build_rep,
    direct_sum,
    ext1_dim,
    hom_dim,
    indecomposable_for_root,
    parse_rep_spec,
    quotient_representation,
    subrepresentation,
)

__version__ = "0.1.0"
