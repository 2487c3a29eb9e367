"""Exact symbolic computation for quivers: the necklace Lie algebra, its
quantum path algebra, and Weyl operators on representation spaces, with
trace maps connecting the two sides and exact verification of the
commuting squares between them."""

from .errors import (
    CompositionError,
    DimensionError,
    ExpressionError,
    MismatchError,
    QuiverFormatError,
    WorkLimitError,
)
from .necklace import (
    GaugeExpression,
    HH0Element,
    MomentData,
    Necklace,
    TensorElement,
    canonical_necklace,
    double_bracket,
    idempotent_class,
    make_gauge_expression,
    moment_map,
    natural_projection,
    necklace_bracket,
    necklace_key,
    xi,
)
from .quiver import (
    Arrow,
    Letter,
    Path,
    PathAlgebraElement,
    Quiver,
    make_dimension_vector,
    make_path,
    make_quiver,
    parse_quiver,
    path_mul,
    serialize_quiver,
)
from .repspace import (
    BlockMatrix,
    GlElement,
    IdealDecomposition,
    PolyElement,
    WeylElement,
    classical_symbol,
    gauge_act,
    gl_basis,
    gl_commutator,
    moment_block_matrix,
    poisson,
    quantum_moment,
    tau,
    tau_kernel,
    weyl_commutator,
    weyl_mul,
)
from .rings import HBarPolynomial
from .schedler import (
    HeightConfiguration,
    QPAElement,
    ReductionParameters,
    SymElement,
    canonical_configuration,
    ideal_generator,
    is_canonical,
    lift,
    lift_necklace,
    make_configuration,
    make_params,
    make_sym_monomial,
    moment_lift,
    project,
    qpa_comm,
    qpa_mul,
    straighten,
)
from .trace import (
    Character,
    VerificationReport,
    block_matrix,
    chi_sign_variants,
    decompose_ideal_image,
    kernel_constraint,
    path_matrix_entry,
    solve_chi,
    trace_classical,
    trace_quantum,
    trace_quantum_config,
    verify_cubic,
    verify_equivariance,
    verify_quantum_moment,
    verify_trace_homomorphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
