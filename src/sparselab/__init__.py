"""Multilinear sparse operators, Muckenhoupt weights and weighted-norm
certification on periodic dyadic grids."""

from .grid import (
    DimensionError,
    DomainError,
    DyadicCube,
    FormatError,
    GridFunction,
    average,
    dilate,
    read_gfn,
    rearrangement,
    root_cube,
    weak_norm,
    weighted_norm,
    write_gfn,
)
from .weights import (
    ConstantReport,
    WeightTuple,
    ap_constant,
    dual_weights,
    duality_inequality_check,
    multi_ap_constant,
    power_weight,
    rh_constant,
)
from .oscillation import lerner_decompose, local_osc, median, osc_profile
from .sparse import (
    CarlesonSequence,
    CZDecomposition,
    SparseFamily,
    SparsityError,
    beta_sequence,
    carleson_embedding_check,
    cz_decompose,
    dominate,
    dyadic_maximal,
    eval_sparse_A,
    eval_sparse_T,
    greedy_witness,
    measure_weak_norm,
    select_sparse,
    slice_scales,
    verify_carleson,
    verify_sparse,
)
from .kernels import (
    BilinearMultiplierOperator,
    H2Report,
    HilbertOperator,
    KernelSample,
    LinearMultiplierOperator,
    Symbol,
    apply_bilinear_multiplier,
    apply_linear_multiplier,
    check_h2,
    check_hormander_bilinear,
    check_msl,
    hilbert_kernel,
    hilbert_transform,
    kernel_from_symbol,
)
from .certify import (
    CertificationRecord,
    beta_exponent,
    certify_buckley,
    certify_theorem_a,
    certify_theorem_b,
    certify_theorem_c,
    sweep,
)

__version__ = "0.1.0"
