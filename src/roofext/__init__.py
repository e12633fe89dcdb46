"""Exact homological algebra over finite-dimensional algebras.

Modules, complexes, Ext groups via free resolutions, Yoneda products,
roof-style derived-category morphisms, and closed-form sheaf cohomology
tables on projective spaces — all in exact arithmetic over Q or F_p.
"""

from .errors import (
    AmbiguousChaseError,
    DegenerateFiltrationError,
    InvariantError,
    MiddleMismatchError,
    NotSubmoduleError,
    SchemaError,
    UnsupportedEndpointsError,
)
from .linalg import (
    GF,
    QQ,
    Field,
    Mat,
    field_from_name,
    kernel_basis,
    rank,
    rref,
    solve,
)
from .algebra import (
    Algebra,
    Filtration,
    Module,
    ModuleHom,
    bound_quiver_algebra,
    direct_sum,
    free_module,
    hom_space,
    quiver_simple,
    random_bound_quiver_algebra,
    submodule,
    submodule_quotient,
    trivial_algebra,
    truncated_polynomial_algebra,
    vector_space_module,
)
from .complexes import (
    ChainMap,
    CohomologyData,
    Complex,
    Homotopy,
    QuasiIsoReport,
    cohomology,
    cone,
    find_homotopy,
    inner_hom,
    is_quasi_iso,
    shift,
    zero_module,
)
from .ext import (
    ExtElement,
    ExtensionSeq,
    class_of_extension,
    ext0_from_hom,
    ext_element_from_images,
    ext_group,
    extension_from_class,
    free_resolution,
    is_trivial,
    splice,
    yoneda_product,
)
from .roofs import (
    Roof,
    compose_roofs,
    filtration_sequences,
    filtration_two_class,
    identity_roof,
    roof_equal,
    ses_to_roof,
    to_ext_class,
    zero_roof,
)
from .projcoh import (
    CohTable,
    SheafDescriptor,
    binom,
    chi_line,
    cohomology_table,
    dim_graded_piece,
    euler_chase,
    h_line,
    h_omega,
    kunneth,
    parse_sheaf,
    prop2_report,
    segre_push_table,
    serre_dual_check,
)

__version__ = "0.1.0"
