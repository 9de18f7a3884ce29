"""gapsets: exact enumeration of gapsets via Kunz coordinates and tilings.

A gapset is the (finite) set of gaps of a numerical semigroup.  The
package classifies gapsets and m-extensions, moves between sets and their
Kunz coordinate vectors, identifies genus-g objects with tilings of a
1 x g board, counts them exhaustively by genus / depth / multiplicity, and
evaluates the known closed formulas and bounds against that census.
"""

from .census import (
    CensusQuery,
    CensusResult,
    census_histograms,
    count_depth3_family,
    count_gapsets,
    count_gapsets_depth_at_most,
    enumerate_depth3_family,
)
from .core import (
    GapSet,
    GapsetRejection,
    MExtension,
    MExtensionRejection,
    as_elements,
    classify_gapset,
    classify_m_extension,
    invariants,
)
from .formulas import (
    DepthWindow,
    FormulaAnswer,
    depth_window,
    f_gq,
    f_gq3,
    f_gq4,
    lower_bound_depth3,
    upper_bound_ng,
    upper_bound_ng_closedN,
)
from .kunz import (
    AperySet,
    KunzVector,
    from_kunz,
    kunz_system_violation,
    pseudo_apery,
    pseudo_kunz,
    satisfies_kunz_system,
)
from .sequences import fibonacci, fibonacci_k, padovan, padovan_fibonacci_convolution
from .tilings import (
    compositions_fixed_parts,
    count_compositions,
    enumerate_compositions,
    sigma,
    sigma_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "AperySet",
    "CensusQuery",
    "CensusResult",
    "DepthWindow",
    "FormulaAnswer",
    "GapSet",
    "GapsetRejection",
    "KunzVector",
    "MExtension",
    "MExtensionRejection",
    "as_elements",
    "census_histograms",
    "classify_gapset",
    "classify_m_extension",
    "compositions_fixed_parts",
    "count_compositions",
    "count_depth3_family",
    "count_gapsets",
    "count_gapsets_depth_at_most",
    "depth_window",
    "enumerate_compositions",
    "enumerate_depth3_family",
    "f_gq",
    "f_gq3",
    "f_gq4",
    "fibonacci",
    "fibonacci_k",
    "from_kunz",
    "invariants",
    "kunz_system_violation",
    "lower_bound_depth3",
    "padovan",
    "padovan_fibonacci_convolution",
    "pseudo_apery",
    "pseudo_kunz",
    "satisfies_kunz_system",
    "sigma",
    "sigma_inverse",
    "upper_bound_ng",
    "upper_bound_ng_closedN",
]
