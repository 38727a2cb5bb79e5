"""Exact arithmetic for weighted complete intersection threefolds.

Screens candidate weight/degree data against the numerical conditions
for quasismooth, well formed, terminal (or canonical) threefolds of
amplitude -1, 0 or +1 (candidate); computes orbifold Riemann-Roch data
and the fibers of formal baskets over their unpacking (baskets); computes
Poincare series and recovers presentations from them by the table
method (series); and enumerates the full lists per amplitude
(classify), run by the `wci` command line (cli).
"""

from .baskets import (
    Basket,
    BasketInconsistency,
    FormalBasket,
    Orbifold,
    high_index_count_bounds,
    k3,
    pluri_growth_filter,
)
from .candidate import (
    Candidate,
    CandidateParseError,
    CheckResult,
    InvalidCandidate,
    ScreenReport,
    check_cy_product,
    check_wps_wellformed,
    deltas,
    is_linear_cone,
    necessary_screen,
    normalize,
    parse_candidate,
)
from .classify import (
    ChiData,
    ClassificationRecord,
    RunConfig,
    RunReport,
    classify,
    classify_cy,
    iter_tuples,
    realize,
)
from .series import (
    RecoveredPresentation,
    SeriesParseError,
    TableMethod,
    TruncatedSeries,
    basket_series_blocks,
    divisor_matching,
    max_weight_ok,
    parse_series,
    poincare_series,
    recover_weights_degrees,
    recovery_bound,
    series_from_basket,
    series_from_candidate,
)

__version__ = "0.1.0"

__all__ = [
    "Basket",
    "BasketInconsistency",
    "Candidate",
    "CandidateParseError",
    "CheckResult",
    "ChiData",
    "ClassificationRecord",
    "FormalBasket",
    "InvalidCandidate",
    "Orbifold",
    "RecoveredPresentation",
    "RunConfig",
    "RunReport",
    "ScreenReport",
    "SeriesParseError",
    "TableMethod",
    "TruncatedSeries",
    "basket_series_blocks",
    "check_cy_product",
    "check_wps_wellformed",
    "classify",
    "classify_cy",
    "deltas",
    "divisor_matching",
    "high_index_count_bounds",
    "is_linear_cone",
    "iter_tuples",
    "k3",
    "max_weight_ok",
    "necessary_screen",
    "normalize",
    "parse_candidate",
    "parse_series",
    "pluri_growth_filter",
    "poincare_series",
    "realize",
    "recover_weights_degrees",
    "recovery_bound",
    "series_from_basket",
    "series_from_candidate",
    "__version__",
]
