"""mildkit: exact-arithmetic analysis of finitely presented pro-p groups.

The toolkit expands relators through the Magnus embedding, extracts
weighted initial forms, decides strong freeness of the resulting sequences
(high-term criterion and Hilbert-series oracle), computes Massey-product
tensors, and applies the decomposition, one-relator, and Demuškin-type
mildness criteria, each verdict carrying a checkable certificate.
"""

from .algebra import (
    Context,
    IntSeries,
    Monomial,
    Poly,
    series_compare,
    EQUAL_TO_CUTOFF,
    GREATER,
    INFINITY,
    LESS,
)
from .errors import (
    BudgetError,
    ContextMismatchError,
    InternalInvariantError,
    MildkitError,
    ParseError,
    PrecisionError,
)
from .freeness import (
    anick_check,
    combinatorially_free,
    quotient_dimensions,
    series_admissibility,
    strongly_free_oracle,
    target_series,
)
from .lie import (
    HallElement,
    RestrictedBasisElement,
    expand_to_assoc,
    hall_basis,
    lie_membership,
    p_power_commutator_split,
    restricted_basis,
    witt_number,
)
from .magnus import (
    GroupWord,
    MagnusExpansion,
    Presentation,
    epsilon,
    expand,
    initial_form,
    make_presentation,
    omega,
    parse_word,
    substitute,
    word_to_text,
)
from .massey import (
    Decomposition,
    MasseyTensor,
    MildVerdict,
    bn_map,
    check_mild,
    check_shuffles,
    demuskin,
    demuskin_mildness,
    demuskin_type,
    massey_tensor,
    massey_value,
    one_relator_verdict,
    search_mild,
    subset_decomposition,
    zassenhaus_invariant,
)
from .orders import DegLexOrder, UOrder, check_multiplicative, high_term, parse_order_spec

__version__ = "0.1.0"
