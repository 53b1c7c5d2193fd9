"""Discrete Morse matchings and resolutions of monomial ideals.

Builds Barile-Macchia, Lyubeznik and trimmed Lyubeznik matchings on the
Taylor complex of a monomial ideal, assembles the induced chain complexes,
decides minimality, and verifies everything against an exact-arithmetic
Betti-number oracle.  Includes exhaustive searches over all total orders of
the generators.
"""

from .algebra import (
    Monomial,
    MonomialIdeal,
    VariableContext,
    divides,
    format_ideal,
    minimize_generators,
    parse_ideal,
    parse_monomial,
)
from .families import (
    SimpleGraph,
    cycle_edge_ideal,
    edge_ideal,
    parse_graph,
    random_squarefree_ideal,
)
from .homology import BettiTable, betti_numbers, homology_ranks
from .matching import (
    Matching,
    MatchingReport,
    PossibleEdge,
    bm_matching,
    critical_cells,
    critical_family,
    is_bridge_friendly,
    lyubeznik_matching,
    possible_edges_with_positions,
    trimmed_matching,
    validate_matching,
)
from .morse import (
    MorseComplex,
    is_minimal,
    morse_differential,
    ranks,
    verify_complex,
)
from .search import (
    MinimalSearchResult,
    SearchWorkerError,
    bridge_friendly_list,
    bridge_minimal_search,
)
from .taylor import TaylorComplex, build_taylor, cell_members

__version__ = "0.1.0"
