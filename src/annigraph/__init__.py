"""Finite commutative rings, ideal lattices, annihilating-ideal graphs, and
exact graph genus at desk scale."""

from .classify import RingClassification, classify, unique_minimal_ideal
from .genus import (
    GenusResult,
    euler_lower_bound,
    genus_exact,
    is_planar,
    verify_embedding,
)
from .graphs import (
    SimpleGraph,
    build_ag,
    complete_bipartite,
    complete_graph,
    simple_graph,
    to_dot,
)
from .ideals import (
    IdealLattice,
    all_ideals,
    annihilating_ideals,
    name_ideal,
    sub_ideals,
)
from .rings import (
    FiniteRing,
    RingError,
    ValidationReport,
    make_poly_quotient,
    make_product,
    make_structure_constants,
    make_zn,
    validate_ring,
)
from .specs import RingSpec, SpecParseError, builtin_corpus, parse_ring_spec
from .verify import CheckResult, ShapeMatch, SuiteReport, match_shape, run_suite

__version__ = "0.1.0"
