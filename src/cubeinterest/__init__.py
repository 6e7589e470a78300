"""Interestingness assessment for aggregate queries over star-schema cubes.

Scores a cube query along four dimensions: novelty (what the user has not
seen), relevance (overlap with goals or beacon queries), peculiarity
(distance from the query collection), and surprise (distance from prior
expectations about the values).
"""

from .context import (
    BeliefStatement,
    BeliefStore,
    ExpectedLabels,
    ExpectedValues,
    QueryHistory,
    SessionContext,
    ValueInterval,
    filter_history_same_measures,
    known_cells,
)
from .engine import (
    AtomicFilter,
    Cell,
    CellSet,
    CubeQuery,
    DetailedCube,
    FactoredSignature,
    SelectionCondition,
    cell_distance,
    condition_signature,
    detailed_area,
    detailed_proxy,
    evaluate,
    load_facts,
)
from .harness import (
    AssessConfig,
    BenchConfig,
    InterestReport,
    generate_star,
    interestingness_vector,
    run_benchmark,
)
from .mdm import Dimension, Level, Member, dimension_from_rows, load_dimension
from .novelty import CoveragePartition

__version__ = "0.1.0"

__all__ = [
    "AssessConfig",
    "AtomicFilter",
    "BeliefStatement",
    "BeliefStore",
    "BenchConfig",
    "Cell",
    "CellSet",
    "CoveragePartition",
    "CubeQuery",
    "DetailedCube",
    "Dimension",
    "ExpectedLabels",
    "ExpectedValues",
    "FactoredSignature",
    "InterestReport",
    "Level",
    "Member",
    "QueryHistory",
    "SelectionCondition",
    "SessionContext",
    "ValueInterval",
    "cell_distance",
    "condition_signature",
    "detailed_area",
    "detailed_proxy",
    "dimension_from_rows",
    "evaluate",
    "filter_history_same_measures",
    "generate_star",
    "interestingness_vector",
    "known_cells",
    "load_dimension",
    "load_facts",
    "run_benchmark",
]
