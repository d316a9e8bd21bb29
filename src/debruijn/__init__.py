"""De Bruijn sequences, de Bruijn digraphs, and watchman's-walk analysis."""

from .analysis import (
    Classification,
    SweepReport,
    Verdict,
    VerificationRecord,
    classify,
    is_doubled,
    rotation_representatives,
    sweep,
    verify,
)
from .errors import DomainError, InvariantViolation, ResourceCapError
from .graphcore import (
    Digraph,
    Provenance,
    Walk,
    build_de_bruijn_graph,
    generated_subdigraph,
    is_closed_dominating_walk,
    to_dot,
)
from .seqcore import (
    DEFAULT_SIZE_CAP,
    Alphabet,
    CyclicSequence,
    gen_eulerian,
    gen_fkm,
    gen_greedy,
    is_de_bruijn_sequence,
    k_tour,
    parse_sequence,
    read_sequences,
)
from .watchman import (
    DEFAULT_VERTEX_CAP,
    SolveResult,
    construct_watchman_walk,
    enumerate_min_walks,
    induced_walk,
    solve_min_walk,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Classification",
    "CyclicSequence",
    "DEFAULT_SIZE_CAP",
    "DEFAULT_VERTEX_CAP",
    "Digraph",
    "DomainError",
    "InvariantViolation",
    "Provenance",
    "ResourceCapError",
    "SolveResult",
    "SweepReport",
    "Verdict",
    "VerificationRecord",
    "Walk",
    "build_de_bruijn_graph",
    "classify",
    "construct_watchman_walk",
    "enumerate_min_walks",
    "gen_eulerian",
    "gen_fkm",
    "gen_greedy",
    "generated_subdigraph",
    "induced_walk",
    "is_closed_dominating_walk",
    "is_de_bruijn_sequence",
    "is_doubled",
    "k_tour",
    "parse_sequence",
    "read_sequences",
    "rotation_representatives",
    "solve_min_walk",
    "sweep",
    "to_dot",
    "verify",
]
