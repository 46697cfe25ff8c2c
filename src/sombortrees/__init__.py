"""Greedy trees for prescribed degree sequences.

Construction of the greedy tree, Sombor and pseudo-Sombor indices,
degree-preserving edge switching with a descent to the greedy tree, and
exhaustive enumeration-based verification that the greedy tree attains the
minimum Sombor index in its class.
"""

from .degseq import (
    DegreeSequence,
    DegreeSequenceError,
    NotTreeRealizableError,
    is_tree_realizable,
    parse_degree_sequence,
    require_tree_realizable,
)
from .greedy import build_greedy
from .indices import ScoreAssignment, pseudo_sombor, score_assignment, sombor
from .oracle import (
    DEFAULT_TREE_CAP,
    DEFAULT_VALUE_TOLERANCE,
    OracleInvariantError,
    QConstant,
    ResourceCapExceededError,
    SpectrumSummary,
    VerificationReport,
    compute_q,
    count_trees,
    enumerate_trees,
    format_report_table,
    realizable_sequences,
    sample_tree,
    sombor_spectrum,
    spectrum_from_counts,
    sombor_value_counts,
    verify_greedy_minimum,
)
from .switching import (
    DescentInvariantError,
    DescentStep,
    DescentTrace,
    SwitchError,
    SwitchPlan,
    SwitchSign,
    Violation,
    ViolationKind,
    apply_switch,
    descend,
    find_violation,
    switch_sign,
)
from .tree_core import (
    BfsLevels,
    LabeledTree,
    PruferCode,
    TreeError,
    degree_sequence_of,
    prufer_decode,
    prufer_encode,
)

__version__ = "0.1.0"

__all__ = [
    "BfsLevels",
    "DEFAULT_TREE_CAP",
    "DEFAULT_VALUE_TOLERANCE",
    "DegreeSequence",
    "DegreeSequenceError",
    "DescentInvariantError",
    "DescentStep",
    "DescentTrace",
    "LabeledTree",
    "NotTreeRealizableError",
    "OracleInvariantError",
    "PruferCode",
    "QConstant",
    "ResourceCapExceededError",
    "ScoreAssignment",
    "SpectrumSummary",
    "SwitchError",
    "SwitchPlan",
    "SwitchSign",
    "TreeError",
    "VerificationReport",
    "Violation",
    "ViolationKind",
    "apply_switch",
    "build_greedy",
    "compute_q",
    "count_trees",
    "degree_sequence_of",
    "descend",
    "enumerate_trees",
    "find_violation",
    "format_report_table",
    "is_tree_realizable",
    "parse_degree_sequence",
    "prufer_decode",
    "prufer_encode",
    "pseudo_sombor",
    "realizable_sequences",
    "require_tree_realizable",
    "sample_tree",
    "score_assignment",
    "sombor",
    "sombor_spectrum",
    "sombor_value_counts",
    "spectrum_from_counts",
    "switch_sign",
    "verify_greedy_minimum",
]
