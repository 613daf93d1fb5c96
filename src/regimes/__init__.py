"""Discrete multistage decision problems as influence diagrams with a
regime node: identifiability checks and strategy evaluation."""

from .errors import (
    CapacityError,
    InputError,
    ModelError,
    ParseError,
    PolicyError,
    PositivityError,
    RegimesError,
)
from .graph import (
    Dag,
    ancestral_closure,
    descendants,
    separated,
)
from .model import (
    SIGMA,
    Cpt,
    ExactSource,
    InfluenceDiagram,
    InfoBase,
    Policy,
    Strategy,
    Variable,
    consequence_direct,
    joint_distribution,
)
from .grecursion import (
    RecursionTable,
    build_dag_i,
    g_recursion,
    recursion_table,
    verify_general_conditions,
)
from .stability import (
    PositivityReport,
    StabilityReport,
    check_graphsep,
    check_positivity,
    check_sequential_irrelevance_numeric,
    check_sequential_randomization,
    check_simple_stability_graphical,
    check_simple_stability_numeric,
)
from .admissible import (
    AdmissibleSequence,
    check_admissible,
    compute_candidate_sequence,
    improve_sequence,
    search_admissible_ordering,
)
from .optimize import enumerate_strategies, optimal_strategy, strategy_count
from .data import Dataset, estimate_conditionals, sample
from .parser import ModelDocument, format_model, parse_model

__all__ = [n for n in dir() if not n.startswith("_")]
