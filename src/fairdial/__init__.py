"""Privacy-aware argumentation dialogues, fairness metrics and a boat-crossing testbed."""

from .af import (
    Framework,
    is_admissible,
    parse_framework,
    emit_framework,
    preferred_extensions,
    sceptically_accepted,
)
from .culture import (
    Culture,
    CultureArgument,
    ExpandedCulture,
    FeatureDescription,
    Move,
    builtin_boat_culture,
    expand,
    generate_random_culture,
    load_culture,
    sample_boat_agent,
    save_culture,
)
from .dialogue import (
    DialogueResult,
    STRATEGIES,
    run_dispute,
)
from .errors import (
    CapacityError,
    FairdialError,
    InputError,
    ParseError,
    SimulationFault,
    StatsError,
)
from .fairness import (
    OutcomeMatrix,
    PrecedenceGraph,
    Theorem1Report,
    dag_dissimilarity,
    global_losses,
    ground_truth_matrix,
    objective_local_loss,
    objective_outcome,
    pair_census,
    precedence_graph,
    result_matrix,
    subjective_local_loss,
    theorem1_check,
)
from .randexp import TrialConfig, TrialRow, ecdf_privacy_cost, run_trial, sweep
from .stats import TTestResult, mean_ci99, t_test

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FairdialError", "InputError", "ParseError", "CapacityError",
    "StatsError", "SimulationFault",
    # frameworks
    "Framework", "is_admissible", "preferred_extensions",
    "sceptically_accepted", "parse_framework", "emit_framework",
    # cultures
    "Culture", "CultureArgument", "ExpandedCulture", "FeatureDescription",
    "expand", "generate_random_culture", "builtin_boat_culture",
    "sample_boat_agent", "save_culture", "load_culture",
    # dialogues
    "Move", "DialogueResult", "STRATEGIES", "run_dispute",
    # fairness
    "OutcomeMatrix", "PrecedenceGraph", "Theorem1Report",
    "objective_outcome", "ground_truth_matrix", "result_matrix",
    "objective_local_loss", "subjective_local_loss", "precedence_graph",
    "pair_census", "dag_dissimilarity", "global_losses", "theorem1_check",
    # experiments and stats
    "TrialConfig", "TrialRow", "run_trial", "sweep", "ecdf_privacy_cost",
    "TTestResult", "t_test", "mean_ci99",
]
