"""Games where authors pick topics and a mediator splits reader attention.

Core model (games, mediators, utility schemes), sequential response
dynamics, improvement-graph analysis, constructions of score-mediated
games with improvement cycles, and a batch experiment harness.
"""

from .errors import (
    BudgetExceededError,
    CyclicGraphError,
    PreconditionError,
    RankgamesError,
    SearchError,
    TrajectoryError,
    ValidationError,
)
from .model import (
    ACTION,
    DEFAULT_BUDGET,
    EXPOSURE,
    Game,
    Mediator,
    PRP,
    RAND,
    ScoreFunction,
    as_rational,
    format_rational,
    game_from_dict,
    game_to_dict,
    improves,
    make_game,
    replace_topic,
    utility,
    utility_vector,
)
from .dynamics import (
    BEST,
    BETTER,
    BudgetExhausted,
    ConvergedPNE,
    FirstDeviator,
    RandomOrder,
    RepeatDetected,
    RoundRobin,
    Step,
    Trajectory,
    best_responses,
    better_responses,
    default_max_steps,
    is_pne,
    run_dynamics,
    trajectory_to_jsonl,
)
from .analysis import (
    ImprovementGraph,
    PathInvariantReport,
    PotentialReport,
    PotentialWitness,
    analysis_report,
    enumerate_pne,
    exact_potential_check,
    has_fip,
    improvement_graph,
    iter_profiles,
    longest_improvement_path,
    path_invariant_report,
    potential_residual,
    rand_to_prp_reduction,
    shortest_cycle,
)
from .counterexamples import (
    CYCLE,
    CounterexampleBundle,
    build_action_cycle_game,
    build_band_cycle_game,
    build_exposure_cycle_game,
    bundle_to_dict,
    closed_cycle,
    find_action_triple,
    find_exposure_triple,
    solve_action_epsilon,
    solve_band_epsilon,
    solve_exposure_epsilon,
    verify_improvement_cycle,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    example_game,
    example_tables,
    generate_random_game,
    greedy_assignment_pne,
    run_experiment_suite,
)

__version__ = "0.1.0"
