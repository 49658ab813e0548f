from .exact import (
    ExactModel,
    ExactModelTask,
    TablePolicy,
    StateSlotPolicy,
    enumerate_policies,
    exact_J,
    exact_Q,
    reference_policy,
    state_distribution,
    trajectory,
    two_level_chooser,
    indistinct_branch_chooser,
    shared_feature_chooser,
)
from .bounds import (
    BoundReport,
    check_difference_identity,
    check_regret_bound,
    random_models,
    run_training,
)
from .counterexamples import (
    reference_rollin_failure,
    reference_rollout_failure,
    one_step_deviations,
)
from .snake import (
    best_neighbor_descent,
    longest_snake,
    snake_costs,
    snake_lower_bound,
)
