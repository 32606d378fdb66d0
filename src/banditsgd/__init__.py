"""Cost-efficient distributed SGD simulator with bandit worker selection."""

from .analysis import (
    GapReport,
    RunTrace,
    completion_time_bound,
    compute_gaps,
    empirical_regret,
    regret_bound,
    regret_bound_curve,
    subgamma_tail,
    subgaussian_tail,
)
from .harness import (
    ExperimentConfig,
    IdentificationReport,
    benchmark_config,
    build_pool,
    build_problem,
    error_at_employments,
    identify_fastest,
    run_comparison,
    run_single,
    stream_rng,
    write_trace_csv,
)
from .latency import (
    WorkerPool,
    expected_max,
    member_responses,
    response_vector,
    variance_of_max,
)
from .policies import (
    BanditState,
    RoundSchedule,
    compute_schedule,
    record_outcome,
    select_superarm_cmab,
    select_superarm_optimal,
)
from .sgd import (
    BoundParams,
    SgdProblem,
    batch_gradient,
    convergence_bound,
    estimate_bound_params,
    generate_problem,
    model_error,
    sample_batches,
)

__version__ = "0.1.0"
