"""Verification lab for the generalization behavior of mini-batch gradient
descent under arbitrary data-independent batch schedules.

The package measures on-average algorithmic stability and generalization
error of mini-batch GD on worst-case problem constructions, evaluates the
matching closed-form upper/lower bounds, and checks by Monte Carlo and by
exact per-step inequalities that every measurement sits inside the
theoretical sandwich.
"""

import os

# Before numpy loads OpenBLAS, which would otherwise start a worker pool that
# only spins: batchstab's parallelism is --jobs worker processes, and its
# only BLAS calls are on length-d vectors.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from batchstab.bounds import (
    BoundSet,
    analytic_gen_error,
    assemble_bound_set,
    gen_error_lower,
    gen_error_upper,
    uniform_stability_constant,
)
from batchstab.engine import (
    PairedTrajectory,
    StepSizePlan,
    Trajectory,
    closed_form_final,
    constant_plan,
    custom_plan,
    inverse_t_plan,
    run,
    run_paired,
)
from batchstab.errors import (
    AnalyticRegionError,
    CapabilityError,
    ConfigError,
    DivergenceError,
    RegimeError,
)
from batchstab.experiments import (
    ExperimentConfig,
    config_from_dict,
    estimate_gen_error,
    estimate_stability,
    run_full_verification,
    uniform_stability_failure_demo,
)
from batchstab.problems import (
    Dataset,
    LossParams,
    ProblemInstance,
    convex_huber_instance,
    custom_smooth_instance,
    empirical_risk,
    linear_instance,
    neighbor,
    quadratic_nonconvex_instance,
    quadratic_strongly_convex_instance,
    sample_dataset,
    verify_regularity,
)
from batchstab.schedule import (
    RealizedSchedule,
    ScheduleSpec,
    check_counting_lemma,
    realize,
)
from batchstab.stability import stability_bound

__version__ = "0.1.0"
