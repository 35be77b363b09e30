"""Safety and reach-avoid verification of stochastic discrete-time systems.

Value functions of the infinite-horizon liveness and reach-avoid problems are
computed by Bellman fixed-point iteration on a grid-restricted absorbing
chain, cross-checked by exact linear solves and Monte Carlo simulation, and
turned into barrier-like certificates that can be checked pointwise,
extracted from solved fields, or synthesized by linear programming.
"""

from .certificate import (
    ALL_KINDS,
    Condition,
    ConstCert,
    GridCert,
    PolyCert,
    best_threshold,
    check_condition,
    eval_cert,
    extract_certificate,
    load_certificate,
    save_certificate,
)
from .dp import (
    Grid,
    TransitionKernel,
    ValueField,
    build_grid,
    build_kernel,
    check_assumption1,
    eval_field,
    solve_discounted,
    solve_exact_small,
    solve_reach_avoid,
    solve_safety_exit,
)
from .expr import parse_expr, parse_predicate
from .mc import McEstimate, estimate_liveness, estimate_reach_avoid
from .model import (
    DisturbanceDist,
    SystemModel,
    Trajectory,
    quantize_gaussian,
    quantize_uniform,
    simulate,
    step_batch,
)
from .regions import Box, RegionSpec, StateClass, classify_batch, compute_omega, validate_nesting
from .synth import LpProblem, LpSolution, Template, simplex_solve, synthesize

__version__ = "0.1.0"
