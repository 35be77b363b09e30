"""Certificate synthesis: a polynomial template optimized by linear programming.

Every clause of the barrier-like conditions is linear in the template
coefficients (one-step expectations are finite sums of evaluations), so
maximizing the certificate's values at the initial states over a sampled
point set is a plain LP: each clause of the kind's entry in
``certificate.KINDS`` becomes one block of design-matrix rows.  The LP is
tall and thin (a few template coefficients against thousands of sampled
rows), so it is solved by an embedded dual simplex over the coefficients: an
active set of one row per coefficient, started at the dual-feasible box
vertex, with Bland's rule on the dual so it terminates.
Coefficient bounds keep it bounded.  Both answers are checked before they are
returned: an optimal vertex satisfies every row within 1e-7 and has
non-negative duals, and an infeasible verdict carries a Farkas certificate.

Sampled constraints are optimistic by construction, so every synthesized
certificate is re-validated on an independent, denser point set before being
reported; a certificate that only holds on its own samples is returned with
status ``sample_optimistic`` and the violation witnesses.
"""

from __future__ import annotations

import itertools

import numpy as np

from .certificate import (
    INIT_LOWER,
    KINDS,
    CheckReport,
    Condition,
    PolyCert,
    check_condition,
    clause_side,
    monomials,
    point_classes,
    tight_threshold,
)
from .expr import NumericError, Record
from .model import SystemModel
from .regions import Box, RegionSpec, classify_batch

__all__ = [
    "LpProblem",
    "LpSolution",
    "SimplexStalledError",
    "SynthesisInfeasibleError",
    "simplex_solve",
    "lp_to_text",
    "Template",
    "SynthesisResult",
    "SYNTH_KINDS",
    "synthesize",
]

# the kinds a template LP can express: every one but the pair kind, whose
# clauses read a second unknown function w
SYNTH_KINDS = tuple(kind for kind, spec in KINDS.items()
                    if all("E[w o f] - w" not in clause for clause in spec["clauses"]))

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7


class SimplexStalledError(NumericError, RuntimeError):
    def __init__(self, iterations: int):
        super().__init__(f"simplex numerically stalled after {iterations} iterations")
        self.iterations = iterations


class SynthesisInfeasibleError(NumericError, RuntimeError):
    pass


class LpProblem(Record):
    """max (or min) objective . x subject to rows and finite variable bounds.

    Row i reads ``rows[i] . x  senses[i]  rhs[i]``: ``rows`` is an (m, n)
    array and each sense is '<=', '>=' or '=='.
    """

    objective: np.ndarray
    rows: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    maximize: bool = True

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.objective.shape[0]
        rows = np.asarray(self.rows, dtype=float)
        # + 0.0 stores a -0.0 coefficient as +0.0
        self.rows = (rows.reshape(0, n) if rows.size == 0 else rows) + 0.0
        self.senses = np.asarray(self.senses, dtype=str).reshape(-1)
        self.rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bounds must match the variable count")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("all variable bounds must be finite")
        if np.any(self.upper < self.lower):
            raise ValueError("need upper >= lower bounds")
        m = len(self.rows)
        if self.rows.ndim != 2 or self.rows.shape[1] != n:
            raise ValueError("rows need one coefficient per variable")
        if self.senses.shape != (m,) or self.rhs.shape != (m,):
            raise ValueError("need one sense and one right-hand side per row")
        unknown = set(self.senses.tolist()) - {"<=", ">=", "=="}
        if unknown:
            raise ValueError(f"unknown row sense {sorted(unknown)[0]!r}")

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


class LpSolution(Record):
    """Solver outcome.  ``farkas`` is set when ``status == "infeasible"``:
    non-negative weights on the rows of ``problem`` stacked as ``M x <= h``
    (the ``<=`` and ``==`` rows as written, then the ``>=`` and ``==`` rows
    negated, then ``x <= upper``, then ``-x <= -lower``) whose combination
    ``(M^T z) . x <= h . z`` no point of the box satisfies."""

    status: str  # optimal | infeasible
    x: np.ndarray | None
    objective: float | None
    iterations: int
    farkas: np.ndarray | None = None


def _stack(problem: LpProblem) -> tuple[np.ndarray, np.ndarray]:
    """The rows and bounds of ``problem`` as ``M x <= h`` (order: see LpSolution)."""
    rows, rhs = problem.rows, problem.rhs
    le, ge = problem.senses != ">=", problem.senses != "<="
    eye = np.eye(problem.n_vars)
    M = np.vstack([rows[le], -rows[ge], eye, -eye])
    h = np.concatenate([rhs[le], -rhs[ge], problem.upper, -problem.lower])
    return M, h


def simplex_solve(problem: LpProblem, max_iter: int | None = None) -> LpSolution:
    """Dual simplex over the variables, with Bland's rule on the dual.

    The active set ``W`` holds one row of ``M x <= h`` per variable; the
    vertex ``x = M_W^-1 h_W`` has duals ``y = M_W^-T c``.  It starts at the
    box vertex that maximizes ``c``, where ``y >= 0``, and keeps ``y >= 0``:
    the smallest-index violated row enters and the ratio test picks the row
    that leaves.  An optimal answer is checked to satisfy every row within
    1e-7 with ``y >= 0``; an infeasible one carries a checked Farkas
    certificate.  A failed check or ``max_iter`` pivots raise
    SimplexStalledError.
    """
    M, h = _stack(problem)
    m, n = M.shape
    c = problem.objective if problem.maximize else -problem.objective
    # x_j <= upper_j where c_j >= 0, else -x_j <= -lower_j
    active = np.where(c >= 0, m - 2 * n, m - n) + np.arange(n)
    if max_iter is None:
        max_iter = 20000 + 20 * m
    iters = 0
    while True:
        try:
            M_W = M[active]
            x = np.linalg.solve(M_W, h[active])
            violated = np.flatnonzero(M @ x - h > _FEAS_TOL)
            if violated.size == 0:
                y = np.linalg.solve(M_W.T, c)
            else:
                k = int(violated[0])
                y, w = np.linalg.solve(M_W.T, np.column_stack([c, M[k]])).T
        except np.linalg.LinAlgError:
            raise SimplexStalledError(iters) from None
        if violated.size == 0:
            if (y < -_PIVOT_TOL).any():
                raise SimplexStalledError(iters)
            return LpSolution("optimal", x, float(problem.objective @ x), iters)
        iters += 1
        if iters > max_iter:
            raise SimplexStalledError(iters)
        leave = np.flatnonzero(w > _PIVOT_TOL)
        if leave.size == 0:
            z = np.zeros(m)
            z[k] = 1.0
            z[active] = np.maximum(-w, 0.0)
            r = M.T @ z
            if h @ z >= np.minimum(r * problem.lower, r * problem.upper).sum():
                raise SimplexStalledError(iters)
            return LpSolution("infeasible", None, None, iters, farkas=z)
        ratios = np.maximum(y[leave], 0.0) / w[leave]
        ties = leave[ratios <= ratios.min() + 1e-12]
        active[ties[np.argmin(active[ties])]] = k


def lp_to_text(problem: LpProblem) -> str:
    """Row-per-constraint dump for external cross-checking."""
    lines = []
    goal = "max" if problem.maximize else "min"
    obj = " + ".join(f"{c:g} x{j}" for j, c in enumerate(problem.objective) if c != 0.0)
    lines.append(f"{goal}: {obj or '0'}")
    for row, sense, rhs in zip(problem.rows, problem.senses, problem.rhs):
        lhs = " + ".join(f"{v:g} x{j}" for j, v in enumerate(row) if v != 0.0)
        lines.append(f"{lhs or '0'} {sense} {rhs:g}")
    for j in range(problem.n_vars):
        lines.append(f"{problem.lower[j]:g} <= x{j} <= {problem.upper[j]:g}")
    return "\n".join(lines) + "\n"


# templates ------------------------------------------------------------


def _monomials_up_to(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            exp = [0] * n
            for d in combo:
                exp[d] += 1
            out.append(tuple(exp))
    return tuple(dict.fromkeys(out))


class Template(Record, frozen=True):
    """All monomials up to a total degree, coefficients confined to [-B, B];
    ``exponents`` lists the monomials, constant first."""

    n: int
    degree: int
    bound: float = 1e3

    def __post_init__(self):
        if self.degree < 0 or self.n < 1:
            raise ValueError("need degree >= 0 and at least one variable")
        if not np.isfinite(self.bound) or self.bound < 0:
            raise ValueError("coefficient bound must be finite and non-negative")
        object.__setattr__(self, "exponents", _monomials_up_to(self.n, self.degree))

    @property
    def size(self) -> int:
        return len(self.exponents)

    def design_matrix(self, xs: np.ndarray) -> np.ndarray:
        return monomials(np.atleast_2d(np.asarray(xs, dtype=float)), self.exponents)


class SynthesisResult(Record):
    cert: PolyCert
    threshold: float
    status: str  # validated | sample_optimistic
    report: CheckReport
    lp: LpSolution
    problem: LpProblem


def synthesize(
    system: SystemModel,
    regions: RegionSpec,
    kind: str,
    template: Template,
    points: np.ndarray,
    x0,
    tolerance: float = 1e-6,
    gamma: float | None = None,
    margin: float = 0.0,
    revalidation_seed: int = 17,
) -> SynthesisResult:
    """Optimize the template against the sampled clauses of ``kind`` and
    re-validate the winner on an independent denser point set.

    ``x0`` is a single state or a list of states; the LP optimizes the sum of
    the certificate's values at them, and the threshold is the tightest one
    that holds at every state.  ``margin`` tightens the set-membership
    clauses (v <= 1, v <= 0, ...) in the LP only; the expectation clauses
    stay exact because martingale-like certificates meet them with equality
    and any margin would exclude them.  The initial states are appended to
    the sample set so their own structural clauses constrain the optimum.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"cannot synthesize {kind!r}: synthesis takes "
                         f"{', '.join(SYNTH_KINDS)}; extract the pair kind from a "
                         "discounted value field instead")
    spec = KINDS[kind]
    if spec["gamma"] and (gamma is None or not 0.0 < gamma < 1.0):
        raise ValueError(f"{kind} synthesis needs gamma in (0, 1)")

    x0s = np.atleast_2d(np.asarray(x0, dtype=float))
    points = np.vstack([np.atleast_2d(np.asarray(points, dtype=float)), x0s])
    classes = point_classes(points, classify_batch(regions, points))

    def design(term, pts):
        return clause_side(term, system, pts, template.design_matrix, gamma=gamma, strict=True)

    # keep the optimum where its threshold is meaningful: lower-bound kinds
    # need v(x0) >= 0, upper-bound kinds v(x0) <= 1 at every x0, else the
    # tight threshold clamps into [0, 1] and the initial-state clause would
    # fail re-validation
    maximize = spec["initial"] == INIT_LOWER
    x0_rows = template.design_matrix(x0s)
    blocks = [(x0_rows, ">=", 0.0) if maximize else (x0_rows, "<=", 1.0)]
    for _, cls, lhs, rhs in spec["clauses"]:
        pts = classes[cls]
        if not len(pts):
            continue
        if not isinstance(rhs, str):
            blocks.append((design(lhs, pts), "<=", rhs - margin))
        elif not isinstance(lhs, str):
            blocks.append((design(rhs, pts), ">=", lhs + margin))
        else:
            blocks.append((design(rhs, pts) - design(lhs, pts), ">=", 0.0))

    counts = [len(mat) for mat, _, _ in blocks]
    J = template.size
    problem = LpProblem(
        objective=x0_rows.sum(axis=0),
        rows=np.vstack([mat for mat, _, _ in blocks]),
        senses=np.repeat([sense for _, sense, _ in blocks], counts),
        rhs=np.repeat([b for _, _, b in blocks], counts),
        lower=np.full(J, -template.bound),
        upper=np.full(J, template.bound),
        maximize=maximize,
    )
    solution = simplex_solve(problem)
    if solution.status != "optimal":
        raise SynthesisInfeasibleError(
            f"no certificate in this template at these samples ({solution.status})"
        )

    cert = PolyCert(template.exponents, tuple(solution.x))
    v_x0s = [row @ solution.x for row in x0_rows]
    threshold = tight_threshold(kind, v_x0s)

    rng = np.random.default_rng(revalidation_seed)
    sample_box = Box(points.min(axis=0), points.max(axis=0))
    revalidation_points = sample_box.sample(4 * points.shape[0] + 256, rng)
    cond = Condition(kind, threshold, gamma=gamma)
    report = check_condition(system, regions, cert, cond, x0s,
                             revalidation_points, tolerance)
    status = "validated" if report.passed else "sample_optimistic"
    return SynthesisResult(cert, threshold, status, report, solution, problem)
