"""Safety and reach-avoid verification of stochastic discrete-time systems.

Value functions of the infinite-horizon liveness and reach-avoid problems are
the least fixed points of Bellman equations on a grid-restricted absorbing
chain, solved by prob0 plus BiCGSTAB with a sound error bound, cross-checked
by Monte Carlo simulation, and turned into barrier-like certificates that can
be checked pointwise, extracted from solved fields, or synthesized by LP.

The names below are resolved from their submodules on first access
(PEP 562), so ``import stochcert`` imports no submodule and each command
line process imports only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_ORIGIN = {
    **dict.fromkeys((
        "ALL_KINDS", "Condition", "ConstCert", "GridCert", "PolyCert", "check_condition",
        "eval_cert_batch", "extract_certificate", "load_certificate",
        "save_certificate"), "certificate"),
    **dict.fromkeys((
        "Grid", "TransitionKernel", "ValueField", "build_kernel", "check_assumption1",
        "eval_field_batch", "solve_discounted", "solve_exact_small", "solve_reach_avoid",
        "solve_safety_exit"), "dp"),
    **dict.fromkeys(("parse_expr", "parse_predicate"), "expr"),
    **dict.fromkeys(("McEstimate", "estimate"), "mc"),
    **dict.fromkeys((
        "DisturbanceDist", "SystemModel", "Trajectory", "quantize_gaussian",
        "quantize_uniform", "simulate", "step_batch"), "model"),
    **dict.fromkeys((
        "Box", "RegionSpec", "StateClass", "classify_batch", "compute_omega",
        "validate_nesting"), "regions"),
    **dict.fromkeys((
        "LpProblem", "LpSolution", "Template", "simplex_solve", "synthesize"), "synth"),
}

__all__ = list(_ORIGIN)


def __getattr__(name):
    # not cached here, so the package always hands out the submodule's
    # current binding of the name
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    if name in _ORIGIN.values():  # a submodule, reachable as before without its import
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORIGIN})
