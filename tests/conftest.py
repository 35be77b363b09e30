"""Shared fixtures: the walk and contraction systems used across the suite.

The symmetric walk on (0, 11) with target [10, 11) and an integer-aligned
grid is the main oracle scenario: its discretized chain equals the ideal
gambler's-ruin chain, so closed forms apply exactly.
"""

import numpy as np
import pytest

from stochcert import dp, expr, model, regions


def make_walk(p_up: float) -> model.SystemModel:
    dist = model.DisturbanceDist(atoms=[[-1.0], [1.0]], probs=[1.0 - p_up, p_up])
    return model.SystemModel(
        n=1, m=1, dynamics=(expr.parse_expr("x1 + th1", 1, 1),), dist=dist
    )


def walk_regions() -> regions.RegionSpec:
    return regions.RegionSpec(
        safe=expr.parse_predicate("x1 > 0 && x1 < 11", 1),
        target=expr.parse_predicate("x1 >= 10 && x1 < 11", 1),
    )


def walk_grid() -> dp.Grid:
    # nodes at the integers 0..11: one-step images land exactly on nodes
    return dp.Grid([-0.5], [11.5], [12])


@pytest.fixture(scope="session")
def gambler():
    system = make_walk(0.5)
    reg = walk_regions()
    grid = walk_grid()
    return {
        "system": system,
        "regions": reg,
        "grid": grid,
        "reach_kernel": dp.build_kernel(*dp.node_operator(system, grid, reg), dp.MODE_REACH_AVOID),
        "safety_kernel": dp.build_kernel(*dp.node_operator(system, grid, reg), dp.MODE_SAFETY),
        "x0": np.array([3.0]),
    }


@pytest.fixture(scope="session")
def biased():
    system = make_walk(0.6)
    reg = walk_regions()
    grid = walk_grid()
    return {
        "system": system,
        "regions": reg,
        "grid": grid,
        "reach_kernel": dp.build_kernel(*dp.node_operator(system, grid, reg), dp.MODE_REACH_AVOID),
        "safety_kernel": dp.build_kernel(*dp.node_operator(system, grid, reg), dp.MODE_SAFETY),
        "x0": np.array([3.0]),
    }


def make_contraction() -> tuple[model.SystemModel, regions.RegionSpec, dp.Grid]:
    dist = model.DisturbanceDist(atoms=[[0.0]], probs=[1.0])
    system = model.SystemModel(
        n=1, m=1, dynamics=(expr.parse_expr("0.5*x1 + 0*th1", 1, 1),), dist=dist
    )
    reg = regions.RegionSpec(
        safe=expr.parse_predicate("x1 >= -1 && x1 <= 1", 1),
        target=expr.parse_predicate("x1 >= -0.05 && x1 <= 0.05", 1),
    )
    grid = dp.Grid([-1.2], [1.2], [48])
    return system, reg, grid


@pytest.fixture(scope="session")
def contraction():
    system, reg, grid = make_contraction()
    return {
        "system": system,
        "regions": reg,
        "grid": grid,
        "reach_kernel": dp.build_kernel(*dp.node_operator(system, grid, reg), dp.MODE_REACH_AVOID),
        "safety_kernel": dp.build_kernel(*dp.node_operator(system, grid, reg), dp.MODE_SAFETY),
        "x0": np.array([0.8]),
    }


def make_identity() -> tuple[model.SystemModel, regions.RegionSpec, dp.Grid]:
    dist = model.DisturbanceDist(atoms=[[0.0]], probs=[1.0])
    system = model.SystemModel(
        n=1, m=1, dynamics=(expr.parse_expr("x1 + 0*th1", 1, 1),), dist=dist
    )
    return system, walk_regions(), walk_grid()


@pytest.fixture(scope="session")
def identity():
    system, reg, grid = make_identity()
    return {
        "system": system,
        "regions": reg,
        "grid": grid,
        "reach_kernel": dp.build_kernel(*dp.node_operator(system, grid, reg), dp.MODE_REACH_AVOID),
        "x0": np.array([3.0]),
    }


def one_step_mean(system: model.SystemModel, x, g) -> float:
    """E[g(f(x, th))] over the finite atom set, each atom's successor taken
    as a batch of one."""
    total = 0.0
    for atom, p in zip(system.dist.atoms, system.dist.probs):
        total += float(p) * float(g(model.step_batch(system, [x], [atom])[0]))
    return total


def ruin_probability(i: int, n: int, p_up: float) -> float:
    """Probability the +-1 walk hits n before 0 from i (independent oracle)."""
    if p_up == 0.5:
        return i / n
    r = (1.0 - p_up) / p_up
    return (1.0 - r ** i) / (1.0 - r ** n)


def chain_solve(p_up: float, gamma: float = 1.0) -> np.ndarray:
    """Hand-built tridiagonal solve of the 9-state ruin chain, states 1..9:
    v = gamma * (b + P v) with absorption at 0 and 10."""
    n_tr = 9
    A = np.eye(n_tr)
    b = np.zeros(n_tr)
    for row, s in enumerate(range(1, 10)):
        for nxt, p in ((s - 1, 1.0 - p_up), (s + 1, p_up)):
            if nxt == 10:
                b[row] += p
            elif nxt == 0:
                pass
            else:
                A[row, nxt - 1] -= gamma * p
    return np.linalg.solve(A, gamma * b)
