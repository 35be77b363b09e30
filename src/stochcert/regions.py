"""State classification against the safe set X and target set X_r.

Every state falls in exactly one of three classes: target (in X_r),
safe-non-target (in X but not X_r), or unsafe (outside X).  The nesting
X_r within X is validated by sampling, not symbolically.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from . import expr, model
from .expr import PredicateAst, Record

__all__ = [
    "StateClass",
    "RegionSpec",
    "Box",
    "NestingReport",
    "classify_batch",
    "validate_nesting",
    "compute_omega",
]


class StateClass(IntEnum):
    TARGET = 0
    SAFE = 1  # in X but not X_r
    UNSAFE = 2


class RegionSpec(Record, frozen=True):
    safe: PredicateAst  # set X
    target: PredicateAst  # set X_r, expected to satisfy X_r within X


class Box(Record, frozen=True):
    """Axis-aligned box, closed on both sides."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or np.any(upper < lower):
            raise ValueError("invalid box bounds")

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=1)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(count, self.n))

    def inflate(self, fraction: float) -> "Box":
        pad = fraction * (self.upper - self.lower)
        return Box(self.lower - pad, self.upper + pad)


def classify_batch(regions: RegionSpec, xs: np.ndarray) -> np.ndarray:
    """Class codes for a (B, n) batch, as a StateClass-valued int array."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    in_target, in_safe = expr.eval_predicate_batch((regions.target, regions.safe), xs)
    # UNSAFE (2) counts down to SAFE (1) inside X and to TARGET (0) inside X_r
    codes = np.int8(StateClass.UNSAFE) - in_safe.view(np.int8)
    codes *= ~in_target
    return codes


class NestingReport(Record):
    passed: bool
    witnesses: np.ndarray  # points with target(x) and not safe(x)
    target_seen: bool  # False = target empty over the samples (vacuous pass)
    safe_seen: bool  # False = safe set empty over the samples
    n_samples: int

    @property
    def vacuous(self) -> bool:
        return self.passed and not self.target_seen


def validate_nesting(regions: RegionSpec, samples: np.ndarray) -> NestingReport:
    """Check X_r within X over a sample set; witnesses violate the nesting."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] == 0:
        raise ValueError("need a nonempty sample set")
    in_target, in_safe = expr.eval_predicate_batch((regions.target, regions.safe), samples)
    bad = in_target & ~in_safe
    return NestingReport(
        passed=not bad.any(),
        witnesses=samples[bad],
        target_seen=bool(in_target.any()),
        safe_seen=bool(in_safe.any()),
        n_samples=samples.shape[0],
    )


def compute_omega(system: model.SystemModel, regions: RegionSpec,
                  samples: np.ndarray) -> tuple[Box, Box]:
    """The two sampled Omega boxes, unpadded, from one classify-and-step pass
    over ``samples`` (grid nodes plus random draws): the box over the samples
    in X and the one-step images of those in X, and the box over the samples
    in X and the images of those in X \\ X_r, the states from which a
    process that stops on X_r moves.  With X \\ X_r empty the second box is
    the box over X.  Which kind takes which box is decided in cli._omega."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    codes = classify_batch(regions, samples)
    in_x = codes != int(StateClass.UNSAFE)
    inside, transient = samples[in_x], codes[in_x] == int(StateClass.SAFE)
    if inside.shape[0] == 0:
        raise ValueError("no sample points fall inside the safe set")
    images = model.successors(system, inside)
    over_x = np.vstack([inside, *images])
    over_transient = np.vstack([inside, *(ys[transient] for ys in images)])
    return tuple(Box(pts.min(axis=0), pts.max(axis=0)) for pts in (over_x, over_transient))
