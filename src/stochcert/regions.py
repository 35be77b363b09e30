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

    @property
    def sides(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=1)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(count, self.n))

    def inflate(self, fraction: float) -> "Box":
        pad = fraction * self.sides
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


# the fraction of its sides by which the box over X and its images is padded
OMEGA_PAD = 0.01


def compute_omega(
    system: model.SystemModel,
    regions: RegionSpec,
    samples: np.ndarray,
    transient_only: bool = False,
) -> Box:
    """Sampled-image bounding box covering one-step successors of X, union X,
    padded by ``OMEGA_PAD``.

    ``samples`` are candidate points (grid nodes plus random draws); only
    those classified inside X contribute.  With ``transient_only`` the image
    is taken over X minus X_r only and no padding is applied: that variant
    hugs the set actually visited by reach-avoid trajectories, which is what
    certificate synthesis needs (successors of the target are never visited,
    so constraints there would only exclude valid templates).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    codes = classify_batch(regions, samples)
    if transient_only:
        keep = codes == int(StateClass.SAFE)
    else:
        keep = codes != int(StateClass.UNSAFE)
    inside = samples[keep]
    if inside.shape[0] == 0:
        raise ValueError("no sample point falls in X \\ X_r" if transient_only
                         else "no sample points fall inside the safe set")
    covered = np.vstack([inside, *model.successors(system, inside)])
    box = Box(covered.min(axis=0), covered.max(axis=0))
    return box if transient_only else box.inflate(OMEGA_PAD)
