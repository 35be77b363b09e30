"""Scenario generator for the 2-D disc walk.

The system is x' = A x + th with A = [[0.95, 0.1], [-0.05, 0.9]] and th
uniform on the 9-atom lattice {-0.1, 0, 0.1}^2.  The safe set X is the open
unit disc, the target X_r the open disc of radius 0.2, and x0 = (0.6, 0.3).
The grid covers [-1, 1]^2 with ``cells`` cells per axis.

Only the Monte Carlo seed depends on the workload seed: the grid chain, the
check points and the synthesis samples are the same for every seed, so DP
work, verdicts and exit codes do not move with it.

    python3 perfbench/discwalk.py --seed 1 --cells 50 > disc.yaml
"""

from __future__ import annotations

import argparse
import sys

A = ((0.95, 0.1), (-0.05, 0.9))
STEP = 0.1
SAFE_R2 = 1.0  # squared radius of X
TARGET_R2 = 0.04  # squared radius of X_r
X0 = (0.6, 0.3)
GAMMA = 0.9
MC_HORIZON = 500
MC_DELTA = 0.05
POINT_SEED = 7


def atoms() -> list[list[float]]:
    return [[a * STEP, b * STEP] for a in (-1, 0, 1) for b in (-1, 0, 1)]


def mc_seed(seed: int) -> int:
    return 20240000 + seed


def scenario_yaml(seed: int, cells: int, trials: int = 20000,
                  extra_points: int = 2000) -> str:
    """YAML text of the disc walk; ``seed`` only picks the Monte Carlo seed."""
    (a11, a12), (a21, a22) = A
    atom_rows = ", ".join(f"[{x!r}, {y!r}]" for x, y in atoms())
    probs = ", ".join([repr(1.0 / 9.0)] * 9)
    return f"""\
name: disc-walk-2d
system:
  n: 2
  m: 2
  dynamics: ["{a11}*x1 + {a12}*x2 + th1", "{a21}*x1 + {a22}*x2 + th2"]
  disturbance:
    kind: finite
    atoms: [{atom_rows}]
    probs: [{probs}]
regions:
  safe: "x1^2 + x2^2 < {SAFE_R2!r}"
  target: "x1^2 + x2^2 < {TARGET_R2!r}"
initial_state: [{X0[0]!r}, {X0[1]!r}]
thresholds:
  epsilon1: 0.0
  epsilon2: 0.9
grid:
  lower: [-1.0, -1.0]
  upper: [1.0, 1.0]
  cells: [{cells}, {cells}]
gamma: {GAMMA!r}
mc:
  horizon: {MC_HORIZON}
  trials: {trials}
  delta: {MC_DELTA!r}
  seed: {mc_seed(seed)}
check:
  tolerance: 1.0e-6
  extra_points: {extra_points}
  point_seed: {POINT_SEED}
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cells", type=int, default=50)
    args = parser.parse_args(argv)
    sys.stdout.write(scenario_yaml(args.seed, args.cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
