"""Run the benchmark on several seeds and summarize each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per workload and seed (tracing off), one run at a time,
and prints for every end-to-end metric the median, the quartiles and the
spread (interquartile distance over median, as the acceptance rule takes
it).  Then it makes one traced run per workload on the first seed.  With
``--out`` the summary, every run's values and the per-layer metrics are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            began = time.monotonic()
            result = run(workload, seed, bench["run_seconds"], trace=0)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "seconds": time.monotonic() - began,
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": values})
            print(workload, seed, f"{runs[-1]['seconds']:.1f}s", result["attempted"],
                  result["failed"], {k: round(v, 4) for k, v in values.items()}, flush=True)
        stats = {m["name"]: summarize([r["metrics"][m["name"]] for r in runs])
                 for m in bench["end_to_end"]}
        for name, s in stats.items():
            bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == name)
            print(f"{workload} {name}: median {s['median']:.4f} quartiles {s['q1']:.4f} "
                  f"{s['q3']:.4f} spread {s['spread']:.4f} (bound {bound})", flush=True)
        traced = run(workload, args.seeds[0], bench["run_seconds"], trace=1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        summary[workload] = {"stats": stats, "runs": runs,
                             "per_layer": {"seed": args.seeds[0], "metrics": layers}}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
