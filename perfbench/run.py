"""Benchmark of the stochcert command line.

    python3 perfbench/run.py --workload disc2d-report --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; stochcert runs from ``src/`` (it need not
be installed).  One client runs one CLI process at a time, each starting
only after the previous one exits (a closed loop).  Workloads, metrics and
bounds are listed in ``BENCHMARK.json``.

``--trace 0`` times whole CLI processes from the outside:

* ``setup_s``: median over several fresh interpreters of the time from
  process start until ``cli.load_scenario`` returns;
* ``wall_s``: median over passes of the wall time of one pass, the sum of
  its CLI invocations, each timed from process start to exit;
* ``peak_rss_mb``: the highest peak RSS of any CLI child, from its rusage.

Passes start while the previous pass's duration still fits in ``--seconds``;
at least one always runs.  ``--trace 1`` instead runs one pass in-process
untraced and once traced (see ``tracing.py``) and reports per-layer metrics.

Every output of every invocation is checked (see ``checks.py``); the last
line of stdout is the JSON result with the check count and failures.
``--record`` runs one pass and stores its verdicts and exit codes in
``reference.json`` instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

WORK = Path(".perfbench_work")
RECORDED = HERE / "reference.json"
SETUP_REPEATS = 9
BLAS_THREADS = 1
CHILD_CPU_LIMIT_S = 170  # a runaway child is killed rather than stalling the run
RUN_LIMIT_S = 150  # no new pass starts after this much time
CLI = "import sys; from stochcert.cli import main; sys.exit(main())"
SETUP = ("import os, sys, time; from stochcert import cli; cli.load_scenario(sys.argv[1]); "
         "sys.stdout.write(str(time.monotonic_ns())); sys.stdout.flush(); os._exit(0)")


def child_env() -> dict:
    """Environment of every child: stochcert from src/, and one BLAS thread,
    so that the one client never has more threads running than cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


class Runner:
    def __init__(self, work: Path):
        self.env = child_env()
        self.stderr = work / "stderr.txt"

    def spawn(self, args: list[str], capture: bool = False):
        """Run ``python3 args`` to completion; returns (exit code, start ns,
        end ns, peak RSS in MB, captured stdout)."""
        with open(self.stderr, "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen([sys.executable, *args], env=self.env, stderr=err,
                                    stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                                    preexec_fn=_limit_cpu)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out = ""
            if capture:
                out = proc.stdout.read().decode()
                proc.stdout.close()
        return proc.returncode, start, end, usage.ru_maxrss / 1024.0, out

    def setup_time(self, scenario: str) -> float:
        code, start, _, _, out = self.spawn(["-c", SETUP, scenario], capture=True)
        if code != 0 or not out.strip().isdigit():
            raise RuntimeError(f"set-up child failed on {scenario} (exit {code}): "
                               f"{self.stderr.read_text()[-2000:]}")
        return (int(out) - start) / 1e9

    def invoke(self, inv: workloads.Invocation):
        shutil.rmtree(inv.out, ignore_errors=True)
        code, start, end, rss, _ = self.spawn(["-c", CLI, *inv.argv(), "--quiet"])
        return code, (end - start) / 1e9, rss


def load_recorded(workload: str) -> dict | None:
    if not RECORDED.exists():
        return None
    return json.loads(RECORDED.read_text()).get(workload)


def references(wl: workloads.Workload) -> dict:
    """Oracle reference per scenario file; files of one system share one."""
    by_name, refs = {}, {}
    for path, mode in wl.scenarios.items():
        sc = oracle.load(path)
        if sc.name not in by_name:
            seed = wl.seed if mode == "disc" else None
            by_name[sc.name] = oracle.reference(sc, mc_seed=seed)
        refs[path] = by_name[sc.name]
    return refs


class Tally:
    def __init__(self, refs: dict, recorded: dict | None):
        self.refs, self.recorded = refs, recorded
        self.attempted = self.failed = self.known = 0
        self.max_dp_err = 0.0
        self.failures: list[str] = []
        self.known_misses: list[str] = []

    def add(self, inv: workloads.Invocation, code: int) -> None:
        rec = None if self.recorded is None else self.recorded.get(inv.key)
        for c in checks.check_invocation(inv, code, self.refs[inv.scenario], rec):
            self.attempted += 1
            if c.error is not None:
                self.max_dp_err = max(self.max_dp_err, c.error)
            if not c.ok:
                self.failed += 1
                self.failures.append(f"FAIL {inv.key} {c.name}: {c.detail}")
            elif c.known:
                self.known += 1
                self.known_misses.append(f"KNOWN MISS {inv.key} {c.name}: {c.detail}")


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has ten samples beyond it (n={n})"
    return f"p{100 * (n - 10) // n} {sorted(samples)[n - 11]:.4f} s (n={n})"


def run_untraced(wl, runner: Runner, tally: Tally, seconds: int) -> dict:
    scenarios = list(wl.scenarios)
    runner.setup_time(scenarios[0])  # warm-up: byte-code cache and page cache
    # half the set-up samples before the passes and half after, so that their
    # median spans the run rather than one moment of the machine's load
    setup = [runner.setup_time(scenarios[i % len(scenarios)])
             for i in range(SETUP_REPEATS // 2)]

    walls, calls, peak = [], [], 0.0
    began = time.monotonic()
    while True:
        wall = 0.0
        for inv in wl.passes():
            code, secs, rss = runner.invoke(inv)
            tally.add(inv, code)
            wall += secs
            calls.append(secs)
            peak = max(peak, rss)
        walls.append(wall)
        elapsed = time.monotonic() - began
        if elapsed + wall > seconds or elapsed > RUN_LIMIT_S:
            break
    setup += [runner.setup_time(scenarios[i % len(scenarios)])
              for i in range(len(setup), SETUP_REPEATS)]
    print(f"wall_s: median {statistics.median(walls):.4f} s over {len(walls)} pass(es); "
          f"{tail(walls)}")
    print(f"CLI invocation: median {statistics.median(calls):.4f} s; {tail(calls)}")
    print(f"setup_s: {', '.join(f'{s:.4f}' for s in setup)}")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def layer_unit(name: str) -> str:
    if name == "dp.max_abs_err":
        return "abs"
    for suffix, unit in (("_per_s", "1/s"), ("_ratio", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_traced(wl, runner: Runner, tally: Tally, seed: int) -> dict:
    code, *_ = runner.spawn([str(HERE / "tracing.py"), "--workload", wl.name,
                             "--seed", str(seed), "--work", str(wl.work)])
    if code != 0:
        raise RuntimeError(f"traced run failed (exit {code}): {runner.stderr.read_text()[-2000:]}")
    result = json.loads((wl.work / "trace.json").read_text())
    for inv, code in result["ran"]:
        tally.add(workloads.Invocation(**inv), code)
    metrics = {name: (value, layer_unit(name)) for name, value in result["metrics"].items()}
    metrics["dp.max_abs_err"] = (tally.max_dp_err, layer_unit("dp.max_abs_err"))
    print(f"traced pass: {result['spans']} spans, written to {wl.work / 'spans.json'}")
    return metrics


def record(wl, runner: Runner) -> None:
    """Store the verdicts and exit codes of one pass in reference.json."""
    found = {}
    for inv in wl.passes():
        code, _, _ = runner.invoke(inv)
        found[inv.key] = checks.verdicts(inv, code, checks.read_report(inv))
    data = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
    data[wl.name] = found
    RECORDED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(found)} invocations of {wl.name} in {RECORDED}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stochcert CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this pass's verdicts as the reference")
    args = parser.parse_args(argv)

    if not (Path("src/stochcert/cli.py").is_file() and Path("scenarios").is_dir()):
        print("error: run from the root of a stochcert checkout "
              "(src/stochcert and scenarios/ not found)", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.prepare(args.workload, args.seed, work)
    runner = Runner(work)
    if args.record:
        record(wl, runner)
        return 0
    tally = Tally(references(wl), load_recorded(args.workload))
    print(f"workload {wl.name}, seed {args.seed}: closed loop, one client, one CLI process "
          f"at a time; BLAS threads {BLAS_THREADS} "
          f"(of {len(os.sched_getaffinity(0))} cores)")
    if args.trace:
        metrics = run_traced(wl, runner, tally, args.seed)
    else:
        metrics = run_untraced(wl, runner, tally, args.seconds)
    for line in tally.known_misses + tally.failures:
        print(line)
    print(f"checks: {tally.attempted} outputs checked, {tally.failed} failed, "
          f"{tally.known} within the known miss of checks.KNOWN_MISS")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
