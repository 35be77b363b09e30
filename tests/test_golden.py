"""Golden outputs of every command on the three bundled scenarios, and of
the DP and Monte Carlo commands on a 2-D disc walk with two initial states.

One pass runs, in-process through ``cli.main``, the commands simulate,
solve, estimate, assumption1, extract, synthesize and report-all on each
bundled scenario, plus verify of every certificate that extract writes and
synthesize of every condition kind (the pair kind is rejected, exit 2).
On ``tests/disc_walk_two_starts.yaml`` (``perfbench/discwalk.py --seed 1
--cells 20`` started from two states) it runs solve, estimate, extract,
synthesize of every condition kind, verify of every certificate that
extract and synthesize write, and report-all, which fails the DP/MC gate
there (exit 4).  On
``tests/stuck_walk.yaml``, where the finite-time-exit assumption fails, it
runs extract, report-all and synthesize of the undiscounted reach-avoid
kind, then verify of every certificate file those three wrote.
Each invocation's stdout, stderr, exit code and every ``--out`` file are
compared byte for byte, floats included, with the files under
``tests/golden/<scenario>/<invocation>/``.  The temporary output directory
and the scenario directory are replaced by fixed tokens first.  Files over
8 KB are kept as digests, and stdout is kept only where it is not the
written ``report.txt``, which holds the golden files to about 280 KB.

Rewrite the golden files after an intended output change with

    python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
# verify runs once per certificate file that the invocations before it wrote,
# synthesize_<kind> runs synthesize --condition <kind>, and synthesize is
# followed by synthesize_<kind> of every condition kind
COMMANDS = ("simulate", "solve", "estimate", "assumption1", "extract", "verify",
            "synthesize", "report-all")
# pass name -> (scenario file, commands run on it)
PASSES = {
    **{walk: (SCENARIOS / f"{walk}.yaml", COMMANDS)
       for walk in ("symmetric_walk", "biased_walk", "invariant_contraction")},
    "disc_walk_two_starts": (TESTS / "disc_walk_two_starts.yaml",
                             ("solve", "estimate", "extract", "synthesize", "verify",
                              "report-all")),
    "stuck_walk": (TESTS / "stuck_walk.yaml",
                   ("extract", "report-all", "synthesize_ra_lower_a1", "verify")),
}
_DIGEST_OVER = 8192


def _invoke(argv: list[str]) -> tuple[str, str, int]:
    from stochcert.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def run_pass(walk: str, work: Path) -> dict[str, dict[str, str]]:
    """Run one pass on ``walk`` with outputs under ``work``; returns, per
    invocation, its console files and ``--out`` files as text, paths made
    neutral."""
    from stochcert.certificate import ALL_KINDS

    scenario, commands = PASSES[walk]

    def neutral(text: str) -> str:
        return text.replace(str(work), "<OUT>").replace(str(scenario.parent), "<SCENARIOS>")

    names = [run for name in commands
             for run in ([name, *(f"synthesize_{kind}" for kind in ALL_KINDS)]
                         if name == "synthesize" else [name])]

    def runs():  # a generator: verify reads the files written just before
        done = []
        for name in names:
            if name != "verify":
                command, _, kind = name.partition("_")
                yield name, command, ["--condition", kind] if kind else []
                done.append(name)
                continue
            for writer in done:
                prefix = "verify_" if writer == "extract" else f"verify_{writer}_"
                for cert in sorted((work / writer).glob("*.yaml")):
                    yield (prefix + cert.stem.removeprefix("certificate_"), name,
                           ["--certificate", str(cert)])

    results = {}
    for name, command, extra in runs():
        out = work / name
        stdout, stderr, code = _invoke(["--scenario", str(scenario), "--command", command,
                                        "--out", str(out), *extra])
        files = {"stdout.txt": stdout, "stderr.txt": stderr, "exit_code.txt": f"{code}\n"}
        # a rejected invocation makes no --out directory
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            files[f"out/{path.name}"] = path.read_text()
        results[name] = _stored({key: neutral(text) for key, text in files.items()})
    return results


def _stored(files: dict[str, str]) -> dict[str, str]:
    """The form the golden files take: stdout is left out where it equals
    ``out/report.txt``, and a file over ``_DIGEST_OVER`` characters (a
    simulated trajectory) is kept as its SHA-256 digest."""
    if files["stdout.txt"] == files.get("out/report.txt"):
        del files["stdout.txt"]
    stored = {}
    for key, text in files.items():
        if len(text) > _DIGEST_OVER:
            key, text = f"{key}.sha256", hashlib.sha256(text.encode()).hexdigest() + "\n"
        stored[key] = text
    return stored


def _recorded(walk: str) -> dict[str, dict[str, str]]:
    return {
        inv.name: {path.relative_to(inv).as_posix(): path.read_text()
                   for path in sorted(inv.rglob("*")) if path.is_file()}
        for inv in sorted((GOLDEN / walk).iterdir())
    }


@pytest.mark.parametrize("walk", PASSES)
def test_outputs_match_golden(walk, tmp_path):
    got = run_pass(walk, tmp_path)
    want = _recorded(walk)
    assert sorted(got) == sorted(want), "invocations differ from the golden set"
    for name in want:
        assert sorted(got[name]) == sorted(want[name]), f"{walk}/{name}: file set differs"
        for key, text in want[name].items():
            assert got[name][key] == text, f"{walk}/{name}/{key} differs from golden"


def test_golden_reports_are_strict_json():
    # RFC 8259 has no Infinity or NaN; a clause with no points has min_slack null
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    paths = sorted(GOLDEN.rglob("report.json"))
    assert paths
    for path in paths:
        json.loads(path.read_text(), parse_constant=refuse)


def record() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for walk in PASSES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, files in run_pass(walk, Path(tmp)).items():
                for key, text in files.items():
                    path = GOLDEN / walk / name / key
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    sys.path.insert(0, str(ROOT / "src"))
    record()
