"""Golden outputs of every command on the three bundled scenarios.

One pass runs, in-process through ``cli.main``, the commands simulate,
solve, estimate, assumption1, extract, synthesize and report-all on each
bundled scenario, plus verify of every certificate that extract writes and
synthesize of every condition kind (the pair kind is rejected, exit 2).
Each invocation's stdout, stderr, exit code and every ``--out`` file are
compared byte for byte, floats included, with the files under
``tests/golden/<scenario>/<invocation>/``.  The temporary output directory
and the scenario directory are replaced by fixed tokens first.  Files over
8 KB are kept as digests, and stdout is kept only where it is not the
written ``report.txt``, which holds the golden files to about 180 KB.

Rewrite the golden files after an intended output change with

    python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
WALKS = ("symmetric_walk", "biased_walk", "invariant_contraction")
# verify runs once per certificate that extract wrote
COMMANDS = ("simulate", "solve", "estimate", "assumption1", "extract", "verify",
            "synthesize", "report-all")
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

    scenario = SCENARIOS / f"{walk}.yaml"

    def neutral(text: str) -> str:
        return text.replace(str(work), "<OUT>").replace(str(SCENARIOS), "<SCENARIOS>")

    def runs():  # a generator: verify reads the files extract has just written
        for command in COMMANDS:
            if command != "verify":
                yield command, command, []
                continue
            for cert in sorted((work / "extract").glob("certificate_*.yaml")):
                yield (f"verify_{cert.stem[len('certificate_'):]}", command,
                       ["--certificate", str(cert)])
        for kind in ALL_KINDS:
            yield f"synthesize_{kind}", "synthesize", ["--condition", kind]

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


@pytest.mark.parametrize("walk", WALKS)
def test_outputs_match_golden(walk, tmp_path):
    got = run_pass(walk, tmp_path)
    want = _recorded(walk)
    assert sorted(got) == sorted(want), "invocations differ from the golden set"
    for name in want:
        assert sorted(got[name]) == sorted(want[name]), f"{walk}/{name}: file set differs"
        for key, text in want[name].items():
            assert got[name][key] == text, f"{walk}/{name}/{key} differs from golden"


def record() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for walk in WALKS:
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
