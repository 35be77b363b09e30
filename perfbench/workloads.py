"""Workload definitions: the scenario files each workload writes and the CLI
invocations one pass of it makes.

A pass is a generator of ``Invocation``s.  It is consumed in order, each
invocation run before the next is asked for, because the ``verify`` steps of
``walks1d-all`` are built from the certificate files its ``extract`` step
just wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import discwalk

WALKS = ("symmetric_walk", "biased_walk", "invariant_contraction")
WALK_COMMANDS = ("simulate", "solve", "estimate", "assumption1", "extract", "verify",
                 "synthesize", "report-all")
# synthesis kinds of disc2d-sample; safety_lower (phase-1 heavy, >= rows
# only) runs on a smaller sample set than the others
SAMPLE_KINDS = ("ra_lower_a1", "ra_lower_discounted", "unsafe_reach_upper",
                "liveness_upper_discounted")
DISC_CELLS = 50
SAMPLE_TRIALS = 50000
SAMPLE_POINTS = 1000
SAFETY_POINTS = 500


@dataclass
class Invocation:
    key: str  # stable id, the key of its recorded verdicts
    scenario: str  # scenario file, relative to the checkout root
    command: str
    out: str  # --out directory; report.json lands here
    certificate: str | None = None
    condition: str | None = None

    def argv(self) -> list[str]:
        args = ["--scenario", self.scenario, "--command", self.command, "--out", self.out]
        if self.certificate:
            args += ["--certificate", self.certificate]
        if self.condition:
            args += ["--condition", self.condition]
        return args


@dataclass
class Workload:
    name: str
    scenarios: dict[str, str]  # scenario file -> oracle mode ("walk" | "disc")
    seed: int
    work: Path

    def passes(self) -> Iterator[Invocation]:
        return _PASSES[self.name](self)


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's scenario files under ``work``."""
    if name not in _PASSES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(_PASSES)}")
    work.mkdir(parents=True, exist_ok=True)
    scenarios: dict[str, str] = {}
    if name == "disc2d-report":
        path = work / "disc_report.yaml"
        path.write_text(discwalk.scenario_yaml(seed, DISC_CELLS))
        scenarios[str(path)] = "disc"
    elif name == "disc2d-sample":
        for fname, points in (("disc_sample.yaml", SAMPLE_POINTS),
                              ("disc_safety.yaml", SAFETY_POINTS)):
            path = work / fname
            path.write_text(discwalk.scenario_yaml(seed, DISC_CELLS, SAMPLE_TRIALS, points))
            scenarios[str(path)] = "disc"
    else:
        # the bundled files are used as they are; the seed only rotates the
        # order in which the three scenarios run
        shift = seed % len(WALKS)
        for walk in WALKS[shift:] + WALKS[:shift]:
            scenarios[f"scenarios/{walk}.yaml"] = "walk"
    return Workload(name, scenarios, seed, work)


def _disc_report(wl: Workload) -> Iterator[Invocation]:
    (scenario,) = wl.scenarios
    yield Invocation("report-all", scenario, "report-all", str(wl.work / "report"))


def _disc_sample(wl: Workload) -> Iterator[Invocation]:
    main, small = wl.scenarios
    yield Invocation("estimate", main, "estimate", str(wl.work / "estimate"))
    for kind in SAMPLE_KINDS:
        yield Invocation(f"synthesize/{kind}", main, "synthesize",
                         str(wl.work / f"synth_{kind}"), condition=kind)
    yield Invocation("synthesize/safety_lower", small, "synthesize",
                     str(wl.work / "synth_safety_lower"), condition="safety_lower")


def _walks(wl: Workload) -> Iterator[Invocation]:
    for scenario in wl.scenarios:
        stem = Path(scenario).stem
        base = wl.work / stem
        for command in WALK_COMMANDS:
            if command != "verify":
                yield Invocation(f"{stem}/{command}", scenario, command, str(base / command))
                continue
            for cert in sorted((base / "extract").glob("certificate_*.yaml")):
                kind = cert.stem[len("certificate_"):]
                yield Invocation(f"{stem}/verify/{kind}", scenario, "verify",
                                 str(base / f"verify_{kind}"), certificate=str(cert))


_PASSES = {
    "disc2d-report": _disc_report,
    "disc2d-sample": _disc_sample,
    "walks1d-all": _walks,
}
WORKLOADS = tuple(_PASSES)
