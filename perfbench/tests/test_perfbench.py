"""The benchmark's own tests: seeded inputs and counts repeat exactly, the
checker catches wrong outputs, and every declared metric is emitted.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# requests per workload for the count checks: enough to reach every path
# the workload's first classes take, small enough to run in seconds
SHORT = {"analytic": 40, "rank1": 6, "dykstra": 4, "construct": 60}


def _traced_counts(name: str, seed: int) -> dict:
    cases = workloads.build_cases(name, seed)
    tracer = Tracer()
    tracer.install()
    try:
        _, _, failed, messages = run._loop(name, cases, 0.0, limit=SHORT[name], tracer=tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert failed == 0, messages
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "ms"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    first = workloads.digest(workloads.build_cases(name, run.DEFAULT_SEED))
    assert workloads.digest(workloads.build_cases(name, run.DEFAULT_SEED)) == first
    assert workloads.digest(workloads.build_cases(name, run.HELD_OUT_SEED)) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_for_a_seed(name):
    first = _traced_counts(name, run.DEFAULT_SEED)
    assert first["discrimination.decide.calls"] + first["constructions.tetra_unitary.calls"] > 0
    assert _traced_counts(name, run.DEFAULT_SEED) == first


def test_tracer_restores_every_patched_name():
    import sepdisc
    import sepdisc.separability as sep

    before = (sepdisc.decide, sep.psd_project, sep._PencilBlock, np.linalg.eigh)
    tracer = Tracer()
    tracer.install()
    assert sep.psd_project is not before[1]  # the `from .linalg import` binding
    tracer.uninstall()
    assert (sepdisc.decide, sep.psd_project, sep._PencilBlock, np.linalg.eigh) == before


def test_rank1_reaches_the_ppt_oracle_and_completability():
    cases = workloads.build_cases("rank1", run.DEFAULT_SEED)
    picked = [next(c for c in cases if c.cls == cls) for cls in ("fullspan_3x3", "completable_2x2x2")]
    tracer = Tracer()
    tracer.install()
    try:
        _, _, failed, messages = run._loop("rank1", picked, 0.0, limit=2, tracer=tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert failed == 0, messages
    counts = tracer.metrics()
    assert counts["separability.ppt_oracle.calls"][0] >= 1
    assert counts["discrimination.path.completability"][0] == 1


def _first(name: str, cls: str, seed: int = run.DEFAULT_SEED):
    case = next(c for c in workloads.build_cases(name, seed) if c.cls == cls)
    return case, workloads.run_request(name, case)


def test_checker_accepts_good_outputs():
    for name, cls in [("analytic", "family_2x2"), ("rank1", "family_2x2"), ("construct", "tetra_face")]:
        case, out = _first(name, cls)
        assert workloads.check(name, case, out) is None


def test_checker_rejects_corrupted_certificate():
    case, (instance, verdict, report) = _first("analytic", "family_2x2")
    cert = verdict.certificate
    bad = dataclasses.replace(cert, elements=(cert.elements[0] * 0.9,) + cert.elements[1:])
    out = (instance, dataclasses.replace(verdict, certificate=bad), report)
    assert "certificate rejected" in workloads.check("analytic", case, out)


def test_checker_rejects_flipped_expected_verdict():
    case, out = _first("analytic", "haar_2x2")
    flipped = dataclasses.replace(case, expect=frozenset({workloads.DIST}))
    assert "expected one of" in workloads.check("analytic", flipped, out)


def test_checker_rejects_perturbed_tetra_unitary():
    case, out = _first("construct", "tetra_interior")
    out = dict(out, u=out["u"] + 1e-6)
    assert "round-trip" in workloads.check("construct", case, out)


def test_checker_rejects_lossy_state_file():
    case, out = _first("construct", "family")
    doc = json.loads(out["text"])
    doc["states"][0]["amplitudes"][0][0] += 1e-9
    assert "parse back" in workloads.check("construct", case, dict(out, text=json.dumps(doc)))


def _last_line(*args) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], capture_output=True, text=True, cwd=ROOT, timeout=170
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, section):
    out = _last_line("--workload", "dykstra", "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
