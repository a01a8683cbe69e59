"""Self-test of the benchmark, on tiny workloads.

Run from the repository root (it is not part of the tier-1 suite, which
collects ``tests/`` only):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing

run.prepare_imports()

import scatterlab.poset  # noqa: E402  (importable only after prepare_imports)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = run.run_workload(workload, seed=1, seconds=1, traced=False, tiny=True)
    assert result["correct"], result["report"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(workload):
    result = run.run_workload(workload, seed=1, seconds=1, traced=True, tiny=True)
    assert result["correct"], result["report"]["failures"]
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    layer_self = sum(v for name, v in values.items() if name.endswith(".self_s"))
    assert layer_self + values["trace.unattributed_s"] == pytest.approx(values["trace.pass_s"], rel=1e-6)
    assert not hasattr(scatterlab.poset.restrict, "__wrapped__")
    assert not hasattr(scatterlab.universe.PairFunction.build, "__wrapped__")


def test_tracer_reports_a_span_left_open():
    tracer = tracing.Tracer()
    tracer.run_pass(lambda: tracer._enter(tracer.ids["poset.leq"]))
    assert tracer.open_after_pass == [1]


def test_injected_star_defect_drives_fail_ratio_above_zero(monkeypatch):
    true_star = scatterlab.poset.star

    def buggy_star(x, y):
        out = true_star(x, y)
        return out | {0} if 5 in x else out  # corrupt one case family

    monkeypatch.setattr(scatterlab.poset, "star", buggy_star)
    # The traced passes run in this process, so they see the defect.
    result = run.run_workload("spaces-k64", seed=1, seconds=1, traced=True, tiny=True)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
