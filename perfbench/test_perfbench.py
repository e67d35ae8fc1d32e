"""Tiny-size checks of the benchmark itself (n=240 training points).

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
N = 240
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _cli(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import run

    run.import_program()
    return run


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_name_and_unit(bench, workload, trace):
    result, lines = bench.run(workload, 7, 1, bool(trace), N)
    result = json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(
            line.split()[0] == m["name"] and line.split()[2] == m["unit"]
            for line in lines
        ), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    assert any(line.startswith("host {") for line in lines)
    assert any(line.startswith("error_rate 0 ") for line in lines)


def test_removed_entry_points_are_skipped(bench, monkeypatch):
    import tracing

    monkeypatch.setattr(
        tracing, "ENTRY_POINTS",
        tracing.ENTRY_POINTS
        + (("solve", "repro.tile.solve", "removed_solve", None, None),),
    )
    monkeypatch.setattr(
        tracing, "KERNEL_METHODS",
        tracing.KERNEL_METHODS + ("removed_batch",),
    )
    result, lines = bench.run("mle-exp-tlr", 7, 0.5, True, N)
    assert result["correct"]
    skipped = [line for line in lines if line.startswith("skipped entry")]
    assert skipped == [
        "skipped entry points: repro.tile.solve.removed_solve, "
        "ExponentialKernel.removed_batch"
    ]


def test_perturbed_loglik_is_counted(bench, monkeypatch):
    from repro.core import EvaluationEngine

    evaluate = EvaluationEngine.evaluate

    def perturbed(self, theta, **kwargs):
        result = evaluate(self, theta, **kwargs)
        result.value *= 1.0 + 1.0e-4
        return result

    monkeypatch.setattr(EvaluationEngine, "evaluate", perturbed)
    result, lines = bench.run("mle-exp-tlr", 7, 0.5, False, N)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert not any(line.startswith("error_rate 0 ") for line in lines)


def test_perturbed_prediction_is_counted(bench, monkeypatch):
    from repro.core import ExaGeoStatModel

    predict = ExaGeoStatModel.predict

    def perturbed(self, x_new, **kwargs):
        result = predict(self, x_new, **kwargs)
        result.mean[0] += 1.0e-3
        return result

    monkeypatch.setattr(ExaGeoStatModel, "predict", perturbed)
    result, _ = bench.run("serve-exp-tlr", 7, 0.5, False, N)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_raised_operation_is_counted_and_run_continues(bench, monkeypatch):
    from repro.core import EvaluationEngine

    evaluate = EvaluationEngine.evaluate
    calls = []

    def flaky(self, theta, **kwargs):
        calls.append(1)
        if len(calls) == 5:  # the second timed evaluation
            raise FloatingPointError("injected")
        return evaluate(self, theta, **kwargs)

    monkeypatch.setattr(EvaluationEngine, "evaluate", flaky)
    result, _ = bench.run("mle-exp-tlr", 7, 0.5, False, N)
    assert result["failed"] == 1
    assert result["attempted"] > 5


def test_self_check_fails_loudly(bench, monkeypatch):
    import workloads

    workload = workloads.WORKLOADS["mle-matern-mp"]
    monkeypatch.setattr(workload, "expect", workload.expect + ("serving",))
    with pytest.raises(bench.SelfCheckError, match="serving"):
        bench.run("mle-matern-mp", 7, 0.5, True, N)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
