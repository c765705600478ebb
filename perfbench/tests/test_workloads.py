"""Every workload end to end at toy size, and its checks catch wrong output."""

import json
import subprocess
import sys

import pytest

from conftest import BENCH
from run import UNGATED

ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH / "contract.json").read_text())["predictions"]
GATED = [entry["name"] for entry in CONTRACT["workloads"]]
WORKLOADS = GATED + list(UNGATED)


def run(*args):
    output = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "toy", "--seed", "3", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert output.returncode == 0, output.stderr
    return json.loads(output.stdout.strip().splitlines()[-1])


def test_prediction_table_names_declared_metrics_and_workloads():
    layers = {m["name"] for m in CONTRACT["per_layer"]}
    for row in PREDICTIONS:
        assert set(row["on"]) <= set(WORKLOADS), row["layer"]
        if set(row["on"]) <= set(GATED):  # an ungated workload reports its own layers
            assert set(row["metrics"]) <= layers, row["layer"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_end_to_end_metric(workload):
    result = run("--workload", workload, "--seconds", "0.5", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_premises():
    result = run("--workload", "all", "--seconds", "0.5", "--trace", "1")
    assert result["correct"]
    layers = [m["name"] for m in CONTRACT["per_layer"]]
    gated = [key for key in result["metrics"] if key.split(".")[0] in GATED]
    assert gated == [f"{w}.{name}" for w in GATED for name in layers]
    for workload in UNGATED:
        reported = {key.split(".", 1)[1] for key in result["metrics"]
                    if key.split(".")[0] == workload}
        predicted = {m for row in PREDICTIONS if workload in row["on"] for m in row["metrics"]}
        assert predicted and predicted <= reported, workload
    for workload in ("paper_400", "fig3_weno3", "service_mix"):
        record = json.loads(
            (ROOT / ".bench_build/perfbench/results" / f"{workload}-seed3-trace1.json").read_text()
        )
        assert record["premise"]["holds"], record["premise"]["detail"]
        assert record["host"]["cpu_count"] >= 1


def test_forced_wrong_state_counts_as_failed():
    from workloads import Paper400

    workload = Paper400("toy", seed=0)
    workload.develop()
    workload.setup()
    workload.run(0.01)
    assert workload.check()[0] == 0
    workload.trial_shas[0] = "0" * 64
    failed, detail = workload.check()
    assert failed == workload.trial_steps and detail["wrong_trials"] == [0]


def test_forced_wrong_fig4_result_counts_as_failed():
    from workloads import Fig4Model

    workload = Fig4Model("toy", seed=0)
    workload.setup()
    workload.run(0.01)
    assert workload.check()[0] == 0
    workload.reference["points"][0][1] *= 1.001
    assert workload.check()[0] == 1


def test_service_job_mix_is_seeded_and_stratified():
    from workloads import job_mix

    first, again, other = (job_mix(seed, 64, "toy") for seed in (1, 1, 2))
    assert first == again and first != other
    kinds = [job["problem"] for job in first[16:24]]
    assert kinds.count("two_channel") >= 4


def test_forced_wrong_service_result_counts_as_failed():
    from workloads import ServiceMix

    workload = ServiceMix("toy", seed=0)
    workload.setup()
    try:
        workload.run(0.5)
    finally:
        workload.close()
    assert workload.check()[0] == 0
    specs = [workload.jobs[r["index"]] for r in workload.replies]
    # A cold job whose spec ran once, so no cache hit depends on its payload.
    cold = next(
        r for r, spec in zip(workload.replies, specs)
        if not r["status"]["cached"] and specs.count(spec) == 1
    )
    cold["result"] = dict(cold["result"], state_sha256="0" * 64)
    hit = next(r for r in workload.replies if r["status"]["cached"])
    hit["result"] = dict(hit["result"], mass=-1.0)
    failed, detail = workload.check()
    assert failed == 2
    assert sorted(detail["wrong_jobs"]) == sorted([cold["job_id"], hit["job_id"]])
