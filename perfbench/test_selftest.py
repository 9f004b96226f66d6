"""Self-test of the benchmark on a tiny cohort: every workload, traced and
untraced, emits each metric that BENCHMARK.json names, with its unit, and
passes its correctness checks.

    python3 -m pytest perfbench
"""

import dataclasses
import json

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_COHORT = dict(classes=3, per_class=8, dims=(16, 16, 8))
TINY_CONFIG = run.sh.PipelineConfig(
    layers=(run.sh.LayerSpec((3, 3, 4), 4), run.sh.LayerSpec((3, 3, 3), 6)),
    centroids_per_class=3, seed=42)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_emits_every_metric(workload, trace, monkeypatch, capsys):
    tiny = dataclasses.replace(run.WORKLOADS[workload], cohort=TINY_COHORT,
                               config=TINY_CONFIG)
    monkeypatch.setitem(run.WORKLOADS, workload, tiny)
    assert run.main(["--workload", workload, "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    *_, info_line, result_line = capsys.readouterr().out.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    info = json.loads(info_line)
    assert info["provenance"]["workload_seed"] == 42
    assert info["failed_frac"] == 0.0
