"""Self-tests of the benchmark (run with ``python3 -m pytest perfbench/tests``).

- a smoke-size run of every workload emits every metric that
  BENCHMARK.json names, traced and untraced, and passes its checks;
- a deliberately wrong reference fails the output check;
- without the engine source the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from inputs import Sizes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert np.isfinite(reported["value"])
        if trace == "0":
            assert reported["value"] > 0


def test_wrong_reference_fails_the_output_check(tmp_path, monkeypatch):
    data = workloads.make_data(4, Sizes.smoke(), with_series=False)
    database, _seconds = workloads.set_up(tmp_path, data)
    correct = workloads.reference_forward
    monkeypatch.setattr(
        workloads, "reference_forward",
        lambda model, features: correct(model, features) + 0.01,
    )
    try:
        outcome = workloads.point_score(database, data, 0.3, None)
    finally:
        database.close()
    assert outcome.attempted > 0
    assert any("predictions differ" in problem for problem in outcome.problems)


def test_partial_groups_fold_to_the_serial_answer():
    serial = {0: (3, 1.5), 1: (2, 1.0)}
    parallel_rows = [(0, 1, 0.5), (1, 1, 0.25), (0, 2, 1.0), (1, 1, 0.75)]
    merged = checks.merge_partials(parallel_rows)
    assert checks.compare_groups("parallel", merged, serial) == []
    torn = checks.merge_partials([(0, 3, 1.5), (1, 2, 1.2)])
    assert checks.compare_groups("parallel", torn, serial)


def test_without_the_engine_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "point_score", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
