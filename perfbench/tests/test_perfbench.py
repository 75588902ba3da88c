"""Self-tests of the benchmark at toy scale.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def _printed(stdout: str) -> dict[str, str]:
    """``name = value unit`` lines -> {name: unit}."""
    units = {}
    for line in stdout.splitlines():
        name, sep, rest = line.removeprefix("untraced ").partition(" = ")
        if sep:
            units[name] = rest.split()[-1]
    return units


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_and_prints_every_metric(workload: str) -> None:
    # A closed loop given 0 s runs one pass; serve-mix sends 8 requests a second.
    seconds = "1" if workload == "serve-mix" else "0"
    proc = _cli("--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", "1", "--toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert 1 <= result["attempted"] <= 40
    printed = _printed(proc.stdout)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
    layer_metrics = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layer_metrics


def test_untraced_run_reports_end_to_end_metrics() -> None:
    proc = _cli(
        "--workload", "cold-small", "--seed", "1", "--seconds", "1", "--trace", "0", "--toy"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tampered_store_record_fails_served_equals_cold(tmp_path: Path) -> None:
    setup = run.set_up("serve-mix", 0, 1.0, True, tmp_path)
    assert setup.cold, "toy serve-mix pre-fills at least one trace"
    record = next(setup.store_dir.glob("*.json"))
    payload = json.loads(record.read_text(encoding="utf-8"))
    payload["report"]["text"] += "\n[tampered]"
    record.write_text(json.dumps(payload), encoding="utf-8")

    outcome = run.measure("serve-mix", setup, 0, 1.0, False, tmp_path)

    assert not outcome.correct and outcome.failed >= 1


def test_repeated_digest_fails_zero_hit_check(tmp_path: Path, capsys) -> None:
    setup = run.set_up("cold-small", 0, 1.0, True, tmp_path)
    setup.pool[1] = setup.pool[0]

    outcome = run.measure("cold-small", setup, 0, 1.0, False, tmp_path)

    assert not outcome.correct
    printed = capsys.readouterr().out
    assert re.search(r"CHECK FAILED: cold workload recorded \d+ memory hits", printed)


def test_schedule_is_a_pure_function_of_the_seed() -> None:
    one, again, other = (workloads.serve_schedule(s, 15.0) for s in (4, 4, 5))
    assert one == again and one != other
    n = round(workloads.SERVE_RATE_PER_S * 15.0)
    assert len(one.due) == len(other.due) == n
    assert one.n_items == other.n_items == -(-n // workloads.SERVE_NEW_EVERY)


def test_spec_baselines_cover_every_metric_and_workload() -> None:
    spec = workloads.SPEC
    assert set(spec["workloads"]) == set(workloads.WORKLOADS)
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    for set_ in spec["baseline"]["sets"]:
        assert set(set_["median"]) == set(set_["spread"]) == set(workloads.WORKLOADS)
        for name in workloads.WORKLOADS:
            assert set(set_["median"][name]) == set(set_["spread"][name]) == metrics


def test_result_line_is_preceded_by_request_counts() -> None:
    proc = _cli(
        "--workload", "serve-mix", "--seed", "2", "--seconds", "1", "--trace", "0", "--toy"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = re.search(
        r"^requests untraced: attempted (\d+) succeeded (\d+) failed (\d+) rejected (\d+)$",
        proc.stdout,
        re.M,
    )
    assert counts, proc.stdout
    attempted, succeeded, failed, rejected = map(int, counts.groups())
    assert attempted == succeeded + failed + rejected >= 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["attempted"] == attempted


def test_saturation_sweep_reports_each_rate_it_passes(capsys) -> None:
    import saturation

    assert saturation.sweep(0, 1.0, [2.0, 4.0]) == 4.0
    printed = capsys.readouterr().out
    assert printed.count("/s  passed") == 2 and "highest rate passed: 4.0" in printed


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)

    proc = _cli(
        "--workload", "cold-small", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )

    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
