"""Smoke check of the benchmark itself, at a tiny scale (40 sessions).

Not part of the unit suite (pytest collects only ``tests/``). Run it
from the root of the repository with:

    python3 -m pytest -q benchmarks/smoke_check.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from sessiondedup import reader, tensors, trainer_sim  # noqa: E402

SESSIONS = 40
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run_cli(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--sessions", str(SESSIONS),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return _last_json(proc.stdout)


def _run_in_process(capsys, workload: str, seed: int) -> dict:
    code = bench.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0",
         "--sessions", str(SESSIONS)]
    )
    assert code == 0
    return _last_json(capsys.readouterr().out)


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(workload, trace):
    res = _run_cli(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


def test_perturbed_dedup_score_is_counted(capsys, monkeypatch):
    forward = trainer_sim.forward_iteration

    def perturbed(batch, spec, plan, mode, tables=None):
        scores, stats = forward(batch, spec, plan, mode, tables)
        if mode == "dedup":
            scores = scores.copy()
            scores[0] = np.nextafter(scores[0], np.float32(2))
        return scores, stats

    monkeypatch.setattr(trainer_sim, "forward_iteration", perturbed)
    res = _run_in_process(capsys, "train-clustered", seed=11)
    assert not res["correct"]
    assert res["failed"] >= 1
    assert res["metrics"]["ok_share"]["value"] < 1.0


def test_missed_duplicates_are_counted(capsys, monkeypatch):
    """A dedup that keeps every row gives equal scores but is wrong."""

    def no_dedup(rows, group):
        kjt = tensors.build_kjt(rows, group)
        return tensors.IKJT(
            batch_size=len(rows),
            group_keys=tuple(group),
            inverse_lookup=np.arange(len(rows)),
            per_feature=kjt.entries,
        )

    monkeypatch.setattr(reader, "build_ikjt", no_dedup)
    res = _run_in_process(capsys, "train-clustered", seed=13)
    assert not res["correct"]
    assert res["failed"] >= 1


def test_counts_must_repeat_across_runs(capsys):
    first = _run_in_process(capsys, "ingest", seed=12)
    assert first["failed"] == 0
    digest = workloads.source_digest(ROOT)[:16]
    ledger = bench.WORK / "ledger" / f"ingest-seed12-s{SESSIONS}-{digest}.json"
    saved = ledger.read_text()
    try:
        again = _run_in_process(capsys, "ingest", seed=12)
        assert again["failed"] == 0
        ledger.write_text(saved.replace('"rows": ', '"rows": 1'))
        tampered = _run_in_process(capsys, "ingest", seed=12)
        assert tampered["failed"] == 1
    finally:
        ledger.write_text(saved)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in DECLARED["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", DECLARED["workloads"][0]["name"],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
