"""The benchmark's tracer wraps program functions by module and name.

Installing and removing its wrappers here makes a rename of a wrapped
function (such as ``trainer_sim.split_batch``) fail the unit suite
instead of the traced benchmark run, and a reader pass or forward pass
that stops calling a wrapped layer fail it instead of reporting that
layer at 0.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from rows import as_batch
from sessiondedup import reader, storage, trainer_sim
from sessiondedup.storage import open_table, write_table

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
DECLARED = json.loads((BENCHMARKS.parent / "BENCHMARK.json").read_text())


def test_tracer_wraps_and_restores_every_layer_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing
    import workloads

    before = {
        (mod, name): getattr(mod, name)
        for mod, name in [
            (trainer_sim, "split_batch"),
            (trainer_sim, "sdd"),
            (trainer_sim, "pool"),
            (reader, "build_ikjt"),
            (storage, "decode_varints"),
        ]
    }
    tracer = tracing.Tracer()
    workloads.install(tracer)
    try:
        assert all(getattr(mod, name) is not f for (mod, name), f in before.items())
    finally:
        tracer.restore()
    assert all(getattr(mod, name) is f for (mod, name), f in before.items())


@pytest.mark.parametrize("mode", ["baseline", "dedup"])
def test_reader_pass_calls_every_traced_reader_stage(monkeypatch, tmp_path, mode):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing
    import workloads

    rows = [{"a": [1, 2], "b": [i % 2], "p": [i]} for i in range(7)]
    path = tmp_path / "t.sesscol"
    write_table(as_batch(rows), path)
    spec = reader.DataloaderSpec(
        keys=("a", "b", "p"),
        dedup_sparse_features=(("a", "b"),),
        transforms=(reader.Transform(op="clamp", key="p", param=3),),
        batch_size=3,
    )
    tracer = tracing.Tracer()
    workloads.install(tracer)
    try:
        run_spec = spec if mode == "dedup" else spec.without_dedup()
        batches = list(reader.read_batches(open_table(path), run_spec))
    finally:
        tracer.restore()
    assert sum(b.batch_size for b in batches) == len(rows)
    calls = Counter(s.name for s in tracer.spans)
    names = [f"reader.{stage}" for stage in ("fill", "convert", "process", "emit")]
    names.append("storage.scan")
    if mode == "dedup":
        names.append("tensors.build_ikjt")
    for name in names:
        assert calls[name] >= 1, name


@pytest.mark.parametrize("mode", ["baseline", "dedup"])
def test_forward_pass_calls_every_traced_trainer_layer(monkeypatch, mode):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing
    import workloads

    model = trainer_sim.ModelSpec(
        tables={k: 10 for k in "abcp"},
        groups=(
            trainer_sim.GroupConfig(keys=("a", "b"), pooling="attention"),
            trainer_sim.GroupConfig(keys=("c",), pooling="max"),
        ),
        plain={"p": "sum"},
        dim=4,
    )
    spec = reader.DataloaderSpec(
        keys=model.all_keys, dedup_sparse_features=(("a", "b"), ("c",))
    )
    rows = [{"a": [1, 2], "b": [3], "c": [4, 5], "p": [i]} for i in range(5)]
    batch = reader.convert(as_batch(rows), spec if mode == "dedup" else spec.without_dedup())
    plan = trainer_sim.make_round_robin_plan(model, 2)
    tables = trainer_sim.build_tables(model)
    tracer = tracing.Tracer()
    workloads.install(tracer)
    try:
        trainer_sim.forward_iteration(batch, model, plan, mode, tables)
    finally:
        tracer.restore()
    calls = Counter(s.name for s in tracer.spans)
    for name in ("split_batch", "sdd", "embedding_lookup", "pool", "attention_pool"):
        assert calls[f"trainer_sim.{name}"] >= 1, name


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_declared_workload_runs_at_smoke_scale(monkeypatch, tmp_path, capsys, workload):
    """The harness end to end at 40 sessions, so a program change that
    breaks a call it makes fails here, not only in a benchmark run."""
    # run.py pins the BLAS thread counts on import and main() prepends
    # src and benchmarks to sys.path; both are restored after the test.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_run", BENCHMARKS / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "WORK", tmp_path)
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0", "--sessions", "40"]
    assert bench.main(argv) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
