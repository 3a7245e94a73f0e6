"""The benchmark's workloads, correctness gate and metrics.

Each workload builds its inputs from the seed (set-up, timed on its own),
then runs its timed path in whole units (a baseline pass plus a dedup
pass, or one gen -> cluster -> characterize chain) until another unit
would overrun the time budget. Every unit is checked; failures are
counted, never skipped.

Importing this module needs ``src`` on ``sys.path`` (``run.py`` and the
smoke check arrange that).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import re
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sessiondedup import characterize as charmod
from sessiondedup import cli, datagen, reader, storage, trainer_sim

import speed
import tracing

BATCH_SIZE = 4096
RANKS = 4
SETUPS = 3
TRAIN_SESSIONS = 6000
INGEST_SESSIONS = 2000
WARMUP_SESSIONS = 100

MODES = ("baseline", "dedup")
COUNTERS = (
    "a2a_bytes_fwd",
    "a2a_bytes_back",
    "lookup_count",
    "pooling_mac_count",
    "index_select_elements",
)
LAYERS = ("cli", "datagen", "storage", "varint", "tensors", "reader", "trainer_sim", "characterize")

# End-to-end metrics, in the order BENCHMARK.json declares them.
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "baseline_rows_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "stored_bytes_per_row": "B/row",
    "ok_share": "share",
}

_now = time.perf_counter


class Ops:
    """Attempted and failed operations, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error)


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    work: Path
    sessions: int | None = None
    tracer: tracing.Tracer | None = None
    probe: speed.SpeedProbe | None = None
    ops: Ops = field(default_factory=Ops)
    # op id -> (phase, mode or None); phase is "timed" or "setup-<i>"
    op_meta: dict[str, tuple[str, str | None]] = field(default_factory=dict)

    def operation(self, op: str, name: str, phase: str, mode: str | None = None):
        self.op_meta[op] = (phase, mode)
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.operation(op, name)


def _config(run: Run, default_sessions: int):
    return datagen.default_config(seed=run.seed, num_sessions=run.sessions or default_sessions)


def generator_config(cfg, specs) -> dict:
    return {
        "session": dataclasses.asdict(cfg),
        "features": [dataclasses.asdict(s) for s in specs],
    }


# ---------------------------------------------------------------- checks

_U64 = np.uint64


def _mix(x: np.ndarray) -> np.ndarray:
    # splitmix64, kept apart from the program's own hash so the check
    # cannot share its defects.
    z = x + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _unique_row_hashes(ikjt) -> np.ndarray:
    u = ikjt.unique_count
    h = np.zeros(u, dtype=_U64)
    for j, key in enumerate(ikjt.group_keys):
        jt = ikjt.per_feature[key]
        lengths = jt.row_lengths()
        pos = np.arange(jt.values.size, dtype=np.int64) - np.repeat(jt.offsets, lengths)
        elems = _mix(jt.values.view(_U64) ^ _mix(pos.view(_U64)))
        sums = np.zeros(u, dtype=_U64)
        nonempty = lengths > 0
        if elems.size:
            sums[nonempty] = np.add.reduceat(elems, jt.offsets[nonempty])
        tag = lengths.view(_U64) + _U64(j << 40)
        h = _mix(h ^ _mix(sums ^ _mix(tag)))
    return h


def ikjt_rows_distinct(ikjt) -> bool:
    """True when no two unique rows of the IKJT hold the same lists.

    A dedup that misses a duplicate is wrong even when scores agree;
    rows whose hashes match are compared exactly.
    """
    h = _unique_row_hashes(ikjt)
    order = np.argsort(h, kind="stable")
    hs = h[order]
    starts = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]])
    ends = np.r_[starts[1:], hs.size]
    for s, e in zip(starts, ends):
        rows = order[s:e]
        for a in range(rows.size):
            for b in range(a + 1, rows.size):
                if all(
                    np.array_equal(jt.row(int(rows[a])), jt.row(int(rows[b])))
                    for jt in ikjt.per_feature.values()
                ):
                    return False
    return True


def group_name(keys) -> str:
    return "-".join(keys)


# ---------------------------------------------------------------- train


@dataclass
class BatchResult:
    rows: int
    scores: np.ndarray | None
    error: str | None


@dataclass
class PassResult:
    seconds: float = 0.0
    nominal: float = 0.0
    batches: list[BatchResult] = field(default_factory=list)
    counts: dict = field(
        default_factory=lambda: {
            **{c: 0 for c in COUNTERS},
            "bytes_in": 0,
            "bytes_out": 0,
            "unique_rows": {},
            "values": {"dedup": 0, "full": 0},
        }
    )
    done: bool = False


@dataclass
class TrainInputs:
    file: storage.ColumnarFile
    model: trainer_sim.ModelSpec
    plan: trainer_sim.ShardingPlan
    tables: dict
    spec: reader.DataloaderSpec


def _train_setup(run: Run, path: Path, clustering: str):
    cfg, specs = _config(run, TRAIN_SESSIONS)
    records = datagen.generate_dataset(cfg, specs)
    f = storage.write_table(records, path, clustering=clustering)
    del records
    model = trainer_sim.default_model_spec(specs, seed=run.seed)
    tables = trainer_sim.build_tables(model)
    spec = reader.DataloaderSpec(
        keys=model.all_keys,
        dedup_sparse_features=tuple(g.keys for g in model.groups),
        batch_size=BATCH_SIZE,
    )
    plan = trainer_sim.make_round_robin_plan(model, RANKS)
    return TrainInputs(file=f, model=model, plan=plan, tables=tables, spec=spec), (cfg, specs)


def _expected_rows(row_count: int, i: int) -> int:
    return max(0, min(BATCH_SIZE, row_count - i * BATCH_SIZE))


def _step(run: Run, inp: TrainInputs, it, res: PassResult, mode: str, unit: int) -> None:
    """Read and run the next batch of one pass: fill -> convert ->
    process -> emit -> forward_iteration. Only those calls are timed."""
    i = len(res.batches)
    b = out = error = None
    with run.operation(f"{mode}-{unit}-{i}", "bench.batch", "timed", mode):
        t0 = _now()
        try:
            b = next(it, None)
            if b is not None:
                out = trainer_sim.forward_iteration(b, inp.model, inp.plan, mode, inp.tables)
        except Exception as exc:  # counted as a failed batch by _check_unit
            error = f"{mode} batch {i}: {type(exc).__name__}: {exc}"
        wall, nominal = run.probe.measure(t0)
        res.seconds += wall
        res.nominal += nominal
    if b is None:  # exhausted, or the reader raised and its generator is finished
        res.done = True
        if error is None:
            return
    rows = b.batch_size if b is not None else 0
    want = _expected_rows(inp.file.row_count, i)
    if error is None and rows != want:
        error = f"{mode} batch {i}: {rows} rows, expected {want}"
    if error is None:
        c = res.counts
        stats = out[1]
        for name in COUNTERS:
            c[name] += getattr(stats, name)
        c["bytes_in"] += b.bytes_in
        c["bytes_out"] += b.bytes_out
        for ik in b.ikjts:
            name = group_name(ik.group_keys)
            c["unique_rows"][name] = c["unique_rows"].get(name, 0) + ik.unique_count
            for jt in ik.per_feature.values():
                c["values"]["dedup"] += jt.values.size
                c["values"]["full"] += int(jt.row_lengths()[ik.inverse_lookup].sum())
            if not ikjt_rows_distinct(ik):
                error = f"dedup batch {i}: group {name} keeps duplicate unique rows"
    res.batches.append(BatchResult(rows=rows, scores=out[0] if error is None else None, error=error))


def _run_unit(run: Run, inp: TrainInputs, unit: int) -> dict[str, PassResult]:
    """One full baseline pass and one full dedup pass, batch by batch in
    turn, so both modes are timed over the same stretch of wall time."""
    specs = {"baseline": inp.spec.without_dedup(), "dedup": inp.spec}
    its = {m: reader.read_batches(inp.file, specs[m]) for m in MODES}
    res = {m: PassResult() for m in MODES}
    while not all(r.done for r in res.values()):
        for m in MODES:
            if not res[m].done:
                _step(run, inp, its[m], res[m], m, unit)
    for r in res.values():
        r.counts["rows"] = sum(b.rows for b in r.batches if b.error is None)
    return res


def _check_unit(run: Run, inp: TrainInputs, base: PassResult, dedup: PassResult) -> None:
    """One operation per batch and mode. A dedup batch fails unless its
    scores are bit-equal to the baseline scores for the same rows."""
    n = max(math.ceil(inp.file.row_count / BATCH_SIZE), len(base.batches), len(dedup.batches))
    for i in range(n):
        bb = base.batches[i] if i < len(base.batches) else None
        db = dedup.batches[i] if i < len(dedup.batches) else None
        berr = f"baseline batch {i}: missing" if bb is None else bb.error
        run.ops.record(berr)
        if db is None:
            derr = f"dedup batch {i}: missing"
        elif db.error is not None:
            derr = db.error
        elif berr is not None:
            derr = f"dedup batch {i}: no baseline scores to compare with"
        elif not np.array_equal(db.scores, bb.scores):
            derr = f"dedup batch {i}: scores differ from baseline"
        else:
            derr = None
        run.ops.record(derr)


def train(run: Run, clustering: str) -> dict:
    path = run.work / f"{run.workload}.sesscol"
    setups = []
    for i in range(SETUPS):
        # Each set-up starts from the same heap, so peak RSS is that of one.
        inp = None
        gc.collect()
        with run.operation(f"setup-{i}", "bench.setup", f"setup-{i}"):
            t0 = _now()
            inp, (cfg, specs) = _train_setup(run, path, clustering)
            setups.append(run.probe.measure(t0))
    units = []
    start = _now()
    while True:
        t0 = _now()
        unit = _run_unit(run, inp, len(units))
        _check_unit(run, inp, unit["baseline"], unit["dedup"])
        units.append(unit)
        if _now() - start + (_now() - t0) > run.seconds:
            break
    counts = {m: units[0][m].counts for m in MODES}
    for k, u in enumerate(units[1:], 1):
        same = all(u[m].counts == counts[m] for m in MODES)
        run.ops.record(None if same else f"unit {k}: counts differ from unit 0")
    rows = inp.file.row_count
    raw, comp = storage.stream_sizes(inp.file)
    counts["file"] = {"rows": rows, "bytes": path.stat().st_size, "raw_stream_bytes": raw, "compressed_bytes": comp}
    dd = counts["dedup"]

    def rate(mode, nominal=True):
        return statistics.median(
            u[mode].counts["rows"] / (u[mode].nominal if nominal else u[mode].seconds) for u in units
        )

    e2e = {
        "setup_s": statistics.median(n for _, n in setups),
        "rows_per_s": rate("dedup"),
        "baseline_rows_per_s": rate("baseline"),
        "stored_bytes_per_row": counts["file"]["bytes"] / rows,
    }
    report = {
        "train_rows_per_s": e2e["rows_per_s"],
        "baseline_rows_per_s": e2e["baseline_rows_per_s"],
        "a2a_bytes_per_row": (dd["a2a_bytes_fwd"] + dd["a2a_bytes_back"]) / rows,
        "raw_train_rows_per_s": rate("dedup", nominal=False),
        "raw_baseline_rows_per_s": rate("baseline", nominal=False),
        "raw_setup_s": statistics.median(w for w, _ in setups),
    }
    layer = {}
    for m in MODES:
        c = counts[m]
        for name in COUNTERS:
            layer[f"trainer_sim.{name}.{m}"] = c[name]
        layer[f"reader.bytes_in.{m}"] = c["bytes_in"]
        layer[f"reader.bytes_out.{m}"] = c["bytes_out"]
    for g in inp.model.groups:
        name = group_name(g.keys)
        layer[f"tensors.unique_row_share.{name}"] = dd["unique_rows"].get(name, 0) / rows
    v = dd["values"]
    layer["tensors.values_dedupe_factor"] = v["full"] / v["dedup"] if v["dedup"] else 0.0
    layer["storage.compressed_bytes"] = comp
    layer["storage.raw_stream_bytes"] = raw
    return {
        "e2e": e2e,
        "report": report,
        "layer": layer,
        "counts": counts,
        "units": len(units),
        "config": generator_config(cfg, specs),
    }


# ---------------------------------------------------------------- ingest

_RECORDS_LINE = re.compile(r"^records: (\d+)$", re.M)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def _chain(run: Run, tag: str, op: str, cfg_path: Path, phase: str, times: dict | None = None):
    """gen -> cluster -> characterize through ``cli.main``, one operation
    per command. Returns (rows, clustered file, command stdout with the
    work directory replaced by ``<work>``)."""
    raw = run.work / f"{tag}-raw.sesscol"
    clustered = run.work / f"{tag}-clustered.sesscol"
    commands = (
        ("gen", ["gen", "--config", str(cfg_path), "--out", str(raw)]),
        ("cluster", ["cluster", str(raw), "--out", str(clustered)]),
        ("characterize", ["characterize", str(clustered), "--batch-size", str(BATCH_SIZE)]),
    )
    rows = None
    outputs = {}
    for name, argv in commands:
        with run.operation(f"{op}-{name}", f"cli.{name}", phase):
            t0 = _now()
            rc, out, err = _cli(argv)
            dt = run.probe.measure(t0)
        if times is not None:
            times[name] = dt
        outputs[name] = out.replace(str(run.work), "<work>")
        error = None if rc == 0 else f"{tag} {name}: exit {rc}: {err.strip()[-300:]}"
        if error is None and name == "gen":
            rows = storage.open_table(raw).row_count
        elif error is None and name == "cluster":
            got = storage.open_table(clustered).row_count
            if got != rows:
                error = f"{tag} cluster: {got} rows, generated {rows}"
        elif error is None and name == "characterize":
            m = _RECORDS_LINE.search(out)
            if m is None or int(m.group(1)) != rows:
                error = f"{tag} characterize: reported {m and m.group(1)} records, file has {rows}"
        run.ops.record(error)
    return rows, clustered, outputs


def ingest(run: Run) -> dict:
    cfg, specs = _config(run, INGEST_SESSIONS)
    cfg_path = run.work / "ingest-config.json"
    warm_path = run.work / "ingest-warmup-config.json"
    setups = []
    for i in range(SETUPS):
        # Set-up writes the generator config and runs the chain once on a
        # tiny config, so lazy first-call costs are paid before timing.
        t0 = _now()
        datagen.save_config(cfg_path, cfg, specs)
        warm_cfg, warm_specs = datagen.default_config(
            seed=run.seed, num_sessions=min(WARMUP_SESSIONS, cfg.num_sessions)
        )
        datagen.save_config(warm_path, warm_cfg, warm_specs)
        _chain(run, "warmup", f"setup-{i}", warm_path, f"setup-{i}")
        setups.append(run.probe.measure(t0))
    units = []
    start = _now()
    while True:
        t0 = _now()
        times: dict[str, tuple[float, float]] = {}
        rows, clustered, outputs = _chain(run, "ingest", f"chain-{len(units)}", cfg_path, "timed", times)
        units.append((rows, clustered, outputs, times))
        if _now() - start + (_now() - t0) > run.seconds:
            break
    rows, clustered, outputs = units[0][:3]
    for k, u in enumerate(units[1:], 1):
        run.ops.record(None if (u[0], u[2]) == (rows, outputs) else f"chain {k}: output differs")
    rows = rows or 0
    size = clustered.stat().st_size if clustered.exists() else 0
    raw_b, comp_b = storage.stream_sizes(storage.open_table(clustered)) if size else (0, 0)
    counts = {
        "file": {"rows": rows, "bytes": size, "raw_stream_bytes": raw_b, "compressed_bytes": comp_b},
        "stdout_sha256": {
            k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()
        },
    }

    def rate(names, nominal=True):
        k = 1 if nominal else 0
        return statistics.median(rows / sum(u[3][n][k] for n in names) for u in units)

    chain = rate(units[0][3])
    e2e = {
        "setup_s": statistics.median(n for _, n in setups),
        "rows_per_s": chain,
        # Ingest has no dedup mode: with dedup off it runs the same chain.
        "baseline_rows_per_s": chain,
        "stored_bytes_per_row": size / rows if rows else 0.0,
    }
    report = {f"{c}_rows_per_s": rate([c]) for c in ("gen", "cluster", "characterize")}
    layer = {f"cli.{k}": v for k, v in report.items()}
    report["raw_rows_per_s"] = rate(units[0][3], nominal=False)
    report["raw_setup_s"] = statistics.median(w for w, _ in setups)
    layer["storage.compressed_bytes"] = comp_b
    layer["storage.raw_stream_bytes"] = raw_b
    return {
        "e2e": e2e,
        "report": report,
        "layer": layer,
        "counts": counts,
        "units": len(units),
        "config": generator_config(cfg, specs),
    }


# ---------------------------------------------------------------- tracing


def install(tracer: tracing.Tracer) -> None:
    """Wrap every layer boundary the workloads cross.

    Callers reach these functions through module attributes (``storage``
    imports the varint codec, ``reader`` imports ``scan`` and the tensor
    builders by name), so each wrapper sits where the caller looks.
    """
    w = tracer.wrap
    w(storage, "decode_varints", "varint.decode_varints", size=lambda buf, *a: len(buf))
    w(storage, "encode_varints", "varint.encode_varints")
    w(storage, "write_table", "storage.write_table")
    for mod in (storage, reader):
        tracer.wrap_iter(mod, "scan", "storage.scan", size=lambda b: b.bytes_read)
    w(datagen, "generate_dataset", "datagen.generate_dataset")
    w(reader, "build_ikjt", "tensors.build_ikjt")
    w(reader, "build_kjt", "tensors.build_kjt")
    for name in ("fill", "convert", "process", "emit"):
        w(reader, name, f"reader.{name}")
    for name in ("forward_iteration", "split_batch", "sdd", "embedding_lookup", "pool", "attention_pool"):
        w(trainer_sim, name, f"trainer_sim.{name}")
    for name in ("compute_dup_stats", "exact_dup_pct", "partial_dup_pct", "byte_weighted", "session_histogram"):
        w(charmod, name, f"characterize.{name}")


def span_metrics(run: Run, units: int) -> dict:
    """Per-layer metrics from the spans.

    A layer called in the timed phase reports its time per unit; a layer
    called only during set-up (generation and writing in the train
    workloads) reports the median over set-ups.
    """
    spans = run.tracer.spans
    selfs = tracing.self_times(spans)
    meta = run.op_meta

    def timed(mode=None):
        t = tracing.totals(
            spans,
            selfs,
            lambda s: s.op in meta
            and meta[s.op][0] == "timed"
            and (mode is None or meta[s.op][1] == mode),
        )
        return {k: {f: v / units for f, v in d.items()} for k, d in t.items()}

    setup_phases = sorted({p for p, _ in meta.values() if p.startswith("setup")})
    per_setup = [
        tracing.totals(spans, selfs, lambda s, p=p: s.op in meta and meta[s.op][0] == p)
        for p in setup_phases
    ]
    all_timed = timed()
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0, "size": 0}

    def get(name, what):
        if name in all_timed:
            return all_timed[name][what]
        if per_setup:
            return statistics.median(t.get(name, zero)[what] for t in per_setup)
        return zero[what]

    m = {
        "varint.decode_s": get("varint.decode_varints", "s"),
        "varint.decode_calls": get("varint.decode_varints", "calls"),
        "varint.decode_bytes": get("varint.decode_varints", "size"),
        "varint.encode_s": get("varint.encode_varints", "s"),
        "varint.encode_calls": get("varint.encode_varints", "calls"),
        "storage.scan_s": get("storage.scan", "s"),
        "storage.write_table_s": get("storage.write_table", "s"),
        "storage.bytes_read": get("storage.scan", "size"),
        "datagen.generate_dataset_s": get("datagen.generate_dataset", "s"),
    }
    for mode in MODES:
        t = timed(mode)

        def s(name, what="s"):
            return t.get(name, zero)[what]

        m[f"tensors.build_kjt_s.{mode}"] = s("tensors.build_kjt")
        if mode == "dedup":
            m["tensors.build_ikjt_s.dedup"] = s("tensors.build_ikjt")
        for stage in ("fill", "convert", "process", "emit"):
            m[f"reader.{stage}_s.{mode}"] = s(f"reader.{stage}")
        m[f"trainer_sim.forward_s.{mode}"] = s("trainer_sim.forward_iteration")
        for name in ("split_batch", "sdd", "embedding_lookup", "pool", "attention_pool"):
            m[f"trainer_sim.{name}_s.{mode}"] = s(f"trainer_sim.{name}")
        m[f"trainer_sim.forward_self_s.{mode}"] = s("trainer_sim.forward_iteration", "self_s")
    for name in ("exact_dup_pct", "partial_dup_pct"):
        m[f"characterize.{name}_s"] = get(f"characterize.{name}", "s")
        m[f"characterize.{name}_calls"] = get(f"characterize.{name}", "calls")
    m["characterize.byte_weighted_s"] = get("characterize.byte_weighted", "s")
    m["characterize.session_histogram_s"] = get("characterize.session_histogram", "s")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, d in all_timed.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += d["self_s"]
    for layer, v in layer_self.items():
        m[f"{layer}.self_s"] = v
    return m


# ---------------------------------------------------------------- run


def ledger_check(run: Run, counts: dict, key: str) -> None:
    """Counts must repeat exactly across runs of the same code and seed:
    the first run without failures records them, later runs compare."""
    path = run.work / "ledger" / f"{key}.json"
    text = json.dumps(counts, sort_keys=True)
    if path.exists():
        same = path.read_text() == text
        run.ops.record(None if same else f"counts differ from the earlier run recorded in {path.name}")
    elif run.ops.failed == 0:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def run_workload(run: Run) -> dict:
    """Run one workload; returns e2e metrics, per-layer metrics (traced
    runs) and everything the report prints."""
    if run.tracer is not None:
        install(run.tracer)
    t0 = _now()
    try:
        with speed.SpeedProbe(run.tracer) as run.probe:
            if run.workload == "ingest":
                res = ingest(run)
            else:
                res = train(run, "by_session" if run.workload == "train-clustered" else "none")
    finally:
        if run.tracer is not None:
            run.tracer.restore()
    wall = _now() - t0
    res["e2e"]["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.tracer is not None:
        layer = {**span_metrics(run, res["units"]), **res["layer"]}
        spans = len(run.tracer.spans)
        overhead = spans * tracing.span_cost_s()
        layer["trace.span_count"] = spans
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_share"] = overhead / wall
        layer["trace.rows_per_s"] = res["e2e"]["rows_per_s"]
        res["layer"] = layer
    return res


def per_layer_names(groups) -> list[str]:
    """Every per-layer metric a traced run emits, given the dedup group
    names of the model."""
    names = [
        "varint.decode_s", "varint.decode_calls", "varint.decode_bytes",
        "varint.encode_s", "varint.encode_calls",
        "storage.scan_s", "storage.write_table_s", "storage.bytes_read",
        "storage.compressed_bytes", "storage.raw_stream_bytes",
        "datagen.generate_dataset_s",
        "tensors.build_ikjt_s.dedup", "tensors.build_kjt_s.dedup", "tensors.build_kjt_s.baseline",
    ]
    names += [f"tensors.unique_row_share.{g}" for g in groups]
    names.append("tensors.values_dedupe_factor")
    for mode in MODES:
        names += [f"reader.{s}.{mode}" for s in ("fill_s", "convert_s", "process_s", "emit_s", "bytes_in", "bytes_out")]
    for mode in MODES:
        names += [
            f"trainer_sim.{s}_s.{mode}"
            for s in ("forward", "split_batch", "sdd", "embedding_lookup", "pool", "attention_pool", "forward_self")
        ]
    for mode in MODES:
        names += [f"trainer_sim.{c}.{mode}" for c in COUNTERS]
    names += [
        "characterize.exact_dup_pct_s", "characterize.exact_dup_pct_calls",
        "characterize.partial_dup_pct_s", "characterize.partial_dup_pct_calls",
        "characterize.byte_weighted_s", "characterize.session_histogram_s",
        "cli.gen_rows_per_s", "cli.cluster_rows_per_s", "cli.characterize_rows_per_s",
    ]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.span_count", "trace.overhead_s", "trace.overhead_share", "trace.rows_per_s"]
    return names


def default_groups() -> list[str]:
    _, specs = datagen.default_config()
    return [group_name(g.keys) for g in trainer_sim.default_model_spec(specs).groups]


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")) + sorted((root / "benchmarks").glob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()
