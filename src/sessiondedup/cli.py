"""Command-line orchestration.

Subcommands:
  gen           generate a synthetic dataset file from a config
  cluster       rewrite a dataset clustered by (session_id, timestamp)
  characterize  duplication statistics for a dataset
  bench         run the reader + trainer pipeline, baseline vs dedup
  plotdata      turn a bench report into gnuplot-ready .dat files

Relative dataset paths resolve against $SESSIONDEDUP_DATA_DIR when they
do not exist locally. Every command is deterministic under a fixed seed
(bench reports carry wall-clock timings, which naturally vary).
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import os
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import characterize as charmod
from . import datagen, reader, storage, tensors, trainer_sim

__all__ = ["main", "cmd_gen", "cmd_cluster", "cmd_characterize", "cmd_bench"]

DATA_DIR_ENV = "SESSIONDEDUP_DATA_DIR"


def data_dir() -> Path:
    return Path(os.environ.get(DATA_DIR_ENV, "."))


def _resolve_in(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    candidate = data_dir() / path
    if candidate.exists():
        return candidate
    raise FileNotFoundError(f"no such dataset: {path} (also tried {candidate})")


def _resolve_out(path: str) -> Path:
    p = Path(path)
    if p.is_absolute() or p.parent != Path("."):
        return p
    return data_dir() / p


@dataclass(frozen=True)
class ModeTotals:
    batches: int = 0
    rows: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    timings: reader.StageTimings = field(default_factory=reader.StageTimings)
    stats: trainer_sim.IterationStats = field(default_factory=trainer_sim.IterationStats)


def _fold(total, part):
    """Field-wise total of two dataclasses of one type, nested ones
    included: a field folds by its ``fold`` metadata if it declares one,
    and otherwise adds up."""

    def one(f, a, b):
        if is_dataclass(a):
            return _fold(a, b)
        return f.metadata.get("fold", operator.add)(a, b)

    return replace(
        total,
        **{
            f.name: one(f, getattr(total, f.name), getattr(part, f.name))
            for f in fields(total)
        },
    )


def _ratio(a: float, b: float) -> float:
    return a / b if b else 1.0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.config:
        cfg, specs = datagen.load_config(args.config)
    else:
        cfg, specs = datagen.default_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    table = datagen.generate_dataset(cfg, specs)
    out = _resolve_out(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    f = storage.write_table(
        table,
        out,
        stripe_rows=args.stripe_rows,
        clustering=args.clustering,
        level=args.level,
        feature_specs=[asdict(s) for s in specs],
    )
    print(
        f"wrote {f.row_count} records, {len(f.stripes)} stripes, "
        f"{out.stat().st_size} bytes -> {out}"
    )
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    src = _resolve_in(args.dataset)
    out = _resolve_out(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fin = storage.open_table(src)
    # Measured first: with --out naming the input, the output replaces it.
    bytes_a = src.stat().st_size
    fout = storage.write_table(
        next(storage.scan(fin, fin.row_count)),
        out,
        stripe_rows=args.stripe_rows,
        clustering="by_session",
        level=fin.level,
        feature_specs=fin.feature_specs,
    )
    bytes_b = out.stat().st_size
    print(f"clustered {fout.row_count} rows -> {out}")
    print(f"file bytes {bytes_a} -> {bytes_b} (ratio {_ratio(bytes_a, bytes_b):.3f})")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    src = _resolve_in(args.dataset)
    f = storage.open_table(src)
    keys = args.keys.split(",") if args.keys else list(f.feature_keys)
    keys = [k for k in keys if k]
    # Each stripe keeps the counted features only, as stored, so no other feature stays held.
    read = (storage.read_stripe(f, i) for i in range(len(f.stripes)))
    stripes = [replace(b, features=tensors.KJT(len(b), tensors._entries(b, keys))) for b in read]
    stats = charmod.compute_dup_stats(stripes, keys, batch_size=args.batch_size)
    print(f"records: {f.row_count}")
    print(
        f"samples/session: partition mean {stats.partition.mean:.3f}, "
        f"batch({args.batch_size}) mean {stats.per_batch.mean:.3f}"
    )
    if keys:
        print(f"{'feature':<20} {'exact%':>8} {'partial%':>9} {'avg_len':>8}")
        for k in keys:
            fs = stats.per_feature[k]
            print(
                f"{k:<20} {fs.exact_dup_pct:>8.2f} {fs.partial_dup_pct:>9.2f} "
                f"{fs.avg_len:>8.2f}"
            )
        print(
            f"byte-weighted: exact {stats.byte_weighted_exact_pct:.2f}% "
            f"partial {stats.byte_weighted_partial_pct:.2f}%"
        )
    if args.out:
        out = _resolve_out(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(charmod.dup_stats_to_csv(stats))
        print(f"csv -> {out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.batches < 0:
        raise ValueError("--batches must be >= 0")
    if args.spec and args.batch_size is not None:
        raise ValueError(f"--batch-size cannot be used with --spec {args.spec}: the spec sets the batch size")
    if args.model_spec and args.seed is not None:
        raise ValueError(f"--seed cannot be used with --model-spec {args.model_spec}: the spec sets the seed")
    src = _resolve_in(args.dataset)
    f = storage.open_table(src)
    if args.model_spec:
        model = trainer_sim.load_model_spec(args.model_spec)
    elif f.feature_specs is None:
        raise ValueError(f"{src} records no feature specs: pass --model-spec")
    else:
        specs = [datagen.FeatureSpec(**d) for d in f.feature_specs]
        model = trainer_sim.default_model_spec(specs, seed=args.seed or 0)
    if args.spec:
        dl_spec = reader.load_dataloader_spec(args.spec)
    else:
        dl_spec = reader.DataloaderSpec(
            keys=model.all_keys,
            dedup_sparse_features=tuple(g.keys for g in model.groups),
            transforms=(),
            batch_size=4096 if args.batch_size is None else args.batch_size,
        )
    plan = trainer_sim.make_round_robin_plan(model, args.ranks)
    tables = trainer_sim.build_tables(model)

    modes = [m for m in ("baseline", "dedup") if args.mode in (m, "both")]
    streams = [
        reader.read_batches(f, dl_spec if m == "dedup" else dl_spec.without_dedup())
        for m in modes
    ]
    totals = {m: ModeTotals() for m in modes}
    for batches in itertools.islice(zip(*streams), args.batches or None):
        scores = []
        for mode, b in zip(modes, batches):
            s, stats = trainer_sim.forward_iteration(b, model, plan, mode, tables)
            batch_totals = ModeTotals(
                1, b.batch_size, b.bytes_in, b.bytes_out, b.stage_timings, stats
            )
            totals[mode] = _fold(totals[mode], batch_totals)
            scores.append(s)
        if len(scores) == 2 and not np.array_equal(*scores):
            raise RuntimeError("dedup and baseline scores diverged; this build is broken")

    size = src.stat().st_size
    speedups = {}
    if len(modes) == 2:
        bl, dd = totals["baseline"], totals["dedup"]
        speedups = {
            "scores_equal": True,  # a divergence raises above
            "bytes_out_ratio": _ratio(bl.bytes_out, dd.bytes_out),
            "a2a_fwd_ratio": _ratio(bl.stats.a2a_bytes_fwd, dd.stats.a2a_bytes_fwd),
            "a2a_back_ratio": _ratio(bl.stats.a2a_bytes_back, dd.stats.a2a_bytes_back),
            "lookup_ratio": _ratio(bl.stats.lookup_count, dd.stats.lookup_count),
            "mac_ratio": _ratio(bl.stats.pooling_mac_count, dd.stats.pooling_mac_count),
        }
    ran = {m: asdict(t) for m, t in totals.items() if t.batches}
    report = {
        "config": {
            "dataset": str(src),
            "batch_size": dl_spec.batch_size,
            "ranks": args.ranks,
            "mode": args.mode,
            "seed": model.seed,
            "batches": totals[modes[0]].batches,
            "model_groups": [list(g.keys) for g in model.groups],
        },
        "storage": {"file_bytes": size, "rows": f.row_count, "bytes_per_row": size / f.row_count},
        "reader": {m: {k: v for k, v in t.items() if k != "stats"} for m, t in ran.items()},
        "trainer": {m: t["stats"] for m, t in ran.items()},
        "speedups": speedups,
    }
    payload = json.dumps(report, indent=2) + "\n"
    if args.out:
        out = _resolve_out(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(payload)
        print(f"report -> {out}")
    else:
        print(payload, end="")
    return 0


def cmd_plotdata(args: argparse.Namespace) -> int:
    report = json.loads(_resolve_in(args.report).read_text())
    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["# counter baseline dedup ratio"]
    tr = report.get("trainer", {})
    if "baseline" in tr and "dedup" in tr:
        for key in tr["baseline"]:
            b, d = tr["baseline"][key], tr["dedup"][key]
            lines.append(f"{key} {b} {d} {_ratio(b, d):.6f}")
    (out_dir / "counters.dat").write_text("\n".join(lines) + "\n")
    lines = ["# stage baseline_s dedup_s"]
    rd = report.get("reader", {})
    if "baseline" in rd and "dedup" in rd:
        for stage in rd["baseline"]["timings"]:
            lines.append(
                f"{stage} {rd['baseline']['timings'][stage]:.6f} "
                f"{rd['dedup']['timings'][stage]:.6f}"
            )
    (out_dir / "stages.dat").write_text("\n".join(lines) + "\n")
    print(f"plot data -> {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sessiondedup",
        description="Session-centric dedup pipeline: generate, cluster, "
        "characterize, and benchmark.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--config", help="generator config JSON (default: built-in)")
    g.add_argument("--seed", type=int, default=None, help="override config seed")
    g.add_argument("--out", default="dataset.sesscol")
    g.add_argument("--clustering", choices=["none", "by_session"], default="none")
    g.add_argument("--stripe-rows", type=int, default=storage.DEFAULT_STRIPE_ROWS)
    g.add_argument("--level", type=int, default=storage.DEFAULT_LEVEL)
    g.set_defaults(func=cmd_gen, stage="gen")

    c = sub.add_parser("cluster", help="rewrite a dataset clustered by session")
    c.add_argument("dataset")
    c.add_argument("--out", required=True)
    c.add_argument("--stripe-rows", type=int, default=storage.DEFAULT_STRIPE_ROWS)
    c.set_defaults(func=cmd_cluster, stage="cluster")

    ch = sub.add_parser("characterize", help="duplication statistics")
    ch.add_argument("dataset")
    ch.add_argument("--keys", default=None, help="comma-separated feature keys")
    ch.add_argument("--batch-size", type=int, default=4096)
    ch.add_argument("--out", default=None, help="also write CSV here")
    ch.set_defaults(func=cmd_characterize, stage="characterize")

    b = sub.add_parser("bench", help="reader+trainer pipeline benchmark")
    b.add_argument("dataset")
    b.add_argument("--spec", default=None, help="dataloader spec JSON")
    b.add_argument("--model-spec", default=None, help="model spec JSON")
    b.add_argument("--batch-size", type=int, default=None, help="default 4096; not with --spec")
    b.add_argument("--ranks", type=int, default=2)
    b.add_argument("--mode", choices=["baseline", "dedup", "both"], default="both")
    b.add_argument("--batches", type=int, default=0, help="limit batches (0 = all)")
    b.add_argument("--seed", type=int, default=None, help="default 0; not with --model-spec")
    b.add_argument("--out", default=None, help="write report JSON here")
    b.set_defaults(func=cmd_bench, stage="bench")

    pl = sub.add_parser("plotdata", help="emit gnuplot data from a bench report")
    pl.add_argument("report")
    pl.add_argument("--out", default="plots")
    pl.set_defaults(func=cmd_plotdata, stage="plotdata")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error [{args.stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
