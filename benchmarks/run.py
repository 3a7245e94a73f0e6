"""sessiondedup benchmark: one workload per process, correctness-gated.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload train-clustered --seed 0 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps every
layer boundary, records spans and reports the per-layer metrics instead.
``all`` runs every workload in its own process and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it report provenance and every measured number by name and unit. Work
files, spans, results and the count ledger go under ``.bench_build/``.
"""

from __future__ import annotations

import os

# BLAS pools are capped at one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "sessiondedup"
WORKLOADS = ("train-clustered", "train-interleaved", "ingest")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--sessions",
        type=int,
        default=None,
        help="override the workload's session count (smoke checks only)",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.sessions is not None and args.sessions < 1:
        p.error("--sessions must be >= 1")
    return args


def git_commit() -> str | None:
    """The checked-out commit, read from .git directly; None outside git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    return None


def run_one(args: argparse.Namespace) -> int:
    import numpy as np

    import tracing
    import workloads as wl

    load_1m = os.getloadavg()[0]
    WORK.mkdir(parents=True, exist_ok=True)
    run = wl.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        work=WORK,
        sessions=args.sessions,
        tracer=tracing.Tracer() if args.trace else None,
    )
    tag = f"{args.workload}-seed{args.seed}" + (f"-s{args.sessions}" if args.sessions else "")
    try:
        res = wl.run_workload(run)
    finally:
        for f in WORK.glob("*.sesscol"):
            f.unlink()
    digest = wl.source_digest(ROOT)
    wl.ledger_check(run, res["counts"], f"{tag}-{digest[:16]}")
    # ok_share counts the ledger check too.
    res["e2e"]["ok_share"] = (run.ops.attempted - run.ops.failed) / run.ops.attempted

    if args.trace:
        run.tracer.write(WORK / f"spans-{tag}.jsonl")
        names = wl.per_layer_names(wl.default_groups())
        metrics = {n: res["layer"].get(n, 0) for n in names}
        units = {n: unit_of(n) for n in names}
    else:
        metrics = {n: res["e2e"][n] for n in wl.END_TO_END}
        units = dict(wl.END_TO_END)

    provenance = {
        "commit": git_commit(),
        "source_sha256": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units_measured": res["units"],
        "generator_config": res["config"],
        "loadavg_1m_at_start": load_1m,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "batch_size": wl.BATCH_SIZE,
        "ranks": wl.RANKS,
        "setups": wl.SETUPS,
    }
    result = {
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    (WORK / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(
            {"provenance": provenance, "report": res["report"], "e2e": res["e2e"], "result": result},
            indent=2,
        )
        + "\n"
    )
    for err in run.ops.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, v in res["report"].items():
        print(f"report {name} = {v:.6g} {unit_of(name)}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric (``layer.metric[.mode]``) or a report
    line (``metric``)."""
    base = name.split(".")[1] if "." in name else name
    if base.endswith("rows_per_s"):
        return "1/s"
    if base.endswith("_s"):
        return "s"
    if base.endswith("bytes_per_row"):
        return "B/row"
    if "bytes" in base:
        return "B"
    if base.endswith(("share", "factor")):
        return "ratio"
    return "count"


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; prints every metric per workload."""
    ok = True
    summary = {}
    for w in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.sessions:
            cmd += ["--sessions", str(args.sessions)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {w} (exit {proc.returncode})")
        for line in lines[:-1]:
            print("   " + line)
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        last = json.loads(lines[-1])
        ok = ok and last["correct"]
        summary[w] = last
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sessiondedup" / "__init__.py").is_file():
        print(f"error: no sessiondedup sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
