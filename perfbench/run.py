"""Benchmark entry point: one workload per process, or all of them.

    python3 perfbench/run.py --workload train-index --seed 0 --seconds 20
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` records spans and reports the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check exits 1 without that line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("train-index", "train-base", "ddp-process-w2",
             "serve-gateway-open")


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name in ("train-index", "train-base"):
        from perfbench import train
        return train.run(name.split("-")[1], seed, seconds, trace)
    if name == "ddp-process-w2":
        from perfbench import ddp
        return ddp.run(seed, seconds, trace)
    from perfbench import serve
    return serve.run(seed, seconds, trace)


def _report(spec: dict, args: argparse.Namespace, result, stamp: dict) -> dict:
    """Check the metrics against the spec, print them, return the line."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(result.metrics) - set(units))
    if unknown:
        _fail(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics, idle = {}, []
    for name, unit in units.items():
        if name not in result.metrics:
            if not args.trace:
                _fail(f"end-to-end metric {name} was not measured")
            idle.append(name)          # this layer does not run here
        value = float(result.metrics.get(name, 0.0))
        if not math.isfinite(value):
            _fail(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}

    mode = "traced" if args.trace else "untraced"
    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  {mode}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for key, value in result.info.items():
        if key != "probes":
            print(f"info: {key} = {value}")
    for r in result.info.get("probes", []):
        print(f"probe: matmul {r['matmul_ms']:.4f} ms  "
              f"pyloop {r['pyloop_ms']:.3f} ms")
    for name, m in metrics.items():
        note = "   (layer idle in this workload)" if name in idle else ""
        print(f"  {name:40s} {m['value']:>16.6f} {m['unit']}{note}")
    return {"correct": True, "attempted": int(result.attempted),
            "failed": int(result.failed), "metrics": metrics}


def _write_out(args, line: dict, result, stamp: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": line, "stamp": stamp, "info": result.info,
                   "spans": result.spans}, fh)


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(lines[-1])
                print(f"perfbench: {name} (trace {trace}) failed with exit "
                      f"code {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            line = json.loads(lines[-1])
            if not trace:
                merged["attempted"] += line["attempted"]
                merged["failed"] += line["failed"]
            for metric, m in line["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(merged))
    return 0


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (os.path.isfile(SPEC_PATH)
            and os.path.isdir(os.path.join(SRC, "repro"))):
        _fail(f"run from a checkout of the repository: need "
              f"{os.path.relpath(SPEC_PATH, ROOT)} and src/repro")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)

    sys.path[0:1] = [SRC, ROOT]         # not perfbench/: no bare imports
    from perfbench import THREAD_VARS
    for var in THREAD_VARS:             # before NumPy loads any BLAS
        os.environ[var] = "1"
    from perfbench.harness import (
        CheckFailed, adopt_orphans, end_children, stamp)

    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    adopt_orphans()
    try:
        try:
            result = _run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
        except CheckFailed as exc:
            _fail(f"correctness check failed in {args.workload}: {exc}", 1)
        run_stamp = stamp(args.seed)
        line = _report(spec, args, result, run_stamp)
        _write_out(args, line, result, run_stamp)
        print(json.dumps(line), flush=True)
        return 0
    finally:
        end_children()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
