"""End-to-end benchmark of the AI-video-chat stack.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--seconds S]
                                 [--trace [0|1]] [--out FILE]
    python benchmarks/e2e/run.py --write-golden

Run from the repository root.  Each workload runs in fresh ``python``
subprocesses, one after another.  Untraced (``--trace 0``, the default), the
workload is set up three times and measured once: ``setup_s`` is the median
time from spawning a subprocess to the end of its warm-up op, and the other
end-to-end metrics come from ``--seconds`` of ops in the last subprocess.
Traced (``--trace``/``--trace 1``), one subprocess runs a fixed number of ops
through the layer wrappers and then again without them, and reports every
per-layer metric.

Every metric is printed by name with its unit; the last line of standard
output is the JSON result of the last workload:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--out FILE`` appends one JSON line per workload (the input of agree.py)
and, when traced, writes the spans as ``repro-trace-v1`` JSONL next to it.

This file is also the subprocess entry point (``--child``, internal).  The
parent imports nothing outside the standard library, so a checkout without
``src/`` fails before anything is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for subprocesses (sweep results, the fingerprint memo).
WORK_ROOT = ROOT / ".e2e_work"
#: Set-ups per untraced run; setup_s is their median.
SETUP_RUNS = 3
#: Hard cap on one workload, below the 180 s a run may take.
DEADLINE_S = 170.0
READY = "E2E-READY"
RESULT = "E2E-RESULT"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv: list[str], workloads: list[str], run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=float(run_seconds),
                        help=f"measured time per untraced run (default {run_seconds})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics instead of end-to-end ones")
    parser.add_argument("--out", type=Path, help="append results as JSON lines to FILE")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json for the workloads from their seed-0 plans")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Subprocess side
# ---------------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    import e2e_workloads as bench

    (name,) = args.workload
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=os.environ["E2E_WORKDIR"]))
    workload = bench.WORKLOADS[name](workdir)
    golden = bench.load_golden(name) if args.seed == 0 else None
    if args.trace:
        metrics, measured, tracer = bench.traced_run(workload, args.seed, golden)
        if args.trace_out is not None:
            args.trace_out.write_text(tracer.recorder.to_jsonl() + "\n", encoding="utf-8")
    else:
        workload.setup(args.seed)
        workload.warm_up()
        print(READY, time.monotonic(), flush=True)
        if args.setup_only:
            return 0
        measured = bench.measure(workload, seconds=args.seconds, golden=golden)
        metrics = bench.end_to_end_metrics(measured)
    result = {
        "attempted": measured.attempted,
        "failed": measured.failed,
        "latency_samples": len(measured.latencies_s),
        "metrics": metrics,
    }
    print(RESULT, json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def run_child(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one subprocess; return its set-up time (NaN if traced) and its result."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", *argv],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"subprocess {argv} overran the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop its whole process group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"subprocess {argv} exited with {proc.returncode}")
    lines = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in stdout.splitlines()
             if line.startswith((READY, RESULT))}
    setup_s = float(lines[READY]) - started if READY in lines else float("nan")
    result = json.loads(lines[RESULT]) if RESULT in lines else {}
    return setup_s, result


def run_workload(name: str, args: argparse.Namespace, env: dict, deadline: float) -> dict:
    argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.trace:
        if args.out is not None:
            trace_out = args.out.with_name(f"{args.out.stem}.{name}.seed{args.seed}.trace.jsonl")
            argv += ["--trace-out", str(trace_out)]
        _, result = run_child(argv, env, deadline)
        return result
    setups = [run_child(argv + ["--setup-only"], env, deadline)[0] for _ in range(SETUP_RUNS - 1)]
    setup_s, result = run_child(argv, env, deadline)
    setups.append(setup_s)
    result["metrics"] = {"setup_s": statistics.median(setups), **result["metrics"]}
    result["setup_samples"] = len(setups)
    return result


def report(name: str, args: argparse.Namespace, result: dict, declared: dict) -> dict:
    """Print the metric table and the JSON result line; return the --out record."""
    metrics = result["metrics"]
    print(f"# {name}  seed={args.seed}  trace={args.trace}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for metric, value in metrics.items():
        unit = declared[metric]["unit"]
        samples = result["setup_samples"] if metric == "setup_s" else result["latency_samples"]
        suffix = f"  (n={samples})" if metric.startswith(("setup_s", "op_p")) else ""
        print(f"  {metric:<40} {value:>14.6g} {unit}{suffix}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": value, "unit": declared[metric]["unit"]}
                    for metric, value in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return {"workload": name, "seed": args.seed, "trace": args.trace,
            "latency_samples": result["latency_samples"], **line}


def write_golden(names: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import e2e_workloads as bench

    payload = {"seed": 0, "workloads": {}}
    if bench.GOLDEN_PATH.exists():
        payload = json.loads(bench.GOLDEN_PATH.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        os.environ["REPRO_FINGERPRINT_CACHE"] = str(Path(workdir) / "fingerprint.json")
        for name in names:
            digests = bench.golden_digests(bench.WORKLOADS[name](Path(workdir)))
            payload["workloads"][name] = digests
            print(f"{name}: {len(digests)} ops", file=sys.stderr)
    bench.GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    benchmark = load_benchmark()
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    args = parse_args(argv, workloads, benchmark["run_seconds"])
    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        if args.write_golden:
            return write_golden(args.workload or workloads)
        return run_all(args, benchmark, args.workload or workloads)
    finally:
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only if no concurrent run still uses it


def run_all(args: argparse.Namespace, benchmark: dict, names: list[str]) -> int:
    declared = {metric["name"]: metric for metric in benchmark["end_to_end"] + benchmark["per_layer"]}
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        "E2E_WORKDIR": str(run_dir),
        "REPRO_FINGERPRINT_CACHE": str(run_dir / "fingerprint.json"),
    }
    try:
        for name in names:
            try:
                result = run_workload(name, args, env, time.monotonic() + DEADLINE_S)
            except (RuntimeError, KeyError, ValueError) as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            record = report(name, args, result, declared)
            if args.out is not None:
                with args.out.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
