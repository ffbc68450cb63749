"""plapsys benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; plapsys is imported from that checkout's
`src/` and from nowhere else.  With `--trace 0` it measures the end-to-end
metrics:
- setup_s: median over SETUP_SAMPLES fresh processes, each importing
  numpy, scipy and plapsys and building the workload's inputs;
- wall_s: median wall time of one workload run, over the runs one worker
  process makes in `--seconds`;
- peak_rss_mb: peak resident memory of that worker process.
With `--trace 1` the worker alternates untraced and traced runs and this
prints the per-layer metrics of the traced ones (see tracer.py).  Either
way every run's outputs are checked (see workloads.py); failed_frac, the
share of runs whose check failed, is printed and carried by the `failed`
and `attempted` fields.  The last line of standard output is the result
as one JSON object.  `--workload all` runs every workload in turn and
prints a table.  NOTES.md explains the workloads and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("certify-n16", "solve-picard", "lift-n256")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _worker(root: str, workload: str, seed: int, mode: str, timeout: float, *extra: str):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", workload, "--seed", str(seed), "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return proc.stdout


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quartiles(xs):
    return statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else [xs[0], xs[0]]


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            _worker(root, workload, seed, "setup", deadline - time.monotonic())
            setup.append(time.perf_counter() - t0)
    out = _worker(root, workload, seed, "run", deadline - time.monotonic(),
                  "--seconds", str(seconds), "--trace", str(int(trace)))
    data = json.loads(out.strip().splitlines()[-1])
    data["setup"] = setup
    return data


def _spec() -> dict[str, dict]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(data: dict, trace: bool) -> tuple[dict, list[str]]:
    """The result object and the human-readable lines that precede it."""
    spec = _spec()
    reps = data["reps"]
    plain = [r for r in reps if r["kind"] == "plain"]
    walls = [r["wall"] for r in plain]
    failed = sum(1 for r in reps if r["problems"])
    lines = [f"env {json.dumps(data['env'])}", f"reference: {data['reference']}"]
    for i, r in enumerate(reps):
        status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
        lines.append(f"run {i + 1} ({r['kind']}): {r['wall']:.4f} s, {status}")

    samples: dict[str, str] = {}
    if not trace:
        q1, q3 = _quartiles(walls)
        values = {
            "wall_s": _median(walls),
            "setup_s": _median(data["setup"]),
            "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
        }
        samples = {
            "wall_s": f"median of {len(walls)} runs, quartiles {q1:.4f} / {q3:.4f}",
            "setup_s": f"median of {len(data['setup'])} fresh processes",
            "peak_rss_mb": "1 worker process",
        }
    else:
        layers = data["layers"]
        values = {k: _median([m[k] for m in layers]) for k in layers[0]}
        # Each traced run against the untraced run just before it, so that
        # the machine's own drift in speed cancels.
        ratios, last_plain = [], None
        for r in reps:
            if r["kind"] == "plain":
                last_plain = r["wall"]
            else:
                ratios.append(r["wall"] / last_plain)
        values["process.cpu_s"] = _median([r["cpu"] for r in plain])
        values["process.cpu_util"] = _median([r["cpu"] / r["wall"] for r in plain])
        values["trace.overhead_frac"] = _median(ratios) - 1.0
        samples = dict.fromkeys(values, f"median of {len(layers)} traced runs")
        for k in ("process.cpu_s", "process.cpu_util"):
            samples[k] = f"median of {len(plain)} untraced runs"
        if data["absent"]:
            lines.append("absent (not traced): " + ", ".join(data["absent"]))
        if data["counters_mismatched"]:
            lines.append("counters differ between traced runs: "
                         + ", ".join(data["counters_mismatched"]))
        lines.append(f"spans written to {data['trace_file']}")

    metrics = {}
    for name, value in values.items():
        unit = spec[name]["unit"]
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:32s} {value:14.6g} {unit:10s} {samples[name]}")
    lines.append(f"{'failed_frac':32s} {failed / len(reps):14.6g} {'ratio':10s} "
                 f"{failed} of {len(reps)} runs failed their output check")
    correct = failed == 0 and not (trace and data["counters_mismatched"])
    result = {"correct": correct, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="plapsys benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "plapsys", "__init__.py")):
        print(f"error: no plapsys source under {root}/src; run from the root of a "
              f"plapsys checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            data = measure(root, name, args.seed, args.seconds, bool(args.trace))
            result, lines = summarize(data, bool(args.trace))
            print(f"== {name} seed={args.seed} trace={args.trace}")
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
