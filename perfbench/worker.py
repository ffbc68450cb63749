"""One benchmark process: import plapsys from the checkout, build the
inputs, run the workload repeatedly and report as one JSON line.

    python3 perfbench/worker.py --root <checkout> --workload <name>
        --seed <n> --mode setup|run [--seconds <s>] [--trace 0|1]

`--mode setup` imports and builds the inputs, then exits: run.py times
several of these fresh processes for setup_s.  `--mode run` repeats the
workload until `--seconds` is spent (at least MIN_REPS times) and prints
per-run wall and CPU time, the output checks, peak RSS and, with
`--trace 1`, the per-layer metrics of the traced runs.  Before every
repetition, outside the timed region, the inputs are built anew and the
CLI output directory is emptied, so no program object and no artifact
lives from one repetition to the next.

The program seed is `--seed` modulo REFERENCE_SEEDS, so that every run is
compared with outputs recorded for its inputs (reference.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

MIN_REPS = 3
REFERENCE_SEEDS = 64  # reference.json holds program seeds 0 .. REFERENCE_SEEDS - 1


def import_plapsys(root: str):
    """Import plapsys from `<root>/src` and refuse any other copy."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import plapsys
    import plapsys.cli  # noqa: F401  (loads every module the tracer patches)

    where = os.path.realpath(plapsys.__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit(f"plapsys resolved to {where}, not under {src}")
    return plapsys


def _blas_threads() -> str:
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def environment(root: str, plapsys) -> dict:
    import numpy
    import scipy

    return {
        "plapsys": os.path.dirname(os.path.realpath(plapsys.__file__)),
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def load_reference(name: str, seed: int) -> dict:
    """Reference outputs for this workload and program seed."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh).get(name, {})
    by_seed = table.get("seeds", {}).get(str(seed))
    if by_seed is None:
        raise SystemExit(f"reference.json has no outputs of {name} for seed {seed}; "
                         f"re-record it with record_reference.py")
    return {**table.get("all_seeds", {}), **by_seed}


def _one_rep(wl, state, reference) -> dict:
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = wl.run(state)
    except Exception as err:  # a crash of the program is a failed run
        wall = time.perf_counter() - t0
        where = "".join(traceback.format_exception(err)[-2:]).strip()
        return {"wall": wall, "cpu": time.process_time() - c0, "problems": [where]}
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    try:
        problems = wl.check(wl.outputs(state, result), reference)
    except (OSError, KeyError, ValueError) as err:  # missing or malformed artifacts
        problems = [f"output check: {err!r}"]
    return {"wall": wall, "cpu": cpu, "problems": problems}


def run_reps(wl, prepare, reference, seconds: float, trace: bool, trace_path: str) -> dict:
    from tracer import EXACT_COUNTERS, Tracer, layer_metrics

    tracer = Tracer() if trace else None
    # Untraced runs only; with tracing, one untraced run, then traced and
    # untraced runs alternate, so both kinds see the same machine state.
    kinds = ["plain", "traced", "traced"] if trace else ["plain"] * MIN_REPS
    reps, layers = [], []
    start = time.perf_counter()
    while True:
        if len(reps) < len(kinds):
            kind = kinds[len(reps)]
        elif time.perf_counter() - start + reps[-1]["wall"] > seconds:
            break
        else:
            kind = "plain" if not trace or reps[-1]["kind"] == "traced" else "traced"
        state = prepare()  # untimed and untraced
        if kind == "traced":
            tracer.reset()
            tracer.install()
            try:
                rep = _one_rep(wl, state, reference)
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer))
            if len(layers) == 1:
                with open(trace_path, "w", encoding="utf-8") as fh:
                    json.dump({"absent": tracer.absent, "spans": tracer.spans_json()}, fh)
        else:
            rep = _one_rep(wl, state, reference)
        del state
        rep["kind"] = kind
        reps.append(rep)

    out = {"reps": reps, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        mismatched = [
            k for k in EXACT_COUNTERS if any(m[k] != layers[0][k] for m in layers[1:])
        ]
        out.update(layers=layers, absent=tracer.absent, counters_mismatched=mismatched)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    plapsys = import_plapsys(args.root)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    seed = args.seed % REFERENCE_SEEDS
    scratch = os.path.join(args.root, ".perfbench_out")
    out_dir = os.path.join(scratch, f"{wl.name}-seed{seed}-{os.getpid()}")

    def prepare():
        shutil.rmtree(out_dir, ignore_errors=True)
        return wl.prepare(args.root, seed, out_dir)

    try:
        if args.mode == "setup":
            prepare()
            return 0
        reference = load_reference(wl.name, seed)
        trace_path = os.path.join(scratch, f"trace-{wl.name}-seed{seed}.json")
        os.makedirs(scratch, exist_ok=True)
        result = run_reps(wl, prepare, reference, args.seconds, bool(args.trace), trace_path)
        result.update(env=environment(args.root, plapsys),
                      reference=f"--seed {args.seed}: program seed {seed}")
        if args.trace:
            result["trace_file"] = os.path.relpath(trace_path, args.root)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
