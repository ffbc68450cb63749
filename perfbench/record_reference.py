"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Run once on the code whose outputs define "correct" and commit the
resulting perfbench/reference.json.  For every workload and every program
seed 0 .. REFERENCE_SEEDS - 1 it runs the workload exactly as the benchmark
does and stores the compared outputs (workloads.py names them and their
tolerances); the whole table is rewritten each time.  Outputs that do not
depend on the seed, the Picard pair of solve-picard, are stored once under
`all_seeds`, after checking that every seed reproduces them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

# Compared outputs per workload; the seed-independent ones are listed second.
KEYS = {
    "certify-n16": (("C", "lambda", "M0", "ball_max_output_norm"), ()),
    "solve-picard": (("C", "lambda", "M0"), ("u", "v")),
    "lift-n256": (("u",), ()),
}


def _plain(value):
    return np.asarray(value).tolist()


def main() -> int:
    sys.path.insert(0, HERE)
    from worker import REFERENCE_SEEDS, _git_commit, import_plapsys

    import_plapsys(ROOT)
    from workloads import WORKLOADS

    table = {"recorded_on": _git_commit(ROOT)}
    for name, (per_seed, shared) in KEYS.items():
        wl = WORKLOADS[name]
        entry = {"seeds": {}, "all_seeds": {}}
        for seed in range(REFERENCE_SEEDS):
            out_dir = os.path.join(ROOT, ".perfbench_out", f"reference-{name}-{seed}")
            try:
                state = wl.prepare(ROOT, seed, out_dir)
                outputs = wl.outputs(state, wl.run(state))
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            problems = wl.check(outputs, None)
            if problems:
                raise SystemExit(f"{name} seed {seed} fails its checks: {problems}")
            entry["seeds"][str(seed)] = {k: _plain(outputs[k]) for k in per_seed}
            for k in shared:
                first = entry["all_seeds"].setdefault(k, _plain(outputs[k]))
                if first != _plain(outputs[k]):
                    raise SystemExit(f"{name}: {k} depends on the seed (seed {seed})")
            print(f"{name} seed {seed}: recorded", flush=True)
        table[name] = entry
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
