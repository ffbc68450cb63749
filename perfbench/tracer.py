"""Span tracer that wraps plapsys functions from the outside.

Each target names a function by module and attribute.  The name is looked
up when the tracer is installed, not when this file is written: a target
whose module or attribute no longer exists is listed in `absent` and left
out, so a renamed helper makes a layer read as absent instead of crashing
the run.  Installing replaces every reference to the function object in
every loaded `plapsys.*` module (a `from .plap import x` copy included) and
`uninstall` puts the originals back.

Spans (name, start, end, parent index) are kept in memory; `spans_json`
returns them for writing out once the run is over.  Counters are recorded
at the same boundaries by per-target hooks.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped function: `layer` names its spans."""

    layer: str
    module: str
    attr: str
    # before(tracer, args, kwargs) -> (args, kwargs); may inject arguments
    before: Callable | None = None
    # after(tracer, span_index, result, args, kwargs); records counters
    after: Callable | None = None


def _fingerprint(obj: Any) -> Any:
    """Hashable identity of a grid / field argument, by value.

    A field is identified by its grid and its boundary values only, so two
    harmonic extensions with the same boundary data compare equal.
    """
    if all(hasattr(obj, a) for a in ("d", "box", "n", "boundary")):
        return ("grid", obj.d, tuple(obj.box), obj.n)
    if hasattr(obj, "grid") and hasattr(obj, "values"):
        vals = obj.values[obj.grid.boundary]
        return ("field", _fingerprint(obj.grid), hashlib.sha1(vals.tobytes()).hexdigest())
    if hasattr(obj, "tobytes"):
        return ("array", hashlib.sha1(obj.tobytes()).hexdigest())
    return ("other", repr(obj))


def _inject_cg_callback(tracer: "Tracer", args, kwargs):
    user_cb = kwargs.get("callback")

    def count(xk):
        tracer.counts["plap.krylov.iters"] += 1
        if user_cb is not None:
            user_cb(xk)

    kwargs = dict(kwargs, callback=count)
    return args, kwargs


def _after_cg(tracer, idx, result, args, kwargs):
    info = result[1] if isinstance(result, tuple) and len(result) == 2 else 0
    if info != 0:
        tracer.counts["plap.krylov.failed"] += 1


def _before_harmonic(tracer, args, kwargs):
    key = tuple(_fingerprint(a) for a in args) + tuple(
        (k, _fingerprint(v)) for k, v in sorted(kwargs.items())
    )
    if key in tracer.seen_harmonic:
        tracer.counts["plap.harmonic.redundant"] += 1
    tracer.seen_harmonic.add(key)
    return args, kwargs


def _after_lift(tracer, idx, result, args, kwargs):
    steps = getattr(result, "iterations", None)
    if steps is not None:
        tracer.counts["plap.newton.steps_reported"] += int(steps)


def _after_armijo(tracer, idx, result, args, kwargs):
    if isinstance(result, tuple) and result and result[0] is not None:
        tracer.counts["plap.line_search.accepted"] += 1


def _after_ball(tracer, idx, result, args, kwargs):
    trials = getattr(result, "trials", None)
    if trials is not None:
        tracer.counts["fixpoint.ball_check.trials"] += int(trials)


def _after_picard(tracer, idx, result, args, kwargs):
    trace = result[-1] if isinstance(result, tuple) else None
    iters = getattr(trace, "iterations", None)
    if iters is not None:
        tracer.counts["fixpoint.picard.iters"] += int(iters)
    theta = getattr(trace, "theta_final", None)
    if theta is not None:
        tracer.values["fixpoint.picard.theta_final"] = float(theta)


TARGETS = (
    Target("plap.lift", "plapsys.plap", "solve_p_poisson", after=_after_lift),
    Target("plap.krylov", "plapsys.plap", "cg", _inject_cg_callback, _after_cg),
    Target("plap.harmonic", "plapsys.plap", "harmonic_extension", _before_harmonic),
    Target("plap.assembly", "plapsys.plap", "_newton_system"),
    Target("plap.line_search", "plapsys.plap", "_armijo", after=_after_armijo),
    Target("plap.energy", "plapsys.plap", "_energy_reg"),
    Target("plap.residual", "plapsys.plap", "residual_vector"),
    Target("fixpoint.calibrate", "plapsys.fixpoint", "calibrate_C"),
    Target("fixpoint.ball_check", "plapsys.fixpoint", "check_ball_invariance", after=_after_ball),
    Target("fixpoint.picard", "plapsys.fixpoint", "picard_solve", after=_after_picard),
    Target("coupling.nemytskii", "plapsys.coupling", "nemytskii"),
    Target("verify.residuals", "plapsys.verify", "system_residuals"),
    Target("field.norm", "plapsys.field", "lq_norm"),
    Target("field.io", "plapsys.field", "save_field"),
    Target("field.io", "plapsys.field", "load_field"),
    Target("config.load_setup", "plapsys.config", "load_setup"),
)


class Tracer:
    """Records spans and counters around the functions named in TARGETS."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self.seen_harmonic: set = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget spans and counters; keep the installed wrappers."""
        self.spans.clear()
        self.counts.clear()
        self.values.clear()
        self.seen_harmonic.clear()
        self._stack.clear()

    def install(self) -> None:
        self.absent = []
        for t in TARGETS:
            module = sys.modules.get(t.module)
            original = getattr(module, t.attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            wrapper = self._wrap(t, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "plapsys" or name.startswith("plapsys.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, target: Target, original: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if target.before is not None:
                args, kwargs = target.before(self, args, kwargs)
            idx = len(spans)
            spans.append([target.layer, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if target.after is not None:
                target.after(self, idx, result, args, kwargs)
            return result

        traced.__wrapped__ = original
        return traced

    def spans_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counters of one traced run.

    A layer's time sums its outermost spans (a span nested inside a span of
    the same layer, such as a p-continuation lift, is not counted twice);
    its self time subtracts the time covered by its direct child spans.
    """
    spans = tracer.spans
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    ancestors: list[frozenset] = [frozenset()] * n
    for i, (layer, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]
            ancestors[i] = ancestors[parent] | {spans[parent][0]}

    total: Counter = Counter()
    count: Counter = Counter()
    self_time: Counter = Counter()
    lift_durs = []
    evals = 0
    for i, (layer, _, _, parent) in enumerate(spans):
        if layer == "plap.energy" and parent >= 0 and spans[parent][0] == "plap.line_search":
            evals += 1
        if layer in ancestors[i]:
            continue
        total[layer] += dur[i]
        count[layer] += 1
        self_time[layer] += dur[i] - child_time[i]
        if layer == "plap.lift":
            lift_durs.append(dur[i])

    c = tracer.counts
    steps = c["plap.newton.steps_reported"]
    cg_calls = count["plap.krylov"]
    lifts = count["plap.lift"]
    harmonic = count["plap.harmonic"]
    return {
        "plap.krylov.s": total["plap.krylov"],
        "plap.krylov.iters": c["plap.krylov.iters"],
        "plap.krylov.iters_per_newton": c["plap.krylov.iters"] / cg_calls if cg_calls else 0.0,
        "plap.krylov.failed": c["plap.krylov.failed"],
        "plap.harmonic.s": total["plap.harmonic"],
        "plap.harmonic.count": harmonic,
        "plap.harmonic.redundant_frac": c["plap.harmonic.redundant"] / harmonic if harmonic else 0.0,
        "plap.assembly.s": total["plap.assembly"],
        "plap.assembly.count": count["plap.assembly"],
        "plap.lift.count": lifts,
        "plap.lift.s": total["plap.lift"],
        "plap.lift.p50_s": _percentile(lift_durs, 50.0),
        "plap.lift.p90_s": _percentile(lift_durs, 90.0),
        "plap.newton.steps": steps,
        "plap.newton.per_lift": steps / lifts if lifts else 0.0,
        "plap.self_s": self_time["plap.lift"],
        "plap.line_search.s": total["plap.line_search"],
        "plap.line_search.evals": evals,
        "plap.line_search.accept_ratio": c["plap.line_search.accepted"] / evals if evals else 0.0,
        "plap.residual.s": total["plap.residual"],
        "fixpoint.calibrate.s": total["fixpoint.calibrate"],
        "fixpoint.ball_check.s": total["fixpoint.ball_check"],
        "fixpoint.ball_check.trials": c["fixpoint.ball_check.trials"],
        "fixpoint.picard.s": total["fixpoint.picard"],
        "fixpoint.picard.iters": c["fixpoint.picard.iters"],
        "fixpoint.picard.theta_final": tracer.values.get("fixpoint.picard.theta_final", 0.0),
        "coupling.nemytskii.s": total["coupling.nemytskii"],
        "coupling.nemytskii.count": count["coupling.nemytskii"],
        "verify.residuals.s": total["verify.residuals"],
        "verify.residuals.count": count["verify.residuals"],
        "field.norm.s": total["field.norm"],
        "field.io.s": total["field.io"],
        "config.load_setup.s": total["config.load_setup"],
    }


# Counters that must repeat exactly between two traced runs of one seed.
EXACT_COUNTERS = (
    "plap.lift.count",
    "plap.newton.steps",
    "plap.krylov.iters",
    "fixpoint.picard.iters",
    "plap.harmonic.count",
    "plap.harmonic.redundant_frac",
)
