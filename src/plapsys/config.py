"""Flat key-value problem configs.

Format: one `key = value` per line, dotted section keys, `#` comments,
blank lines ignored.  Example:

    grid.n = 32
    grid.box = 0, 0.3, 0, 0.3
    exponents.d = 3
    exponents.p = 2.2
    exponents.r = 1.25
    coupling.family = power
    coupling.a1 = 0.5
    coupling.a2 = 0.5
    coupling.b1 = 0.5
    coupling.b2 = 0.5
    boundary.h = 1
    boundary.k = 1

Every key is validated here: expressions must parse, exponents must pass
the admissibility check, and unknown or duplicate keys are rejected.  All
failures raise ConfigError with a one-line message naming the key, from the
converter of the key's type or the library check it calls.  A Setup keeps
its resolved config, from which `study` rebuilds it at each grid.n.  No
key sets a tolerance, an iteration limit or a threshold: those are module
constants of their users (plap.DEFAULT_TOL, fixpoint.PICARD_TOL and
PICARD_MAX_ITER, verify.CLASS_TOL, cli.STUDY_MIN_ORDER).  A leading byte
order mark of the UTF-8 file is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .coupling import Coupling, eval_on_nodes, power_family
from .field import Grid
from .fixpoint import MIN_CALIBRATION_SAMPLES, SystemProblem, make_exponents


class ConfigError(Exception):
    pass


# key -> default (None = required; the coupling block is validated separately)
KNOWN_KEYS = {
    "grid.n": None,
    "grid.box": None,
    "exponents.d": None,
    "exponents.p": None,
    "exponents.r": None,
    "coupling.family": "",
    "coupling.phi": "",
    "coupling.psi": "",
    "coupling.a1": "",
    "coupling.a2": "",
    "coupling.b1": "",
    "coupling.b2": "",
    "boundary.h": None,
    "boundary.k": None,
    "calibration.samples": "16",
    "certificate.trials": "100",
}


def parse_kv_text(text: str) -> dict[str, str]:
    """Raw key-value layer: syntax and key validity only."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _resolve(raw: dict[str, str]) -> dict[str, str]:
    cfg = {}
    for key, default in KNOWN_KEYS.items():
        if key in raw:
            cfg[key] = raw[key]
        elif default is None:
            raise ConfigError(f"missing required key {key!r}")
        else:
            cfg[key] = default
    return cfg


def _as_int(cfg: dict[str, str], key: str, low: int | None = None, why: str = "") -> int:
    """The integer of key, at least low; why says what a smaller one lacks."""
    try:
        val = int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {cfg[key]!r}") from None
    if low is not None and val < low:
        raise ConfigError(f"{key}: must be >= {low}{why}, got {val}")
    return val


def _as_float(cfg: dict[str, str], key: str, finite: bool = False) -> float:
    """The number of key, which must be finite if `finite` is set."""
    try:
        val = float(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {cfg[key]!r}") from None
    if finite and not np.isfinite(val):
        raise ConfigError(f"{key}: must be finite, got {cfg[key]!r}")
    return val


def _as_floats(cfg: dict[str, str], key: str, count: int) -> tuple[float, ...]:
    parts = [p.strip() for p in cfg[key].split(",")]
    if len(parts) != count:
        raise ConfigError(f"{key}: expected {count} comma-separated numbers, got {cfg[key]!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{key}: expected numbers, got {cfg[key]!r}") from None


def _parse_expr(cfg: dict[str, str], key: str) -> ex.Expr:
    try:
        return ex.parse(cfg[key])
    except ex.ExprSyntaxError as err:
        raise ConfigError(f"{key}: {err}") from None


def _boundary_values(grid: Grid, cfg: dict[str, str], key: str) -> np.ndarray:
    e = _parse_expr(cfg, key)
    try:
        return eval_on_nodes(e, grid)
    except ex.EvaluationError as err:
        raise ConfigError(f"{key}: {err}") from None


def _coupling(cfg: dict[str, str], p: float) -> Coupling:
    family = cfg["coupling.family"]
    explicit = cfg["coupling.phi"] or cfg["coupling.psi"]
    if family and explicit:
        raise ConfigError("give either coupling.family or coupling.phi/psi, not both")
    if family == "zero":
        for name in ("a1", "a2", "b1", "b2"):
            if cfg[f"coupling.{name}"]:
                raise ConfigError(f"coupling.{name}: not used by coupling.family = zero")
        return Coupling(ex.parse("0"), ex.parse("0"), 0.0, 0.0, 0.0, 0.0)
    consts = {}
    for name in ("a1", "a2", "b1", "b2"):
        key = f"coupling.{name}"
        if not cfg[key]:
            raise ConfigError(f"missing required key {key!r}")
        consts[name] = _as_float(cfg, key, finite=True)
    if family == "power":
        return power_family(consts["a1"], consts["a2"], consts["b1"], consts["b2"], p)
    if family:
        raise ConfigError(f"coupling.family: unknown family {family!r} (have zero, power)")
    if not (cfg["coupling.phi"] and cfg["coupling.psi"]):
        raise ConfigError("explicit couplings need both coupling.phi and coupling.psi")
    phi = _parse_expr(cfg, "coupling.phi")
    psi = _parse_expr(cfg, "coupling.psi")
    return Coupling(phi, psi, consts["a1"], consts["a2"], consts["b1"], consts["b2"])


@dataclass(frozen=True)
class Setup:
    """Fully validated run setup built from one config file; its problem
    holds the exponents, the coupling and the boundary pair."""

    grid: Grid
    problem: SystemProblem
    calib_samples: int
    seed: int
    ball_trials: int
    out_dir: str
    config: dict[str, str]  # every key, defaults filled in, that the setup was built from


def build_setup(cfg: dict[str, str], seed: int = 0, out_dir: str = ".") -> Setup:
    """Construct and cross-validate every object the commands need.

    `seed` is the --seed flag and `out_dir` the --out flag, the output
    directory, which the config does not set.
    """
    if seed < 0:
        raise ConfigError(f"--seed: must be a non-negative integer, got {seed}")
    n = _as_int(cfg, "grid.n", 2, " (fewer cells leave no interior node)")
    box = _as_floats(cfg, "grid.box", 4)
    try:
        grid = Grid(2, box, n)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from None
    d = _as_int(cfg, "exponents.d")
    p = _as_float(cfg, "exponents.p")
    r = _as_float(cfg, "exponents.r")
    try:
        exponents = make_exponents(d, p, r)
    except ValueError as err:
        raise ConfigError(f"exponents: {err}") from None
    coupling = _coupling(cfg, p)
    hk = np.stack([_boundary_values(grid, cfg, key) for key in ("boundary.h", "boundary.k")])
    return Setup(  # the keys are checked in the order of the keywords
        grid=grid,
        problem=SystemProblem(grid, exponents, coupling, hk),
        calib_samples=_as_int(cfg, "calibration.samples", MIN_CALIBRATION_SAMPLES),
        ball_trials=_as_int(cfg, "certificate.trials", 1),
        seed=seed,
        out_dir=out_dir,
        config=cfg,
    )


def load_setup(path: str, seed: int = 0, out_dir: str = ".") -> Setup:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from None
    return build_setup(_resolve(parse_kv_text(text)), seed, out_dir)
