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
failures raise ConfigError with a one-line message naming the key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .coupling import Coupling, eval_on_nodes, power_family
from .field import Grid, ScalarField
from .fixpoint import MIN_CALIBRATION_SAMPLES, Exponents, SystemProblem, make_exponents


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
    "coupling.eps": "1.0",
    "boundary.h": None,
    "boundary.k": None,
    "solver.tol": "1e-8",
    "picard.tol": "1e-7",
    "picard.max_iter": "200",
    "calibration.samples": "16",
    "certificate.trials": "100",
    "verify.tol": "1e-6",
    "study.case": "",
    "study.min_order": "0.9",
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


def _as_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {cfg[key]!r}") from None


def _as_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {cfg[key]!r}") from None


def _as_finite(cfg: dict[str, str], key: str) -> float:
    val = _as_float(cfg, key)
    if not np.isfinite(val):
        raise ConfigError(f"{key}: must be finite, got {cfg[key]!r}")
    return val


def _as_positive(cfg: dict[str, str], key: str) -> float:
    val = _as_float(cfg, key)
    if not (np.isfinite(val) and val > 0.0):
        raise ConfigError(f"{key}: must be positive and finite, got {cfg[key]!r}")
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


def _boundary_field(grid: Grid, cfg: dict[str, str], key: str) -> ScalarField:
    e = _parse_expr(cfg, key)
    try:
        values = eval_on_nodes(e, grid)
    except ex.EvaluationError as err:
        raise ConfigError(f"{key}: {err}") from None
    return ScalarField(grid, values)


def _coupling(cfg: dict[str, str], p: float) -> Coupling:
    family = cfg["coupling.family"]
    explicit = cfg["coupling.phi"] or cfg["coupling.psi"]
    if family and explicit:
        raise ConfigError("give either coupling.family or coupling.phi/psi, not both")
    if family == "zero":
        return Coupling(ex.parse("0"), ex.parse("0"), 0.0, 0.0, 0.0, 0.0, p)
    consts = {}
    for name in ("a1", "a2", "b1", "b2"):
        key = f"coupling.{name}"
        if not cfg[key]:
            raise ConfigError(f"missing required key {key!r}")
        consts[name] = _as_finite(cfg, key)
    if family == "power":
        return power_family(consts["a1"], consts["a2"], consts["b1"], consts["b2"], p)
    if family:
        raise ConfigError(f"coupling.family: unknown family {family!r} (have zero, power)")
    if not (cfg["coupling.phi"] and cfg["coupling.psi"]):
        raise ConfigError("explicit couplings need both coupling.phi and coupling.psi")
    phi = _parse_expr(cfg, "coupling.phi")
    psi = _parse_expr(cfg, "coupling.psi")
    return Coupling(phi, psi, consts["a1"], consts["a2"], consts["b1"], consts["b2"], p)


@dataclass(frozen=True)
class Setup:
    """Fully validated run setup built from one config file."""

    grid: Grid
    exponents: Exponents
    coupling: Coupling
    explicit_coupling: bool  # from coupling.phi and coupling.psi, not a family
    problem: SystemProblem
    solver_tol: float
    picard_tol: float
    picard_max_iter: int
    calib_samples: int
    seed: int
    ball_trials: int
    verify_tol: float
    study_case: str
    study_min_order: float
    out_dir: str


def build_setup(cfg: dict[str, str], seed: int | None = None, out_dir: str = ".") -> Setup:
    """Construct and cross-validate every object the commands need.

    `seed` is the --seed flag (default 0) and `out_dir` the --out flag, the
    output directory, which the config does not set.
    """
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed: must be a non-negative integer, got {seed}")
    n = _as_int(cfg, "grid.n")
    if n < 2:
        raise ConfigError(f"grid.n: must be >= 2 (fewer cells leave no interior node), got {n}")
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
    h = _boundary_field(grid, cfg, "boundary.h")
    k = _boundary_field(grid, cfg, "boundary.k")
    try:  # h, k and the coupling are built on this grid and p: only eps can fail
        problem = SystemProblem(grid, exponents, coupling, h, k, _as_float(cfg, "coupling.eps"))
    except ValueError as err:
        raise ConfigError(f"coupling.eps: {err}") from None

    max_iter = _as_int(cfg, "picard.max_iter")
    if max_iter < 1:
        raise ConfigError(f"picard.max_iter: must be >= 1, got {max_iter}")
    samples = _as_int(cfg, "calibration.samples")
    if samples < MIN_CALIBRATION_SAMPLES:
        raise ConfigError(
            f"calibration.samples: must be >= {MIN_CALIBRATION_SAMPLES}, got {samples}"
        )
    trials = _as_int(cfg, "certificate.trials")
    if trials < 1:
        raise ConfigError(f"certificate.trials: must be >= 1, got {trials}")
    return Setup(
        grid=grid,
        exponents=exponents,
        coupling=coupling,
        explicit_coupling=not cfg["coupling.family"],
        problem=problem,
        solver_tol=_as_positive(cfg, "solver.tol"),
        picard_tol=_as_positive(cfg, "picard.tol"),
        picard_max_iter=max_iter,
        calib_samples=samples,
        seed=0 if seed is None else seed,
        ball_trials=trials,
        verify_tol=_as_positive(cfg, "verify.tol"),
        study_case=cfg["study.case"],
        study_min_order=_as_finite(cfg, "study.min_order"),
        out_dir=out_dir,
    )


def load_setup(path: str, seed: int | None = None, out_dir: str = ".") -> Setup:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from None
    return build_setup(_resolve(parse_kv_text(text)), seed, out_dir)
