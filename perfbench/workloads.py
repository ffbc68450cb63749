"""The three workloads: inputs, the timed call into plapsys, output checks.

Each workload has
- `prepare(root, seed, out_dir)`: build the inputs (this is what setup_s
  times, after the imports);
- `run(state)`: the timed call, the whole of one workload run;
- `outputs(state, result)`: the key outputs, read back from the result or
  from the artifacts the CLI wrote;
- `check(outputs, reference)`: a list of problems, empty when the run is
  correct.

The seed reaches the program as the CLI's `--seed` (certify-n16,
solve-picard) or as the seed of the source field (lift-n256).
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

# Key outputs must match the values recorded on the seed code within these
# relative tolerances (relative to max(1, |reference|)).
SCALAR_RTOL = 1e-6  # C, lambda, M0, ball_max_output_norm
LIFT_FIELD_RTOL = 1e-6  # sampled u of the n=256 lift
PICARD_FIELD_RTOL = 1e-5  # sampled (u, v) of the Picard solution; picard.tol is 1e-7
# The n=256 lift's weak residual, computed here, must stay within this
# bound at every interior hat; it is the CLI's default verify.tol.
LIFT_RESIDUAL_TOL = 1e-6

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")


def _close(got: np.ndarray, want: np.ndarray, rtol: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= rtol * scale


def _compare(outputs: dict, reference: dict | None, rtols: dict[str, float]) -> list[str]:
    if reference is None:  # recording the reference
        return []
    problems = []
    for key, rtol in rtols.items():
        if key not in reference:
            problems.append(f"no reference value for {key}")
        elif key not in outputs or not _close(outputs[key], reference[key], rtol):
            got = outputs.get(key)
            shown = got if np.ndim(got) == 0 else "sampled field"
            problems.append(f"{key} = {shown} differs from the reference (rtol {rtol:g})")
    return problems


def _read_kv(path: str) -> dict[str, str]:
    """`key = value` lines; a leading '# ' is dropped so comment tallies count."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip().removeprefix("# ")
            if " = " in line:
                key, value = line.split(" = ", 1)
                out[key.strip()] = value.strip()
    return out


def _read_field(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, -1]


def lattice_nodes(n: int, step: int, start: int) -> np.ndarray:
    """Flat indices of the nodes (i, j), i and j in range(start, n, step)."""
    idx = np.arange(start, n, step)
    return (idx[:, None] * (n + 1) + idx[None, :]).ravel()


class CliWorkload:
    """`plapsys <command> --config <cfg> --out <dir> --seed <seed>`, in process."""

    def __init__(self, name: str, command: str):
        self.name = name
        self.command = command
        self.config = os.path.join(CONFIG_DIR, f"{name}.cfg")

    def prepare(self, root: str, seed: int, out_dir: str) -> dict:
        from plapsys.config import load_setup

        setup = load_setup(self.config, seed, out_dir)
        argv = [self.command, "--config", self.config, "--out", out_dir, "--seed", str(seed)]
        return {"argv": argv, "out_dir": out_dir, "n": setup.grid.n}

    def run(self, state: dict) -> dict:
        from plapsys.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(state["argv"])
        return {"rc": rc, "stderr": err.getvalue().strip()}


class CertifyWorkload(CliWorkload):
    def outputs(self, state: dict, result: dict) -> dict:
        kv = _read_kv(os.path.join(state["out_dir"], "certificate.txt"))
        return {
            "rc": result["rc"],
            "stderr": result["stderr"],
            "valid": kv.get("valid"),
            "ball_violations": kv.get("ball_violations"),
            "C": float(kv["C"]),
            "lambda": float(kv["lambda"]),
            "M0": float(kv["M0"]),
            "ball_max_output_norm": float(kv.get("ball_max_output_norm", "nan")),
        }

    def check(self, outputs: dict, reference: dict | None) -> list[str]:
        problems = []
        if outputs["rc"] != 0:
            problems.append(f"exit code {outputs['rc']}: {outputs['stderr']}")
        if outputs["valid"] != "true":
            problems.append(f"valid = {outputs['valid']}")
        if outputs["ball_violations"] != "0":
            problems.append(f"ball_violations = {outputs['ball_violations']}")
        rtols = dict.fromkeys(("C", "lambda", "M0", "ball_max_output_norm"), SCALAR_RTOL)
        return problems + _compare(outputs, reference, rtols)


class SolveWorkload(CliWorkload):
    def outputs(self, state: dict, result: dict) -> dict:
        out = state["out_dir"]
        kv = _read_kv(os.path.join(out, "report.txt"))
        nodes = lattice_nodes(state["n"], 2, 1)
        return {
            "rc": result["rc"],
            "stderr": result["stderr"],
            "verdict": kv.get("verdict"),
            "picard_converged": kv.get("picard_converged"),
            "C": float(kv["C"]),
            "lambda": float(kv["lambda"]),
            "M0": float(kv["M0"]),
            "u": _read_field(os.path.join(out, "u.csv"))[nodes],
            "v": _read_field(os.path.join(out, "v.csv"))[nodes],
        }

    def check(self, outputs: dict, reference: dict | None) -> list[str]:
        problems = []
        if outputs["rc"] != 0:
            problems.append(f"exit code {outputs['rc']}: {outputs['stderr']}")
        if outputs["verdict"] != "solution":
            problems.append(f"verdict = {outputs['verdict']}")
        if outputs["picard_converged"] != "true":
            problems.append(f"picard_converged = {outputs['picard_converged']}")
        if not outputs["lambda"] < 1.0:
            problems.append(f"lambda = {outputs['lambda']} >= 1")
        rtols = dict.fromkeys(("C", "lambda", "M0"), SCALAR_RTOL)
        rtols.update(u=PICARD_FIELD_RTOL, v=PICARD_FIELD_RTOL)
        return problems + _compare(outputs, reference, rtols)


def smooth_source(coords: np.ndarray, box, rng: np.random.Generator) -> np.ndarray:
    """The first 8x8 sine modes on the box with coefficients uniform in
    [-1, 1], drawn the way the calibration of C draws its sources."""
    modes = np.arange(1, 9)
    coeffs = rng.uniform(-1.0, 1.0, size=(8, 8))
    xh = (coords[:, 0] - box[0]) / (box[1] - box[0])
    yh = (coords[:, 1] - box[2]) / (box[3] - box[2])
    sx = np.sin(np.pi * np.outer(modes, xh))
    sy = np.sin(np.pi * np.outer(modes, yh))
    return np.einsum("ij,in,jn->n", coeffs, sx, sy)


def p1_geometry(coords: np.ndarray, elements: np.ndarray):
    """Basis gradients (E, 3, 2), element areas (E,) and lumped node weights,
    computed from the vertex coordinates alone."""
    P = coords[elements]
    e1, e2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
    g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
    grads = np.stack([-(g1 + g2), g1, g2], axis=1)
    area = np.abs(det) / 2.0
    lumped = np.bincount(
        elements.ravel(), weights=np.repeat(area / 3.0, 3), minlength=len(coords)
    )
    return grads, area, lumped


def lr_norm(values: np.ndarray, elements: np.ndarray, area: np.ndarray, r: float) -> float:
    """Vertex-averaged elementwise L^r norm."""
    means = np.abs(values[elements].mean(axis=1))
    return float(np.sum(means**r * area) ** (1.0 / r))


def weak_residual(coords, elements, interior, u, f, p) -> np.ndarray:
    """R_i = sum_e |grad u|^(p-2) grad u . grad eta_i area_e + m_i f_i at
    every interior hat eta_i: the unregularized weak form of Delta_p u = f."""
    grads, area, lumped = p1_geometry(coords, elements)
    G = np.einsum("ev,evd->ed", u[elements], grads)
    G2 = np.einsum("ed,ed->e", G, G)
    with np.errstate(divide="ignore", invalid="ignore"):
        W = np.where(G2 > 0.0, G2 ** ((p - 2.0) / 2.0), 0.0)
    contrib = np.einsum("ed,evd->ev", G, grads) * (W * area)[:, None]
    R = np.bincount(elements.ravel(), weights=contrib.ravel(), minlength=len(u))
    return (R + lumped * f)[interior]


class LiftWorkload:
    """One `solve_p_poisson` lift at n=256 on the 0.3 box, h = 1 + x y."""

    name = "lift-n256"
    n = 256
    box = (0.0, 0.3, 0.0, 0.3)
    p = 2.2
    r = 1.25

    def prepare(self, root: str, seed: int, out_dir: str) -> dict:
        from plapsys import Grid, PPoissonProblem, ScalarField

        grid = Grid(2, self.box, self.n)
        coords, elements = np.asarray(grid.coords), np.asarray(grid.elements)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        f = smooth_source(coords, self.box, rng)
        _, area, _ = p1_geometry(coords, elements)
        f = f / lr_norm(f, elements, area, self.r)
        h = 1.0 + coords[:, 0] * coords[:, 1]
        prob = PPoissonProblem(grid, self.p, ScalarField(grid, f), ScalarField(grid, h))
        x, y = coords[:, 0], coords[:, 1]
        on_edge = (
            np.isclose(x, self.box[0]) | np.isclose(x, self.box[1])
            | np.isclose(y, self.box[2]) | np.isclose(y, self.box[3])
        )
        return {"problem": prob, "f": f, "interior": np.flatnonzero(~on_edge)}

    def run(self, state: dict):
        from plapsys import solve_p_poisson

        return solve_p_poisson(state["problem"])

    def outputs(self, state: dict, result) -> dict:
        grid = state["problem"].grid
        u = np.asarray(result.solution.values)
        R = weak_residual(
            np.asarray(grid.coords), np.asarray(grid.elements), state["interior"],
            u, state["f"], self.p,
        )
        return {
            "converged": bool(result.converged),
            "max_abs_residual": float(np.max(np.abs(R))),
            "u": u[lattice_nodes(self.n, 32, 16)],
        }

    def check(self, outputs: dict, reference: dict | None) -> list[str]:
        problems = []
        if not outputs["converged"]:
            problems.append("lift did not converge")
        if not outputs["max_abs_residual"] <= LIFT_RESIDUAL_TOL:
            problems.append(
                f"weak residual {outputs['max_abs_residual']:.3e} > {LIFT_RESIDUAL_TOL:g}"
            )
        return problems + _compare(outputs, reference, {"u": LIFT_FIELD_RTOL})


# Why each workload was chosen: NOTES.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        CertifyWorkload("certify-n16", "certify"),
        SolveWorkload("solve-picard", "solve"),
        LiftWorkload(),
    )
}
