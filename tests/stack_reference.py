"""Oracles for the stacked sampler, ball check and CSV writer: each does
one field, one trial or one row at a time, the way the package did before
it worked on stacks.  Also the constant-field, sampled-field, pair,
single-field source and norm helpers of the tests."""

import numpy as np

from plapsys.coupling import nemytskii
from plapsys.field import ScalarField, lq_norm
from plapsys.fixpoint import BALL_SLACK, SAMPLER_MODES, smooth_fields
from plapsys.plap import PPoissonProblem, solve_p_poisson


def constant_field(grid, value):
    """The field equal to value at every node."""
    return ScalarField(grid, np.full(grid.n_nodes, float(value)))


def from_callable(grid, fn):
    """The field of fn(x, y) sampled at the nodes."""
    c = grid.coords
    vals = fn(c[:, 0], c[:, 1])
    return ScalarField(grid, np.asarray(vals, dtype=float) + np.zeros(grid.n_nodes))


def pair(u, v):
    """The (2, n_nodes) stack (u, v) of two fields, the form of a pair that
    picard_solve returns and weak_residuals and shift_test take."""
    return np.stack([u.values, v.values])


def sample_smooth_field(grid, rng):
    """One random smooth source: smooth_fields of one coefficient block
    drawn uniform in [-1, 1], the draw calibrate_C and the ball check make
    per field.  Vanishes on the boundary."""
    coeffs = rng.uniform(-1.0, 1.0, size=(1, SAMPLER_MODES, SAMPLER_MODES))
    return ScalarField(grid, smooth_fields(grid, coeffs)[0])


def pair_norm(f, g, r):
    """max of the two lq norms; the product-space norm for source pairs."""
    return max(lq_norm(f, r), lq_norm(g, r))


def scale_to_norm(w, q, target):
    """w rescaled so that lq_norm(w, q) == target; a zero field stays zero."""
    cur = lq_norm(w, q)
    if cur == 0.0:
        return w
    return ScalarField(w.grid, w.values * (target / cur))


def smooth_field_einsum(grid, coeffs):
    """The field of one coefficient block (8, 8) by a sum over every node
    of all 8 x 8 mode products."""
    b = grid.box
    modes = np.arange(1, SAMPLER_MODES + 1)
    xh = (grid.coords[:, 0] - b[0]) / (b[1] - b[0])
    sx = np.sin(np.pi * np.outer(modes, xh))
    yh = (grid.coords[:, 1] - b[2]) / (b[3] - b[2])
    sy = np.sin(np.pi * np.outer(modes, yh))
    return np.einsum("ij,in,jn->n", coeffs, sx, sy)


def ball_check_trialwise(prob, M, trials, seed, tol):
    """check_ball_invariance one trial and one lift at a time: the drawn
    fields f, g of every trial in turn, the radius of every trial, the
    largest output pair norm and the violations."""
    grid, r = prob.grid, prob.exponents.r
    rng = np.random.default_rng(seed)
    draws, radii, worst, violations = [], [], 0.0, []
    for trial in range(trials):
        f = sample_smooth_field(grid, rng)
        g = sample_smooth_field(grid, rng)
        t = rng.uniform(0.0, 1.0)
        draws += [f.values, g.values]
        cur = pair_norm(f, g, r)
        scale = (M * t / cur) if cur > 0.0 else 0.0
        radii.append(M * t)
        u, v = (
            solve_p_poisson(
                PPoissonProblem(grid, prob.exponents.p, ScalarField(grid, w.values * scale), h),
                tol=tol,
            ).solution
            for w, h in ((f, prob.h), (g, prob.k))
        )
        out = pair_norm(*nemytskii(prob.coupling, u, v), r)
        worst = max(worst, out)
        if out > M * (1.0 + BALL_SLACK):
            violations.append((trial, M * t, out))
    return draws, radii, worst, violations


def save_field_rowwise(path, grid, values):
    """save_field formatting each coordinate and value alone."""
    lines = ["x,y,value"]
    for row, v in zip(grid.coords, values):
        parts = [f"{c:.17g}" for c in row] + [f"{v:.17g}"]
        lines.append(",".join(parts))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
