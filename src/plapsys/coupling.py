"""Coupling terms phi(x, u, v), psi(x, u, v) and their structural checks.

A Coupling bundles the two reaction expressions with the growth constants
(a1, a2, b1, b2) and the exponent p they refer to:

    |phi(x, u, v)| <= a1 |u|^(p-1) + a2 |v|^(p-1)
    |psi(x, u, v)| <= b1 |v|^(p-1) + b2 |u|^(p-1)

growth_excess(c, box, u_range, v_range) probes this bound and names the
function and the sample point of the largest excess, and
check_monotone(c, box, u_range, v_range) probes coordinatewise
monotonicity of both functions on a bounded sample lattice (8 x 8 points
over the box times STATE_SAMPLES values spanning each state range); they
return the largest excess over the bound and the number of decreasing
adjacent sample pairs, instead of trusting declared constants, and a
domain error names the sample point (x, y, u, v).

eval_on_nodes is the one node evaluator: it binds x and y to the node
coordinates and the states to nodal arrays or to stacks of them
(k, n_nodes), such as the rows of a pair (u, v) or of the lifted pairs
(k, 2, n_nodes) of a block of ball trials (coupling_values).  A domain
error names the node, its coordinates and, in a stack, the row.
nemytskii is the benchmark's single-field adapter.

The homogeneous transform shifts the arguments by boundary lifts h, k:
phit(x, u, v) = phi(x, u + h(x), v + k(x)), which is coupling_values at
the shifted pair.  split_bound splits the shifted growth bound with

    |a + b|^q <= (1 + eps)^q |a|^q + (1 + 1/eps)^q |b|^q,

which holds for every eps > 0 and q > 0.  For q >= 1, convexity of t^q at
|a| + |b| = (1/(1+eps)) (1+eps)|a| + (eps/(1+eps)) (1+1/eps)|b| gives it
with the exponent q - 1 <= q in both factors, whose bases exceed 1; for
q < 1, subadditivity |a + b|^q <= |a|^q + |b|^q gives it with factors 1.
With q = p - 1 and the boundary pair (h, k), a (2, n_nodes) stack of
nodal values, split_bound returns

    a_i' = a_i (1 + eps)^q,   b_i' = b_i (1 + eps)^q   (the growth factor)
    c(x)  = (1 + 1/eps)^q (a1 |h(x)|^q + a2 |k(x)|^q)
    c'(x) = (1 + 1/eps)^q (b1 |k(x)|^q + b2 |h(x)|^q)

so that |phit| <= a1'|u|^q + a2'|v|^q + c(x) and
|psit| <= b1'|v|^q + b2'|u|^q + c'(x): in c' the constant b1, which
multiplies |v|^q, meets the shift k of v, and b2 meets the shift h of u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .field import Grid, ScalarField


@dataclass(frozen=True)
class Coupling:
    """Reaction pair with declared growth constants for exponent p."""

    phi: ex.Expr
    psi: ex.Expr
    a1: float
    a2: float
    b1: float
    b2: float
    p: float

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {val}")
        if self.p <= 1.0:
            raise ValueError(f"p must be > 1, got {self.p}")


def power_family(a1: float, a2: float, b1: float, b2: float, p: float) -> Coupling:
    """Built-in odd-power coupling attaining its growth bound with equality:

    phi = a1 odd_pow(u, p-1) + a2 odd_pow(v, p-1)
    psi = b1 odd_pow(v, p-1) + b2 odd_pow(u, p-1)
    """
    a1, a2, b1, b2, q = (float(t) for t in (a1, a2, b1, b2, p - 1.0))
    phi = ex.parse(f"{a1!r}*odd_pow(u,{q!r})+{a2!r}*odd_pow(v,{q!r})")
    psi = ex.parse(f"{b1!r}*odd_pow(v,{q!r})+{b2!r}*odd_pow(u,{q!r})")
    return Coupling(phi, psi, a1, a2, b1, b2, p)


def eval_on_nodes(
    e: ex.Expr, grid: Grid, first_row: int = 0, **fields: np.ndarray
) -> np.ndarray:
    """Values of e at every node, with x and y bound to the node
    coordinates and each keyword to a nodal array (n_nodes,) or a stack of
    them (k, n_nodes); the values take the broadcast shape.

    Evaluation-domain errors are reported with the offending node's index
    and coordinates, and for a stack also with its row, numbered from
    first_row.
    """
    shape = np.broadcast_shapes((grid.n_nodes,), *(np.shape(a) for a in fields.values()))
    b = {"x": grid.coords[:, 0], "y": grid.coords[:, 1], **fields}
    try:
        vals = ex.evaluate_arrays(e, b)
    except ex._IndexedDomainError as err:
        # the failing subexpression broadcasts to at most (k, n_nodes)
        row, node = divmod(err.index, grid.n_nodes)
        where = ", ".join(f"{c:.17g}" for c in grid.coords[node])
        at = f"row {first_row + row}, node {node}" if len(shape) > 1 else f"node {node}"
        raise ex.EvaluationDomainError(f"{err.message} at {at} ({where})") from err
    return np.broadcast_to(vals, shape).astype(float, copy=True)


def coupling_values(c: Coupling, grid: Grid, W: np.ndarray, first_row: int = 0) -> np.ndarray:
    """The stack (phi(x, u, v), psi(x, u, v)) of each pair (u, v) of the
    stack W (..., 2, n_nodes), shaped like W, by eval_on_nodes; a domain
    error names the node and, in a stack of pairs, the pair from first_row."""
    u, v = W[..., 0, :], W[..., 1, :]
    return np.stack([eval_on_nodes(e, grid, first_row, u=u, v=v) for e in (c.phi, c.psi)], -2)


def nemytskii(c: Coupling, u: ScalarField, v: ScalarField) -> tuple[ScalarField, ScalarField]:
    """coupling_values of one pair of fields; the adapter of the
    benchmark's tracer (perfbench/), which no module of the package calls."""
    grid = u.grid
    if v.grid is not grid:
        raise ValueError("u and v must share a grid")
    phi, psi = coupling_values(c, grid, np.stack([u.values, v.values]))
    return ScalarField(grid, phi), ScalarField(grid, psi)


def split_bound(c: Coupling, hk: np.ndarray, eps: float) -> tuple[float, np.ndarray]:
    """The eps-split of the growth bound of the coupling shifted by the
    boundary pair hk = (h, k), a (2, n_nodes) stack of nodal values: the
    growth factor (1 + eps)^(p-1) of every primed constant and the stacked
    pair (c, c'), shape (2, n_nodes), of the module docstring."""
    q = c.p - 1.0
    hq, kq = np.abs(hk) ** q
    split = (1.0 + 1.0 / eps) ** q * np.stack([c.a1 * hq + c.a2 * kq, c.b2 * hq + c.b1 * kq])
    return (1.0 + eps) ** q, split


STATE_SAMPLES = 41  # values of each state lattice of the probes
GROWTH_TOL = 1e-12

Range = tuple[float, float]


def _sample_eval(c: Coupling, box: tuple[float, ...], u_range: Range, v_range: Range):
    """The coordinates xs and ys of the 8 x 8 points over the box, the
    state lattices uu and vv, STATE_SAMPLES values spanning u_range and
    v_range, and phi and psi on the product of the points with them, each
    of shape (64, STATE_SAMPLES, STATE_SAMPLES).  A domain error names the
    sample point (x, y, u, v)."""
    X, Y = np.meshgrid(np.linspace(box[0], box[1], 8), np.linspace(box[2], box[3], 8))
    xs, ys = X.ravel(), Y.ravel()
    uu = np.linspace(u_range[0], u_range[1], STATE_SAMPLES)
    vv = np.linspace(v_range[0], v_range[1], STATE_SAMPLES)
    b = {"x": xs[:, None, None], "y": ys[:, None, None], "u": uu[:, None], "v": vv}
    vals = []
    for e in (c.phi, c.psi):
        try:
            f = ex.evaluate_arrays(e, b)
            vals.append(np.broadcast_to(f, (len(xs), STATE_SAMPLES, STATE_SAMPLES)))
        except ex._IndexedDomainError as err:
            # the failing subexpression has the shape of the product with some
            # axes of length 1, or is a scalar; such an axis stands at its first sample
            shape = (1,) * (3 - len(err.shape)) + err.shape
            m, i, j = (int(t) for t in np.unravel_index(err.index, shape))
            raise ex.EvaluationDomainError(
                f"{err.message} at sample point (x, y, u, v) = "
                f"({xs[m]:.17g}, {ys[m]:.17g}, {uu[i]:.17g}, {vv[j]:.17g})"
            ) from err
    return xs, ys, uu, vv, *vals


def growth_excess(
    c: Coupling, box: tuple[float, ...], u_range: Range, v_range: Range
) -> tuple[float, str, tuple[float, float, float, float]]:
    """The largest excess of |phi| over a1|u|^(p-1) + a2|v|^(p-1) or of
    |psi| over its bound on the sample lattice of the box and the state
    ranges, the function that attains it ("phi" or "psi") and the sample
    point (x, y, u, v) where it does; the bounds hold on the samples when
    the excess is <= GROWTH_TOL."""
    xs, ys, uu, vv, phi, psi = _sample_eval(c, box, u_range, v_range)
    q = c.p - 1.0
    pu = np.abs(uu) ** q
    pv = np.abs(vv) ** q
    excess = {
        "phi": np.abs(phi) - (c.a1 * pu[None, :, None] + c.a2 * pv[None, None, :]),
        "psi": np.abs(psi) - (c.b1 * pv[None, None, :] + c.b2 * pu[None, :, None]),
    }
    name = max(excess, key=lambda k: excess[k].max())
    m, i, j = np.unravel_index(np.argmax(excess[name]), excess[name].shape)
    point = tuple(float(a) for a in (xs[m], ys[m], uu[i], vv[j]))
    return float(excess[name][m, i, j]), name, point


def check_monotone(c: Coupling, box: tuple[float, ...], u_range: Range, v_range: Range) -> int:
    """Probe that phi and psi are non-decreasing in u and in v separately on
    the sample lattice of the box and the state ranges.

    Returns the number of adjacent sample pairs, along u or along v, on
    which phi or psi decreases; 0 means monotone on the samples.
    """
    *_, phi, psi = _sample_eval(c, box, u_range, v_range)
    return sum(
        int(np.count_nonzero(np.diff(f, axis=axis) < 0.0)) for f in (phi, psi) for axis in (1, 2)
    )
