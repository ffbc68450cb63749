"""Coupling terms phi(x, u, v), psi(x, u, v) and their structural checks.

A Coupling bundles the two reaction expressions with the growth constants
(a1, a2, b1, b2) and the exponent p they refer to:

    |phi(x, u, v)| <= a1 |u|^(p-1) + a2 |v|^(p-1)
    |psi(x, u, v)| <= b1 |v|^(p-1) + b2 |u|^(p-1)

check_growth probes this bound and check_monotone probes coordinatewise
monotonicity of both functions on a bounded sample lattice (SampleSpec:
spatial points times STATE_SAMPLES values of u and of v); they return the
largest excess over the bound and the decreasing sample pairs, instead of
trusting declared constants, and a domain error names the sample point
(x, y, u, v).

eval_on_nodes is the one node evaluator: it binds x and y to the node
coordinates and the states to nodal arrays or to stacks of them
(k, n_nodes), such as the lifted pairs of a block of ball trials
(coupling_values); nemytskii evaluates one pair of fields.  A domain error
names the node, its coordinates and, in a stack, the row.

The homogeneous transform shifts the arguments by boundary lifts h, k:
phit(x, u, v) = phi(x, u + h(x), v + k(x)), which is nemytskii at the
shifted fields.  Splitting the shifted growth bound with the elementary
inequality |a+b|^q <= (1+eps)^(q-ish)|a|^q + (1+1/eps)^(q-ish)|b|^q gives,
for any eps > 0 and with q = p - 1, the data that split_bound returns
from the nodal values of h and k:

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


def coupling_values(
    c: Coupling, grid: Grid, u: np.ndarray, v: np.ndarray, first_row: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Nodewise phi(x, u(x), v(x)) and psi(x, u(x), v(x)) of every row of
    the stacks u and v (k, n_nodes), or of one pair of nodal arrays, by
    eval_on_nodes; a domain error in a stack names the row, numbered from
    first_row, and the node."""
    return (
        eval_on_nodes(c.phi, grid, first_row, u=u, v=v),
        eval_on_nodes(c.psi, grid, first_row, u=u, v=v),
    )


def nemytskii(c: Coupling, u: ScalarField, v: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Nodewise (phi(x, u(x), v(x)), psi(x, u(x), v(x))): coupling_values
    of one pair of fields."""
    grid = u.grid
    if v.grid is not grid:
        raise ValueError("u and v must share a grid")
    phi, psi = coupling_values(c, grid, u.values, v.values)
    return ScalarField(grid, phi), ScalarField(grid, psi)


def split_bound(
    c: Coupling, h: np.ndarray, k: np.ndarray, eps: float
) -> tuple[float, np.ndarray]:
    """The eps-split of the growth bound of the coupling shifted by the
    nodal boundary values h and k: the growth factor (1 + eps)^(p-1) of
    every primed constant and the stacked pair (c, c'), shape
    (2, n_nodes), of the module docstring."""
    q = c.p - 1.0
    hq, kq = np.abs(h) ** q, np.abs(k) ** q
    split = (1.0 + 1.0 / eps) ** q * np.stack([c.a1 * hq + c.a2 * kq, c.b2 * hq + c.b1 * kq])
    return (1.0 + eps) ** q, split


STATE_SAMPLES = 41  # values of each state lattice of a SampleSpec


@dataclass(frozen=True)
class SampleSpec:
    """Bounded lattice on which the hypothesis checks probe the coupling.

    `points` is an (m, 2) array of spatial sample coordinates; the state
    lattices are
    STATE_SAMPLES evenly spaced values spanning u_range and v_range.
    """

    points: np.ndarray
    u_range: tuple[float, float] = (-10.0, 10.0)
    v_range: tuple[float, float] = (-10.0, 10.0)

    @staticmethod
    def for_box(box: tuple[float, ...]) -> "SampleSpec":
        """8 x 8 spatial lattice over the box (64 points)."""
        X, Y = np.meshgrid(np.linspace(box[0], box[1], 8), np.linspace(box[2], box[3], 8))
        return SampleSpec(points=np.stack([X.ravel(), Y.ravel()], axis=1))

    def lattices(self):
        uu = np.linspace(self.u_range[0], self.u_range[1], STATE_SAMPLES)
        vv = np.linspace(self.v_range[0], self.v_range[1], STATE_SAMPLES)
        return uu, vv


GROWTH_TOL = 1e-12


def _sample_eval(e: ex.Expr, spec: SampleSpec):
    """Evaluate e on the (points, u-lattice, v-lattice) product, shape
    (m, STATE_SAMPLES, STATE_SAMPLES).  A domain error names the sample
    point (x, y, u, v)."""
    uu, vv = spec.lattices()
    b = {
        "x": spec.points[:, 0][:, None, None],
        "y": spec.points[:, 1][:, None, None],
        "u": uu[None, :, None],
        "v": vv[None, None, :],
    }
    try:
        vals = ex.evaluate_arrays(e, b)
    except ex._IndexedDomainError as err:
        # the failing subexpression has the shape of the product with some
        # axes of length 1, or is a scalar; such an axis stands at its first sample
        shape = (1,) * (3 - len(err.shape)) + err.shape
        m, i, j = (int(t) for t in np.unravel_index(err.index, shape))
        x, y = spec.points[m]
        raise ex.EvaluationDomainError(
            f"{err.message} at sample point (x, y, u, v) = "
            f"({x:.17g}, {y:.17g}, {uu[i]:.17g}, {vv[j]:.17g})"
        ) from err
    return np.broadcast_to(vals, (len(spec.points), STATE_SAMPLES, STATE_SAMPLES))


def check_growth(c: Coupling, spec: SampleSpec) -> float:
    """Probe |phi| <= a1|u|^(p-1) + a2|v|^(p-1) and the psi analogue on spec.

    Returns the largest excess of |phi| or |psi| over its declared bound,
    0.0 when there is none; the bound holds on the samples when the excess
    is <= GROWTH_TOL.
    """
    uu, vv = spec.lattices()
    q = c.p - 1.0
    pu = np.abs(uu) ** q
    pv = np.abs(vv) ** q
    phi = _sample_eval(c.phi, spec)
    psi = _sample_eval(c.psi, spec)
    exc_phi = np.abs(phi) - (c.a1 * pu[None, :, None] + c.a2 * pv[None, None, :])
    exc_psi = np.abs(psi) - (c.b1 * pv[None, None, :] + c.b2 * pu[None, :, None])
    return max(float(exc_phi.max()), float(exc_psi.max()), 0.0)


def check_monotone(c: Coupling, spec: SampleSpec) -> list[tuple]:
    """Probe that phi and psi are non-decreasing in u and in v separately on
    spec.

    Returns every adjacent sample pair that decreases, as a tuple
    (function, sweep variable, x, y, fixed other value, t, t_next, f(t),
    f(t_next)); an empty list means monotone on the samples.
    """
    uu, vv = spec.lattices()
    violations = []
    for name, e in (("phi", c.phi), ("psi", c.psi)):
        vals = _sample_eval(e, spec)
        for var, axis, sweep, other in (("u", 1, uu, vv), ("v", 2, vv, uu)):
            for m, i, j in np.argwhere(np.diff(vals, axis=axis) < 0.0):
                t, o = (i, j) if axis == 1 else (j, i)
                nxt = (m, i + 1, j) if axis == 1 else (m, i, j + 1)
                x, y = spec.points[m]
                violations.append(
                    (name, var, float(x), float(y), float(other[o]), float(sweep[t]),
                     float(sweep[t + 1]), float(vals[m, i, j]), float(vals[nxt]))
                )
    return violations
