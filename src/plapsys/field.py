"""Structured grids, nodal fields, gradients, and quadrature norms.

The domain is an axis-aligned rectangle discretized by a uniform lattice
with n cells per axis.  Each cell is split into two triangles along the
diagonal from its lower-left to its upper-right corner.  Nodes are ordered
row-major from the (x0, y0) corner: node (i, j) has index j*(n+1) + i, so the nodal values reshaped to
(n+1, n+1) are indexed [j, i].

Fields are piecewise-linear (P1): one value per node, in stacks of nodal
values (k, n_nodes); a pair such as (h, k), (f, g) or (u, v) is a
(2, n_nodes) stack (check_pair), and all integral quantities use the
vertex-averaged elementwise quadrature

    ||w||_q = (sum_e |mean of vertex values|^q * area_e)^(1/q).

lq_norms is the one kernel that computes it, for every row of a stack at
once, and pair_norms the one pair norm max(||f||_q, ||g||_q).  A row
whose power sum underflows or overflows, as at the large L^s
exponents near the top of the admissible r-interval, takes the norm in its
homogeneous form top * ||w / top||_q, with top the row's largest |vertex
mean|.  ScalarField and lq_norm are the benchmark's single-field adapters.

Gradients of the P1 interpolant are constant per element and exact for
affine data.  element_gradients is the one kernel that computes them, for
the energy, the Newton system and the weak residual alike, straight from
slices of the lattice array: the lower triangle of cell (i, j) has the
gradient (Dx[j, i], Dy[j, i+1]) and the upper one (Dx[j+1, i], Dy[j, i]),
with Dx and Dy the difference quotients of U along x and y.  Element
arrays are kept on the lattice, shape (2, n, n) indexed [lower/upper, j,
i]; no element-to-node index array is gathered.

Grid.laplace_solve is the one Laplace solve of the package: it inverts the
interior block K_II of the P1 Laplace stiffness exactly in the sine basis,
for the harmonic extension and the Newton-CG preconditioner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=a.dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform triangulation of a rectangle; the grid is planar, d = 2.

    Parameters
    ----------
    d : the dimension, which must be 2; any other value raises ValueError.
    box : (x0, x1, y0, y1); finite and strictly increasing per axis, with
        an element area hx hy / 2 that is a positive normal float.
    n : cells per axis, an integer >= 1 (an integral float is stored as
        its int).

    Derived arrays (all immutable): `coords` (n_nodes, 2) node coordinates,
    `elements` (2 n^2, 3) vertex indices in counterclockwise order
    (element 2*(j*n + i) is the lower and 2*(j*n + i) + 1 the upper
    triangle of cell (i, j)), `interior` and `boundary` node index arrays,
    `lumped` (n_nodes,) vertex-quadrature node weights.  The element kernels
    of `field` and `plap` work on lattice slices and never read `elements`.

    `laplace_solve` solves with the interior block K_II of the P1 Laplace
    stiffness.  On this lattice K_II is exactly the 5-point stencil with
    weights hy/hx and hx/hy (the hypotenuse edges couple with weight 0), so
    the orthonormal DST-I matrix S of order n - 1 diagonalizes it; S and
    the eigenvalues are computed on the first solve and kept (O(n^2)).
    """

    d: int
    box: tuple[float, ...]
    n: int
    coords: np.ndarray = field(init=False, repr=False, compare=False)
    elements: np.ndarray = field(init=False, repr=False, compare=False)
    interior: np.ndarray = field(init=False, repr=False, compare=False)
    boundary: np.ndarray = field(init=False, repr=False, compare=False)
    lumped: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d != 2:
            raise ValueError(f"grids are planar: d must be 2, got {self.d}")
        if not (self.n >= 1 and self.n % 1 == 0):  # nan and inf fail too
            raise ValueError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        box = tuple(float(b) for b in self.box)
        object.__setattr__(self, "box", box)
        if len(box) != 4:
            raise ValueError("box must have 4 entries (x0, x1, y0, y1)")
        if not all(math.isfinite(b) for b in box):  # nan passes the comparisons below
            raise ValueError(f"box entries must be finite, got {box}")
        x0, x1, y0, y1 = box
        if x1 <= x0 or y1 <= y0:
            raise ValueError("box sides must have positive length")
        n = self.n
        x = np.linspace(x0, x1, n + 1)
        y = np.linspace(y0, y1, n + 1)
        X, Y = np.meshgrid(x, y)  # row-major: node (i, j) at flat j*(n+1)+i
        coords = np.stack([X.ravel(), Y.ravel()], axis=1)
        hx = (x1 - x0) / n
        hy = (y1 - y0) / n
        area = hx * hy / 2.0
        if not (np.finfo(float).tiny <= area < math.inf):  # every quadrature weight scales it
            raise ValueError(f"box {box} at n = {n} gives the element area {area!r}, "
                             "not a positive normal float")

        ci, cj = np.meshgrid(np.arange(n), np.arange(n))  # ci[j, i] = i, cj[j, i] = j
        ll = (cj * (n + 1) + ci).ravel()  # lower-left node of cell (i, j), j outer
        lower = np.stack([ll, ll + 1, ll + n + 2], axis=1)
        upper = np.stack([ll, ll + n + 2, ll + n + 1], axis=1)
        elements = np.empty((2 * n * n, 3), dtype=np.int64)
        elements[0::2] = lower
        elements[1::2] = upper

        flat_i = np.tile(np.arange(n + 1), n + 1)
        flat_j = np.repeat(np.arange(n + 1), n + 1)
        on_boundary = (flat_i == 0) | (flat_i == n) | (flat_j == 0) | (flat_j == n)
        interior = np.flatnonzero(~on_boundary)
        boundary = np.flatnonzero(on_boundary)
        third = area / 3.0
        lumped = np.bincount(elements.ravel(), np.full(elements.size, third), (n + 1) ** 2)
        object.__setattr__(self, "coords", _readonly(coords))
        object.__setattr__(self, "elements", _readonly(elements))
        object.__setattr__(self, "interior", _readonly(interior))
        object.__setattr__(self, "boundary", _readonly(boundary))
        object.__setattr__(self, "lumped", _readonly(lumped))

    @cached_property
    def _sine_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """S with S @ S = I, and the eigenvalues of K_II shaped like the
        interior lattice, (n-1, n-1) indexed [j, i]."""
        n = self.n
        k = np.arange(1, n)
        # sin(pi k l / n) depends on k l mod 2n only: 2n sines, not (n-1)^2
        table = np.sqrt(2.0 / n) * np.sin(np.pi * np.arange(2 * n) / n)
        S = table[np.outer(k, k) % (2 * n)]
        lam = 4.0 * np.sin(np.pi * k / (2.0 * n)) ** 2  # of tridiag(-1, 2, -1)
        hx, hy = self.spacing
        return S, (hy / hx) * lam[None, :] + (hx / hy) * lam[:, None]

    def laplace_solve(self, r: np.ndarray) -> np.ndarray:
        """x with K_II x = r, for r given at the interior nodes in the order
        of `interior`, shape (..., N): each row of a stack is solved alone,
        with the same operations as a single right-hand side."""
        S, lam = self._sine_basis
        R = r.reshape(r.shape[:-1] + lam.shape)
        return (S @ ((S @ R @ S) / lam) @ S).reshape(r.shape)

    @property
    def n_nodes(self) -> int:
        return (self.n + 1) ** 2

    @property
    def spacing(self) -> tuple[float, float]:
        return (
            (self.box[1] - self.box[0]) / self.n,
            (self.box[3] - self.box[2]) / self.n,
        )

    @property
    def measure(self) -> float:
        """Exact box area."""
        return (self.box[1] - self.box[0]) * (self.box[3] - self.box[2])

    @property
    def element_measure(self) -> float:
        """Area of a single element (all elements are congruent)."""
        hx, hy = self.spacing
        return hx * hy / 2.0


@dataclass(frozen=True)
class ScalarField:
    """One float per grid node; immutable after construction.  The
    benchmark's (perfbench/) single field: only its adapters build one."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"values must have shape ({self.grid.n_nodes},), got {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _readonly(v))


def check_pair(grid: Grid, w: np.ndarray, name: str) -> np.ndarray:
    """A read-only float copy of the pair w, which must be a (2, n_nodes)
    stack of finite values on grid; otherwise a ValueError naming `name`."""
    if np.shape(w) != (2, grid.n_nodes):
        raise ValueError(f"{name} must be a (2, {grid.n_nodes}) stack, got shape {np.shape(w)}")
    if not np.isfinite(w).all():
        raise ValueError(f"the values of the pair {name} must be finite")
    return _readonly(np.array(w, dtype=float))


def element_gradients(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-element gradient G of the P1 interpolant of nodal `values` and its
    squared norm |G|^2, on the lattice: G[k] is the k-th component, with
    G shape (2, 2, n, n) and |G|^2 shape (2, n, n), element [t, j, i] the
    lower (t = 0) or upper (t = 1) triangle of cell (i, j).  A stack of
    fields, `values` of shape (..., n_nodes), keeps its leading axes after
    the component axis of G: G (2, B, 2, n, n) and |G|^2 (B, 2, n, n) for
    B fields.  Exact for affine data."""
    hx, hy = grid.spacing
    n = grid.n
    U = values.reshape(values.shape[:-1] + (n + 1, n + 1))
    G = np.empty((2,) + U.shape[:-2] + (2, n, n))
    np.subtract(U[..., :-1, 1:], U[..., :-1, :-1], out=G[0, ..., 0, :, :])  # lower x: Dx[j, i]
    np.subtract(U[..., 1:, 1:], U[..., 1:, :-1], out=G[0, ..., 1, :, :])  # upper x: Dx[j+1, i]
    np.subtract(U[..., 1:, 1:], U[..., :-1, 1:], out=G[1, ..., 0, :, :])  # lower y: Dy[j, i+1]
    np.subtract(U[..., 1:, :-1], U[..., :-1, :-1], out=G[1, ..., 1, :, :])  # upper y: Dy[j, i]
    G[0] /= hx
    G[1] /= hy
    G2 = G[0] * G[0]
    G2 += G[1] * G[1]
    return G, G2


def _abs_vertex_means(grid: Grid, values: np.ndarray) -> np.ndarray:
    """|mean of vertex values| of every element of each row of a stack
    (k, n_nodes), shape (k, n, n, 2) indexed [row, j, i, lower/upper]."""
    k, n = values.shape[0], grid.n
    U = values.reshape(k, n + 1, n + 1)
    m = np.empty((k, n, n, 2))
    np.add(U[:, :-1, :-1] + U[:, :-1, 1:], U[:, 1:, 1:], out=m[..., 0])
    np.add(U[:, :-1, :-1] + U[:, 1:, 1:], U[:, 1:, :-1], out=m[..., 1])
    m /= 3.0
    return np.abs(m, out=m)


def lq_norms(grid: Grid, values: np.ndarray, q: float) -> np.ndarray:
    """The norm ||w||_q, q >= 1, of each row w of a stack of nodal values
    (k, n_nodes), shape (k,).  Each row sums the powers of its vertex averages, in the order
    of `Grid.elements`, with the operations of a lone field.  A row whose
    sum is not a normal finite float, and whose means are not all zero,
    is summed again scaled by its largest |vertex mean|."""
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    m = _abs_vertex_means(grid, values)
    with np.errstate(over="ignore"):  # such a row is summed again below
        np.power(m, q, out=m)
    sums = m.reshape(len(m), -1).sum(axis=1) * grid.element_measure
    # each root is the scalar pow of a python float, as a lone norm has
    # always taken it; numpy's vectorized pow differs in the last bit
    norms = [s ** (1.0 / q) for s in sums.tolist()]
    for i in np.flatnonzero(~((sums >= np.finfo(float).tiny) & (sums < np.inf))):
        a = _abs_vertex_means(grid, values[i : i + 1])
        top = a.max()
        if top > 0.0:
            a /= top
            np.power(a, q, out=a)
            norms[i] = top * (a.sum() * grid.element_measure) ** (1.0 / q)
    return np.array(norms)


def pair_norms(grid: Grid, W: np.ndarray, q: float) -> np.ndarray:
    """The pair norm max(||f||_q, ||g||_q) of each pair (f, g) of a stack
    W (..., 2, n_nodes), shape (...,), from one lq_norms call."""
    return lq_norms(grid, W.reshape(-1, grid.n_nodes), q).reshape(W.shape[:-1]).max(axis=-1)


def lq_norm(w: ScalarField, q: float) -> float:
    """lq_norms of one field; the adapter of the benchmark's tracer
    (perfbench/), which no module of the package calls."""
    return float(lq_norms(w.grid, w.values[None], q)[0])


def save_field(path, grid: Grid, values: np.ndarray) -> None:
    """Write the nodal values (n_nodes,) of grid as CSV (header x,y,value),
    17 significant digits, LF."""
    x, y = grid.coords.T.tolist()
    lines = ["x,y,value"]
    lines += [f"{a:.17g},{b:.17g},{v:.17g}" for a, b, v in zip(x, y, values.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path, grid: Grid) -> np.ndarray:
    """The read-only nodal values (n_nodes,) of a field CSV written by
    save_field.  The header, the row count, every number and the node
    coordinates are checked: each row's x and y must be that of its node
    of grid to within 1e-6 of a cell, and its value finite.  A ValueError
    names the file and the line of the first bad row; blank lines are
    skipped but counted."""
    try:
        with open(path) as fh:
            lines = [(k, ln.strip()) for k, ln in enumerate(fh, 1) if ln.strip()]
    except OSError as err:
        raise ValueError(f"cannot read field file {path}: {err.strerror}") from None
    if not lines:
        raise ValueError(f"{path}: empty field file")
    header = lines[0][1].split(",")
    if len(header) != 3:
        raise ValueError(f"{path}: expected 3 columns (x, y, value), got {len(header)}")
    rows = lines[1:]
    if len(rows) != grid.n_nodes:
        raise ValueError(
            f"{path}: row count {len(rows)} does not match grid with "
            f"{grid.n_nodes} nodes"
        )
    table = []
    for k, ln in rows:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}: line {k}: malformed row")
        try:
            table.append([float(s) for s in parts])
        except ValueError:
            raise ValueError(f"{path}: line {k}: not a number in {ln!r}") from None
    table = np.array(table)
    bad = ~np.isfinite(table[:, -1])
    bad |= ~(np.abs(table[:, :-1] - grid.coords) <= 1e-6 * np.array(grid.spacing)).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        k, ln = rows[i]
        *xy, value = (s.strip() for s in ln.split(","))
        if not np.isfinite(table[i, -1]):
            raise ValueError(f"{path}: line {k}: value {value} is not finite")
        node = ", ".join(repr(float(c)) for c in grid.coords[i])
        raise ValueError(
            f"{path}: line {k}: coordinates ({', '.join(xy)}) are not those of "
            f"grid node {i} ({node})"
        )
    return _readonly(table[:, -1])
