"""Structured grids, nodal fields, gradients, and quadrature norms.

The domain is an axis-aligned box discretized by a uniform lattice with n
cells per axis.  In 2-D each cell is split into two triangles along the
diagonal from its lower-left to its upper-right corner; in 1-D the elements
are the cells themselves.  Nodes are ordered row-major from the (x0, y0)
corner: node (i, j) has index j*(n+1) + i, so the nodal values reshaped to
(n+1, n+1) are indexed [j, i].

Fields are piecewise-linear (P1): a ScalarField stores one value per node,
and all integral quantities use the vertex-averaged elementwise quadrature

    lq_norm(w, q) = (sum_e |mean of vertex values|^q * area_e)^(1/q).

lq_norms is the one kernel that computes it, for every row of a stack of
nodal values (k, n_nodes) at once; lq_norm is a stack of one.

Gradients of the P1 interpolant are constant per element and exact for
affine data.  element_gradients is the one kernel that computes them, for
the energy, the Newton system and the weak residual alike, straight from
slices of the lattice array: the lower triangle of cell (i, j) has the
gradient (Dx[j, i], Dy[j, i+1]) and the upper one (Dx[j+1, i], Dy[j, i]),
with Dx and Dy the difference quotients of U along x and y.  Element
arrays are kept on the lattice, shape (n,) in 1-D and (2, n, n) indexed
[lower/upper, j, i] in 2-D; no element-to-node index array is gathered.

Grid.laplace_solve is the one Laplace solve of the package: it inverts the
interior block K_II of the P1 Laplace stiffness exactly in the sine basis,
for the harmonic extension and the Newton-CG preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=a.dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform simplicial grid on a box, d = 1 or 2.

    Parameters
    ----------
    d : dimension, 1 or 2.
    box : (x0, x1) for d=1, (x0, x1, y0, y1) for d=2; strictly increasing
        per axis.
    n : cells per axis, an integer >= 1 (an integral float is stored as
        its int).

    Derived arrays (all immutable): `coords` (n_nodes, d) node coordinates,
    `elements` (n or 2 n^2, d+1) vertex indices in counterclockwise order
    (in 2-D, element 2*(j*n + i) is the lower and 2*(j*n + i) + 1 the upper
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
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if not (self.n >= 1 and self.n % 1 == 0):  # nan and inf fail too
            raise ValueError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        box = tuple(float(b) for b in self.box)
        object.__setattr__(self, "box", box)
        if len(box) != 2 * self.d:
            raise ValueError(f"box must have {2 * self.d} entries for d={self.d}")
        if box[1] <= box[0] or (self.d == 2 and box[3] <= box[2]):
            raise ValueError("box sides must have positive length")
        if self.d == 1:
            self._build_1d()
        else:
            self._build_2d()

    def _build_1d(self):
        x0, x1 = self.box
        n = self.n
        x = np.linspace(x0, x1, n + 1)
        coords = x[:, None]
        idx = np.arange(n)
        elements = np.stack([idx, idx + 1], axis=1)
        hx = (x1 - x0) / n
        interior = np.arange(1, n)
        boundary = np.array([0, n])
        lumped = np.bincount(elements.ravel(), np.full(2 * n, hx / 2.0), n + 1)
        self._stash(coords, elements, interior, boundary, lumped)

    def _build_2d(self):
        x0, x1, y0, y1 = self.box
        n = self.n
        x = np.linspace(x0, x1, n + 1)
        y = np.linspace(y0, y1, n + 1)
        X, Y = np.meshgrid(x, y)  # row-major: node (i, j) at flat j*(n+1)+i
        coords = np.stack([X.ravel(), Y.ravel()], axis=1)
        hx = (x1 - x0) / n
        hy = (y1 - y0) / n

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
        third = hx * hy / 2.0 / 3.0
        lumped = np.bincount(elements.ravel(), np.full(elements.size, third), (n + 1) ** 2)
        self._stash(coords, elements, interior, boundary, lumped)

    def _stash(self, coords, elements, interior, boundary, lumped):
        object.__setattr__(self, "coords", _readonly(coords))
        object.__setattr__(self, "elements", _readonly(elements))
        object.__setattr__(self, "interior", _readonly(interior))
        object.__setattr__(self, "boundary", _readonly(boundary))
        object.__setattr__(self, "lumped", _readonly(lumped))

    @cached_property
    def _sine_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """S with S @ S = I, and the eigenvalues of K_II shaped like the
        interior: (n-1,) in 1-D, (n-1, n-1) indexed [j, i] in 2-D."""
        n = self.n
        k = np.arange(1, n)
        # sin(pi k l / n) depends on k l mod 2n only: 2n sines, not (n-1)^2
        table = np.sqrt(2.0 / n) * np.sin(np.pi * np.arange(2 * n) / n)
        S = table[np.outer(k, k) % (2 * n)]
        lam = 4.0 * np.sin(np.pi * k / (2.0 * n)) ** 2  # of tridiag(-1, 2, -1)
        if self.d == 1:
            return S, lam / self.spacing[0]
        hx, hy = self.spacing
        return S, (hy / hx) * lam[None, :] + (hx / hy) * lam[:, None]

    def laplace_solve(self, r: np.ndarray) -> np.ndarray:
        """x with K_II x = r, for r given at the interior nodes in the order
        of `interior`, shape (..., N): each row of a stack is solved alone,
        with the same operations as a single right-hand side."""
        S, lam = self._sine_basis
        if self.d == 1:
            y = np.matmul(S, r[..., None])  # one S @ r_b per row
            y /= lam[:, None]
            return np.matmul(S, y)[..., 0]
        R = r.reshape(r.shape[:-1] + lam.shape)
        return (S @ ((S @ R @ S) / lam) @ S).reshape(r.shape)

    @property
    def n_nodes(self) -> int:
        return (self.n + 1) ** self.d

    @property
    def spacing(self) -> tuple[float, ...]:
        if self.d == 1:
            return ((self.box[1] - self.box[0]) / self.n,)
        return (
            (self.box[1] - self.box[0]) / self.n,
            (self.box[3] - self.box[2]) / self.n,
        )

    @property
    def measure(self) -> float:
        """Exact box measure (length or area)."""
        m = self.box[1] - self.box[0]
        if self.d == 2:
            m *= self.box[3] - self.box[2]
        return m

    @property
    def element_measure(self) -> float:
        """Measure of a single element (all elements are congruent)."""
        if self.d == 1:
            return (self.box[1] - self.box[0]) / self.n
        hx, hy = self.spacing
        return hx * hy / 2.0


@dataclass(frozen=True)
class ScalarField:
    """One float per grid node; immutable after construction."""

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


def constant_field(grid: Grid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.n_nodes, float(value)))


def from_callable(grid: Grid, fn) -> ScalarField:
    """Sample fn(x) (d=1) or fn(x, y) (d=2) at the nodes."""
    c = grid.coords
    vals = fn(c[:, 0]) if grid.d == 1 else fn(c[:, 0], c[:, 1])
    return ScalarField(grid, np.asarray(vals, dtype=float) + np.zeros(grid.n_nodes))


def element_gradients(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-element gradient G of the P1 interpolant of nodal `values` and its
    squared norm |G|^2, on the lattice: G[k] is the k-th component, with
    G shape (1, n) and |G|^2 shape (n,) in 1-D, and (2, 2, n, n) and
    (2, n, n) in 2-D, element [t, j, i] the lower (t = 0) or upper (t = 1)
    triangle of cell (i, j).  A stack of fields, `values` of shape
    (..., n_nodes), keeps its leading axes after the component axis of G:
    G (2, B, 2, n, n) and |G|^2 (B, 2, n, n) for B fields in 2-D.  Exact
    for affine data."""
    hx = grid.spacing[0]
    if grid.d == 1:
        G = np.subtract(values[..., 1:], values[..., :-1])[None]
        G /= hx
        return G, G[0] * G[0]
    n = grid.n
    U = values.reshape(values.shape[:-1] + (n + 1, n + 1))
    G = np.empty((2,) + U.shape[:-2] + (2, n, n))
    np.subtract(U[..., :-1, 1:], U[..., :-1, :-1], out=G[0, ..., 0, :, :])  # lower x: Dx[j, i]
    np.subtract(U[..., 1:, 1:], U[..., 1:, :-1], out=G[0, ..., 1, :, :])  # upper x: Dx[j+1, i]
    np.subtract(U[..., 1:, 1:], U[..., :-1, 1:], out=G[1, ..., 0, :, :])  # lower y: Dy[j, i+1]
    np.subtract(U[..., 1:, :-1], U[..., :-1, :-1], out=G[1, ..., 1, :, :])  # upper y: Dy[j, i]
    G[0] /= hx
    G[1] /= grid.spacing[1]
    G2 = G[0] * G[0]
    G2 += G[1] * G[1]
    return G, G2


def lq_norms(grid: Grid, values: np.ndarray, q: float) -> np.ndarray:
    """lq_norm of each row of a stack of nodal values (k, n_nodes), shape
    (k,).  Each row sums the powers of its vertex averages, in the order
    of `Grid.elements`, with the operations of a lone field."""
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    k = values.shape[0]
    if grid.d == 1:
        m = values[:, :-1] + values[:, 1:]
        m /= 2.0
    else:
        n = grid.n
        U = values.reshape(k, n + 1, n + 1)
        m = np.empty((k, n, n, 2))  # [row, j, i, lower/upper]
        np.add(U[:, :-1, :-1] + U[:, :-1, 1:], U[:, 1:, 1:], out=m[..., 0])
        np.add(U[:, :-1, :-1] + U[:, 1:, 1:], U[:, 1:, :-1], out=m[..., 1])
        m /= 3.0
    np.abs(m, out=m)
    np.power(m, q, out=m)
    sums = m.reshape(k, -1).sum(axis=1) * grid.element_measure
    # each root is the scalar pow of a python float, as a lone norm has
    # always taken it; numpy's vectorized pow differs in the last bit
    return np.array([s ** (1.0 / q) for s in sums.tolist()])


def lq_norm(w: ScalarField, q: float) -> float:
    """Vertex-averaged elementwise quadrature norm of order q >= 1."""
    return float(lq_norms(w.grid, w.values[None], q)[0])


def save_field(path, w: ScalarField) -> None:
    """Write the field as CSV (header x[,y],value), 17 significant digits, LF."""
    g = w.grid
    columns = [g.coords[:, a].tolist() for a in range(g.d)] + [w.values.tolist()]
    row = ",".join(["{:.17g}"] * len(columns))
    lines = [",".join(["x", "y"][: g.d] + ["value"])]
    lines += [row.format(*vals) for vals in zip(*columns)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path, grid: Grid) -> ScalarField:
    """Read a field CSV written by save_field.  The header, the row count,
    every number and the node coordinates are checked: each row's x (and y)
    must be that of its node of grid to within 1e-6 of a cell, and its
    value finite.  A ValueError names the file and the line of the first
    bad row; blank lines are skipped but counted."""
    try:
        with open(path) as fh:
            lines = [(k, ln.strip()) for k, ln in enumerate(fh, 1) if ln.strip()]
    except OSError as err:
        raise ValueError(f"cannot read field file {path}: {err.strerror}") from None
    if not lines:
        raise ValueError(f"{path}: empty field file")
    header = lines[0][1].split(",")
    want_cols = grid.d + 1
    if len(header) != want_cols:
        raise ValueError(
            f"{path}: expected {want_cols} columns for d={grid.d}, got {len(header)}"
        )
    rows = lines[1:]
    if len(rows) != grid.n_nodes:
        raise ValueError(
            f"{path}: row count {len(rows)} does not match grid with "
            f"{grid.n_nodes} nodes"
        )
    table = []
    for k, ln in rows:
        parts = ln.split(",")
        if len(parts) != want_cols:
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
    return ScalarField(grid, table[:, -1])
