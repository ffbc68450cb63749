"""Scalar p-Poisson Dirichlet solves by energy minimization.

Solves the discrete problem: minimize

    J(u) = sum_e (1/p) |grad u|^p area_e + sum_e mean_e(f u) area_e

over P1 fields attaining the boundary data h, whose stationarity condition
is the vertex-quadrature weak form of Delta_p u = f (sign convention:
f = Delta_p u, so f = Delta u when p = 2).

The minimizer is computed by damped Newton on the regularized energy with
|grad u|^(p-2) evaluated as (|grad u|^2 + reg^2)^((p-2)/2).  The Newton
system H (positive definite for p > 1) is only its interior block H_II,
kept as its stencil diagonals, shape (K, N) with K = 3 in 1-D and 7 in 2-D
(fewer when n <= 2): each step sums them from slices of the lattice-shaped
element gradients, so no index array, per-grid cache or sparse format is
built.  The energy and the residual are sliced alike.  H is solved by cg, a numpy PCG that performs the operations of scipy's cg,
with the stencil product in the order of a CSR product, and preconditioned
by the diagonally scaled Laplacian, M^-1 z = s^-1 K_II^-1 (s^-1 z) with
s = sqrt(diag H), applied exactly by Grid.laplace_solve (Huang, Li and
Liu, J. Sci. Comput. 2007).  The scaling carries the local weight
|grad u|^(p-2) that the plain Laplacian lacks.  Near p = 2 the CG count
per Newton step stays flat in n; for p far from 2 it still grows with n.
If the linear solve fails or produces an ascent direction, or its step
finds no Armijo decrease, the step falls back to steepest descent.  Steps
are accepted by Armijo backtracking (sufficient decrease 1e-4, halving, at
most 40 trials).  The initial iterate is the discrete 2-harmonic extension
of h, one Grid.laplace_solve; for p >= 4 or p <= 1.3 the problem is first
solved at p = 2 and continued from there.  The report counts the Newton
steps, CG iterations and steepest-descent fallbacks of its own Newton loop
(not those of the p = 2 warm start).

Convergence means the euclidean norm of the energy gradient restricted to
interior nodes is <= tol.  Non-convergence is reported, never papered over:
the report carries converged=False, the last iterate and its stop_reason,
"max_iter" (max_iter Newton steps taken) or "stalled" (no Armijo decrease
along the Newton direction nor along steepest descent).  tol and reg must
be positive and finite.

residual_vector is the one weighted-flux residual of the package: with
reg > 0 it is the gradient of the regularized energy that Newton drives to
zero, and with reg = 0 it is the unregularized weak form that verify
classifies, the weight |grad u|^(p-2) extended by 0 where grad u = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .field import Grid, ScalarField, element_gradients

ARMIJO_DECREASE = 1e-4
ARMIJO_FACTOR = 0.5
ARMIJO_MAX_TRIALS = 40
CG_RTOL = 1e-10
DEFAULT_REG = 1e-8
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500


@dataclass(frozen=True)
class PPoissonProblem:
    """Data for one scalar solve: grid, exponent p > 1, source f, boundary h.

    h is stored as a full nodal field; only its boundary values are read.
    """

    grid: Grid
    p: float
    f: ScalarField
    h: ScalarField

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError(f"p must be > 1, got {self.p}")
        if self.f.grid is not self.grid or self.h.grid is not self.grid:
            raise ValueError("f and h must live on the problem grid")


@dataclass
class SolveReport:
    solution: ScalarField
    iterations: int
    cg_iterations: int
    fallbacks: int
    gradient_norm: float
    reg: float
    tol: float
    converged: bool
    stop_reason: str  # "converged", "max_iter" or "stalled"
    energy_history: list[float]


def _weights(G2: np.ndarray, p: float, reg: float) -> np.ndarray:
    """Element flux weights (|grad u|^2 + reg^2)^((p-2)/2), extended by 0
    where that base vanishes (only possible at reg = 0)."""
    base = G2 + reg * reg
    positive = True if reg > 0.0 else base > 0.0
    return np.power(base, (p - 2.0) / 2.0, out=np.zeros_like(base), where=positive)


def _energy_reg(grid: Grid, u: np.ndarray, p: float, f: np.ndarray, reg: float) -> float:
    _, G2 = element_gradients(grid, u)
    G2 += reg * reg
    grad_term = (G2 ** (p / 2.0)).sum() * grid.element_measure / p
    return float(grad_term + np.dot(grid.lumped * f, u))


def energy(u: ScalarField, p: float, f: ScalarField) -> float:
    """Discrete energy (1/p) sum |grad u|^p area + sum mean(f u) area."""
    return _energy_reg(u.grid, u.values, p, f.values, 0.0)


def residual_vector(grid: Grid, u: np.ndarray, p: float, f: np.ndarray, reg: float) -> np.ndarray:
    """Weak residual t_i = sum_e area W_e (G_e . grad phi_i) + m_i f_i at every
    node: the gradient of the regularized energy for reg > 0, and at reg = 0
    the unregularized weak form, with weight 0 where grad u = 0.

    On this lattice G_e . grad phi_i only takes the difference quotients
    along the edges of e, so t is minus the divergence of the edge fluxes:
    area W_e G_e[k] / h_k, summed over the two triangles at each edge, flows
    out of its first node and into its second."""
    G, G2 = element_gradients(grid, u)
    W = _weights(G2, p, reg)
    W *= grid.element_measure
    F = np.multiply(G, W, out=G)
    n = grid.n
    if grid.d == 1:
        E = np.zeros(n + 2)  # the edge from node i to i+1 at [i+1]
        np.divide(F[0], grid.spacing[0], out=E[1:-1])
        return E[:-1] - E[1:] + grid.lumped * f
    hx, hy = grid.spacing
    F[0] /= hx
    F[1] /= hy
    Ex = np.zeros((n + 1, n + 2))  # the edge from (i, j) to (i+1, j) at [j, i+1]
    Ex[:-1, 1:-1] = F[0, 0]  # lower triangle of cell (i, j)
    Ex[1:, 1:-1] += F[0, 1]  # upper triangle of cell (i, j-1)
    Ey = np.zeros((n + 2, n + 1))  # the edge from (i, j) to (i, j+1) at [j+1, i]
    Ey[1:-1, 1:] = F[1, 0]  # lower triangle of cell (i-1, j)
    Ey[1:-1, :-1] += F[1, 1]  # upper triangle of cell (i, j)
    out = Ex[:, :-1] - Ex[:, 1:]
    out += Ey[:-1] - Ey[1:]
    return out.ravel() + grid.lumped * f


def harmonic_extension(grid: Grid, h: ScalarField) -> ScalarField:
    """Discrete 2-harmonic extension of the boundary values of h."""
    I, B = grid.interior, grid.boundary
    u = np.zeros(grid.n_nodes)
    u[B] = h.values[B]
    # -(K u_B)_I: at p = 2 every flux weight is exactly 1, whatever reg
    u[I] = grid.laplace_solve(-residual_vector(grid, u, 2.0, 0.0, reg=1.0)[I])
    return ScalarField(grid, u)


def _stencil_offsets(grid: Grid) -> tuple[int, ...]:
    """Column offsets from the row of the diagonals of the interior block:
    the neighbours (i, j) -> (i+1, j), (i, j+1) and (i+1, j+1) are 1, n-1
    and n in the interior numbering.  An offset with |o| >= N = len(interior)
    has no entry and is dropped, so only n <= 2 has fewer than 3 (1-D) or
    7 (2-D)."""
    steps = (1,) if grid.d == 1 else (1, grid.n - 1, grid.n)
    N = len(grid.interior)
    return tuple(o for o in sorted({0, *steps, *(-s for s in steps)}) if abs(o) < N)


def _newton_system(grid: Grid, u: np.ndarray, p: float, reg: float) -> np.ndarray:
    """Interior block H_II of the Hessian of the regularized energy at u:
    sum_e area [W gphi_a.gphi_b + W' (G.gphi_a)(G.gphi_b)], as its
    diagonals, shape (K, N): row k holds H[i, i + offsets[k]] at column i,
    with the offsets of _stencil_offsets, and 0 where that entry does not
    exist.

    Per element the Hessian is the quadratic form of the 2 x 2 matrix
    A = area (W I + W' G G^T) in the element gradient, whose components are
    the nodal differences along an x and a y edge over hx and hy.  With
    P = A_xx / hx^2, Q = A_yy / hy^2 and R = A_xy / (hx hy), the x edge
    couples its two nodes by R - P, the y edge by R - Q and the hypotenuse
    by -R; on the diagonal, the corner off the y edge gets P, the corner
    off the x edge Q and the corner on both P + Q - 2R.  The upper
    diagonals sum these couplings over the (at most two) elements of an
    edge, the centre sums the six elements at a node, and the lower
    diagonals mirror the upper ones (1-D: P = A / h^2, no y edge)."""
    offsets = _stencil_offsets(grid)
    K, N = len(offsets), len(grid.interior)
    G, G2 = element_gradients(grid, u)
    base = G2 + reg * reg  # reg > 0, so the base is positive
    W = base ** ((p - 2.0) / 2.0)
    W *= grid.element_measure
    Wp = np.divide(W, base, out=base)
    Wp *= p - 2.0
    h = np.reshape(grid.spacing, (grid.d,) + (1,) * (G.ndim - 1))
    s = np.divide(G, h, out=G)
    PQ = s * Wp
    PQ *= s
    PQ += W / (h * h)  # PQ[0] = P, PQ[1] = Q
    if grid.d == 1:
        P = PQ[0]
        D = np.zeros((3, N))
        np.add(P[1:], P[:-1], out=D[1])
        np.negative(P[1:-1], out=D[2, :-1])
        upper = ((1, 2),)
    else:
        m = grid.n - 1  # interior nodes per lattice row
        R = s[0] * s[1]
        R *= Wp
        T = PQ[0] + PQ[1, ::-1]
        Z = np.subtract(PQ, R, out=PQ)  # minus the x and y edge couplings
        D = np.zeros((7, m, m))
        # upper diagonals, negated at the end: (i+1, j), (i, j+1), (i+1, j+1)
        np.add(Z[0, 0, 1:, 1:-1], Z[0, 1, :-1, 1:-1], out=D[4, :, :-1])
        np.add(Z[1, 1, 1:-1, 1:], Z[1, 0, 1:-1, :-1], out=D[5, :-1])
        np.add(R[0, 1:-1, 1:-1], R[1, 1:-1, 1:-1], out=D[6, :-1, :-1])
        np.negative(D[4:], out=D[4:])
        # centre: P of the lower triangle of cell (i, j) and Q of the upper
        # one, Q and P of those of cell (i-1, j-1), and P + Q - 2R of the
        # lower triangle of cell (i-1, j) and the upper one of cell (i, j-1)
        M = Z[0] + Z[1]
        np.add(T[0, 1:, 1:], T[1, :-1, :-1], out=D[3])
        D[3] += M[0, 1:, :-1]
        D[3] += M[1, :-1, 1:]
        D = D.reshape(7, N)
        upper = ((1, 4), (m, 5), (m + 1, 6))
    for o, k in upper:
        D[len(D) - 1 - k, o:] = D[k, : N - o]
    mid = len(D) // 2
    return D[mid - K // 2 : mid + (K + 1) // 2]  # fewer diagonals for n <= 2


def _stencil_matvec(D: np.ndarray, offsets: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """H x for H given by its diagonals D at `offsets`: each row sums its
    terms from 0 in increasing column order, as a CSR product does."""
    N = len(x)
    y = np.zeros(N)
    for d, o in zip(D, offsets):
        if o < 0:
            y[-o:] += d[-o:] * x[: N + o]
        else:
            y[: N - o] += d[: N - o] * x[o:]
    return y


def cg(A, b, *, rtol, M, callback=None):
    """Preconditioned conjugate gradients for A x = b from x = 0, with A and
    M^-1 given as callables.  Stops when ||r|| < rtol ||b||; returns (x, 0),
    or (x, maxiter) after maxiter = 10 N iterations without convergence.
    callback(x) is called once per iteration.  The operations and their
    order are those of scipy.sparse.linalg.cg with atol = 0."""
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return b, 0
    atol = rtol * bnorm
    maxiter = 10 * len(b)
    x = np.zeros_like(b)
    r = b.copy()
    for it in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = M(r)
        rho = np.dot(r, z)
        if it == 0:
            d = z.copy()
        else:
            d *= rho / rho_prev
            d += z
        q = A(d)
        alpha = rho / np.dot(d, q)
        x += alpha * d
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def solve_p_poisson(
    prob: PPoissonProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    reg: float = DEFAULT_REG,
) -> SolveReport:
    """Minimize the regularized energy; see the module docstring for the scheme."""
    for name, val in (("tol", tol), ("reg", reg)):
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {val}")
    grid, p = prob.grid, prob.p
    fv = prob.f.values
    I = grid.interior
    offsets = _stencil_offsets(grid)

    if (p >= 4.0 or p <= 1.3) and p != 2.0:
        base = solve_p_poisson(replace(prob, p=2.0), tol=tol, max_iter=max_iter, reg=reg)
        u = base.solution.values.copy()
    else:
        u = harmonic_extension(grid, prob.h).values.copy()
    u[grid.boundary] = prob.h.values[grid.boundary]

    history = [_energy_reg(grid, u, p, fv, reg)]
    iterations = cg_iterations = fallbacks = 0

    def count_cg(_):
        nonlocal cg_iterations
        cg_iterations += 1

    while True:
        g = residual_vector(grid, u, p, fv, reg)[I]
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            stop_reason = "converged"
            break
        if iterations >= max_iter:
            stop_reason = "max_iter"
            break

        D = _newton_system(grid, u, p, reg)
        s = np.sqrt(D[len(D) // 2])  # offsets are symmetric: the middle one is 0
        delta, info = cg(
            lambda z: _stencil_matvec(D, offsets, z),
            -g,
            rtol=CG_RTOL,
            M=lambda z: grid.laplace_solve(z / s) / s,
            callback=count_cg,
        )
        slope = float(g @ delta)
        step = None
        if info == 0 and slope < 0.0 and np.isfinite(delta).all():
            step, new_u, new_energy = _armijo(
                grid, u, p, fv, reg, I, delta, slope, history[-1]
            )
        if step is None:
            fallbacks += 1
            step, new_u, new_energy = _armijo(
                grid, u, p, fv, reg, I, -g, -gnorm * gnorm, history[-1]
            )
        if step is None:
            stop_reason = "stalled"  # no Armijo decrease in either direction
            break
        u = new_u
        history.append(new_energy)
        iterations += 1

    return SolveReport(
        solution=ScalarField(grid, u),
        iterations=iterations,
        cg_iterations=cg_iterations,
        fallbacks=fallbacks,
        gradient_norm=gnorm,
        reg=reg,
        tol=tol,
        converged=stop_reason == "converged",
        stop_reason=stop_reason,
        energy_history=history,
    )


def _armijo(grid, u, p, fv, reg, I, delta, slope, current):
    t = 1.0
    for _ in range(ARMIJO_MAX_TRIALS):
        trial = u.copy()
        trial[I] += t * delta
        val = _energy_reg(grid, trial, p, fv, reg)
        if val <= current + ARMIJO_DECREASE * t * slope:
            return t, trial, val
        t *= ARMIJO_FACTOR
    return None, None, None
