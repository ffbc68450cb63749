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
built.  The energy and the residual are sliced alike.  H is solved by cg,
a numpy PCG that performs the operations of scipy's cg, with the stencil
product in the order of a CSR product, and preconditioned
by the diagonally scaled Laplacian, M^-1 z = s^-1 K_II^-1 (s^-1 z) with
s = sqrt(diag H), applied exactly by Grid.laplace_solve (Huang, Li and
Liu, J. Sci. Comput. 2007).  The scaling carries the local weight
|grad u|^(p-2) that the plain Laplacian lacks.  Near p = 2 the CG count
per Newton step stays flat in n; for p far from 2 it still grows with n.
The Newton step is inexact: CG stops at the relative residual eta, the
forcing term, which is ETA_MAX = 0.1 at a member's first step and then
Eisenstat-Walker choice 2 (SIAM J. Sci. Comput. 1996), 0.9 (|g_k| /
|g_k-1|)^2, raised to at least Kelley's 0.5 tol / |g_k| (Iterative
Methods for Linear and Nonlinear Equations, SIAM 1995, eq. 6.20) and
clipped to [CG_RTOL, ETA_MAX], so a step solves only as accurately as the
outer convergence rate can use, and the last step no further than tol
asks (the choice's safeguard max(eta, 0.9 eta_k-1^2) never binds below
ETA_MAX = 0.1, so it is left out).  If the linear solve fails or produces
an ascent direction, or its step finds no Armijo decrease, the step falls
back to steepest descent.  Steps are accepted by Armijo backtracking
(sufficient decrease 1e-4, halving, at most 40 trials).  Near the minimum
the decrease that the test asks for can fall below the round-off of the
energy's sums, which then stay put to the last digit while |g| is still
above tol; so a trial that changes the energy by at most ROUNDOFF = 1e-13
times the magnitude of its gradient and source terms passes instead when
its interior gradient norm falls by the factor 1 - 1e-4 t (one
residual_vector call, on those rows only).

The initial iterate is the discrete p = 2 minimizer with the boundary data
h and the lift's own source f, one Grid.laplace_solve (harmonic_extension).
Where h is constant, as in every calibration lift, the 2-harmonic
extension of h alone is flat, and there the weight reg^(p-2) makes the
first Newton step about 40 times too long at p = 2.2; the p = 2 minimizer
is not flat, and at p = 2 it is the solution.  For 1.3 < p < 2 the start
is the 2-harmonic extension of h instead: there the p = 2 minimizer can be
a far worse start (at p = 1.5, h = 1 and a source of L^1.25 norm 0.3 on
the unit square it took 253 Newton steps at n = 16 and ran to max_iter at
n = 64, against 8 and 7 steps from the extension).  A caller that holds a
better start, such as the Picard loop of fixpoint with the pair it lifted
last, passes it as the start stack U0: each row then starts from the
interior values of its row of U0 and the boundary values of H, and no
harmonic extension is computed.  The report counts the Newton steps, CG
iterations, steepest-descent fallbacks, Armijo energy evaluations and
steps accepted on the round-off floor.

One Newton loop lifts the stacks (B, n_nodes) of sources F and boundary
data H into one stack U (solve_p_poisson_batch; solve_p_poisson is a stack
of one), so every numpy call, the kernels, cg and the Armijo search serve
all rows.  Each row keeps its own stopping test, forcing term, CG rows,
step length, fallback, stop reason and counters, and leaves the active set
when it stops; every reduction is taken per row, with the operations of a
lone lift, so each row's report equals that of the row lifted alone.
Chunks of max(1, BATCH_NODES // n_nodes) rows run at once, so every
n >= 64 lifts one row at a time; BATCH_NODES keeps the peak RSS of
`plapsys certify` at n = 16 (12 rows) within about 1.2 MB of lifting one
row at a time.

Convergence means the euclidean norm of the energy gradient restricted to
interior nodes is <= tol, the lift's one argument besides its data; tol
must be positive and finite.  The regularization REG = 1e-8 and the step
limit MAX_ITER = 500 are module constants, read when a lift starts.
Non-convergence is reported, never papered over: the report carries
converged=False, the last iterate and its stop_reason, "max_iter"
(MAX_ITER Newton steps taken) or "stalled" (no Armijo decrease along the
Newton direction nor along steepest descent).

residual_vector is the one weighted-flux residual of the package: with
reg > 0 it is the gradient of the regularized energy that Newton drives to
zero, and with reg = 0 it is the unregularized weak form that verify
classifies, the weight |grad u|^(p-2) extended by 0 where grad u = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Grid, ScalarField, element_gradients

ARMIJO_DECREASE = 1e-4
ARMIJO_FACTOR = 0.5
ARMIJO_MAX_TRIALS = 40
CG_RTOL = 1e-10  # the tightest forcing term
ETA_MAX = 0.1  # the forcing term of a member's first Newton step
EW_GAMMA = 0.9  # Eisenstat-Walker choice 2: eta = gamma (|g_k| / |g_k-1|)^alpha
EW_ALPHA = 2.0
# an energy change at most this, relative to the energy's terms, is round-off;
# any bound from 1e-15 to 1e-12 converges the regression matrix of the tests
# in the same steps, 1e-11 already accepts steps that are not round-off
ROUNDOFF = 1e-13
REG = 1e-8  # reg of the regularized energy that every lift minimizes
DEFAULT_TOL = 1e-8
MAX_ITER = 500  # Newton steps before a lift stops with "max_iter"
BATCH_NODES = 3500  # nodes lifted at once: 12 members at n = 16, 3 at n = 32, 1 from n = 64


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
    stop_reason: str  # "converged", "max_iter" or "stalled"
    line_search_evals: int = 0  # energy evaluations of the Armijo searches
    roundoff_steps: int = 0  # steps accepted on the energy's round-off floor

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _weights(G2: np.ndarray, p: float, reg: float) -> np.ndarray:
    """Element flux weights (|grad u|^2 + reg^2)^((p-2)/2), extended by 0
    where that base vanishes (only possible at reg = 0)."""
    base = G2 + reg * reg
    positive = True if reg > 0.0 else base > 0.0
    return np.power(base, (p - 2.0) / 2.0, out=np.zeros_like(base), where=positive)


def _energy_reg(grid: Grid, u: np.ndarray, p: float, f: np.ndarray, reg: float) -> np.ndarray:
    """Regularized energy of each field of the stack u (..., n_nodes) with
    the sources f: shape u.shape[:-1], a 0-d array for a single field."""
    _, G2 = element_gradients(grid, u)
    G2 += reg * reg
    sums = (G2 ** (p / 2.0)).reshape(u.shape[:-1] + (-1,)).sum(axis=-1)
    return sums * grid.element_measure / p + np.vecdot(grid.lumped * f, u)


def residual_vector(grid: Grid, u: np.ndarray, p: float, f: np.ndarray, reg: float) -> np.ndarray:
    """Weak residual t_i = sum_e area W_e (G_e . grad phi_i) + m_i f_i at every
    node: the gradient of the regularized energy for reg > 0, and at reg = 0
    the unregularized weak form, with weight 0 where grad u = 0.  A stack u
    (..., n_nodes) gives the residual of each row, with the same operations
    as a single field.

    On this lattice G_e . grad phi_i only takes the difference quotients
    along the edges of e, so t is minus the divergence of the edge fluxes:
    area W_e G_e[k] / h_k, summed over the two triangles at each edge, flows
    out of its first node and into its second."""
    G, G2 = element_gradients(grid, u)
    W = _weights(G2, p, reg)
    W *= grid.element_measure
    F = np.multiply(G, W, out=G)
    n = grid.n
    batch = u.shape[:-1]
    if grid.d == 1:
        E = np.zeros(batch + (n + 2,))  # the edge from node i to i+1 at [i+1]
        np.divide(F[0], grid.spacing[0], out=E[..., 1:-1])
        return E[..., :-1] - E[..., 1:] + grid.lumped * f
    hx, hy = grid.spacing
    F[0] /= hx
    F[1] /= hy
    Ex = np.zeros(batch + (n + 1, n + 2))  # the edge from (i, j) to (i+1, j) at [j, i+1]
    Ex[..., :-1, 1:-1] = F[0, ..., 0, :, :]  # lower triangle of cell (i, j)
    Ex[..., 1:, 1:-1] += F[0, ..., 1, :, :]  # upper triangle of cell (i, j-1)
    Ey = np.zeros(batch + (n + 2, n + 1))  # the edge from (i, j) to (i, j+1) at [j+1, i]
    Ey[..., 1:-1, 1:] = F[1, ..., 0, :, :]  # lower triangle of cell (i-1, j)
    Ey[..., 1:-1, :-1] += F[1, ..., 1, :, :]  # upper triangle of cell (i, j)
    out = Ex[..., :-1] - Ex[..., 1:]
    out += Ey[..., :-1, :] - Ey[..., 1:, :]
    return out.reshape(batch + (-1,)) + grid.lumped * f


def harmonic_extension(grid: Grid, h: np.ndarray, f: np.ndarray | float) -> np.ndarray:
    """The discrete p = 2 minimizer with the boundary values of the nodal
    values h and the nodal source f (a stack like h, or 0 for the
    2-harmonic extension), of each row of a stack h (..., n_nodes) alone:
    u_I = -K_II^-1 (K_IB h_B + (M f)_I), M the lumped node weights."""
    I, B = grid.interior, grid.boundary
    u = np.zeros(h.shape)
    u[..., B] = h[..., B]
    # -(K u_B + M f)_I: at p = 2 every flux weight is exactly 1, whatever reg
    r = residual_vector(grid, u, 2.0, f, reg=1.0)
    u[..., I] = grid.laplace_solve(-np.take(r, I, axis=-1))
    return u


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
    exist.  A stack u (B, n_nodes) gives the diagonals of every member,
    shape (K, B, N).

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
    batch = u.shape[:-1]
    # a batch's element arrays are large, so each buffer is reused once
    # its value is spent
    G, base = element_gradients(grid, u)
    base += reg * reg  # reg > 0, so the base is positive
    W = base ** ((p - 2.0) / 2.0)
    W *= grid.element_measure
    Wp = np.divide(W, base, out=base)
    Wp *= p - 2.0
    h = np.reshape(grid.spacing, (grid.d,) + (1,) * (G.ndim - 1))
    s = np.divide(G, h, out=G)
    PQ = s * Wp
    PQ *= s
    for k, hk in enumerate(grid.spacing):
        PQ[k] += W / (hk * hk)  # PQ[0] = P, PQ[1] = Q
    if grid.d == 1:
        P = PQ[0]
        D = np.zeros((3,) + batch + (N,))
        np.add(P[..., 1:], P[..., :-1], out=D[1])
        np.negative(P[..., 1:-1], out=D[2, ..., :-1])
        upper = ((1, 2),)
    else:
        m = grid.n - 1  # interior nodes per lattice row
        R = np.multiply(s[0], s[1], out=W)
        R *= Wp
        T = np.add(PQ[0], PQ[1, ..., ::-1, :, :], out=s[0])
        Z = np.subtract(PQ, R, out=PQ)  # minus the x and y edge couplings
        D = np.zeros((7,) + batch + (m, m))
        # upper diagonals, negated at the end: (i+1, j), (i, j+1), (i+1, j+1)
        np.add(Z[0, ..., 0, 1:, 1:-1], Z[0, ..., 1, :-1, 1:-1], out=D[4, ..., :, :-1])
        np.add(Z[1, ..., 1, 1:-1, 1:], Z[1, ..., 0, 1:-1, :-1], out=D[5, ..., :-1, :])
        np.add(R[..., 0, 1:-1, 1:-1], R[..., 1, 1:-1, 1:-1], out=D[6, ..., :-1, :-1])
        np.negative(D[4:], out=D[4:])
        # centre: P of the lower triangle of cell (i, j) and Q of the upper
        # one, Q and P of those of cell (i-1, j-1), and P + Q - 2R of the
        # lower triangle of cell (i-1, j) and the upper one of cell (i, j-1)
        M = np.add(Z[0], Z[1], out=s[1])
        np.add(T[..., 0, 1:, 1:], T[..., 1, :-1, :-1], out=D[3])
        D[3] += M[..., 0, 1:, :-1]
        D[3] += M[..., 1, :-1, 1:]
        D = D.reshape((7,) + batch + (N,))
        upper = ((1, 4), (m, 5), (m + 1, 6))
    for o, k in upper:
        D[len(D) - 1 - k, ..., o:] = D[k, ..., : N - o]
    mid = len(D) // 2
    return D[mid - K // 2 : mid + (K + 1) // 2]  # fewer diagonals for n <= 2


def _stencil_matvec(D: np.ndarray, offsets: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """H x for H given by its diagonals D at `offsets`: each row sums its
    terms from 0 in increasing column order, as a CSR product does.  A
    stack x (B, N) with diagonals D (K, B, N) multiplies row by row."""
    N = x.shape[-1]
    y = np.zeros(x.shape)
    for d, o in zip(D, offsets):
        if o < 0:
            y[..., -o:] += d[..., -o:] * x[..., : N + o]
        else:
            y[..., : N - o] += d[..., : N - o] * x[..., o:]
    return y


def cg(A, b, *, rtol, M, callback=None):
    """Preconditioned conjugate gradients for the systems A_k x_k = b_k of
    the rows of b (B, N), each from x = 0.  A and M^-1 are callables
    (z, rows) that apply the operators of the batch rows `rows` to the rows
    of z.  rtol is a scalar or one tolerance per row, shape (B,).  Row k
    stops when ||r_k|| < rtol_k ||b_k|| and leaves the working set, and a
    row with b_k = 0 returns 0 at once, so every row takes the operations,
    in their order, of scipy.sparse.linalg.cg with atol = 0 and its rtol on
    that row alone.  callback(rows) is called once per iteration with the
    rows that took it.  Returns (x, info): info is 0 when every row
    converged, and otherwise maxiter = 10 N, the iterations taken by each
    row that did not converge."""
    maxiter = 10 * b.shape[-1]
    x = np.zeros_like(b)
    bnorm = np.sqrt(np.vecdot(b, b))
    rows = np.flatnonzero(bnorm)
    if not len(rows):
        return x, 0
    atol = (rtol * bnorm)[rows]
    r = b[rows]
    xr = np.zeros_like(r)
    for it in range(maxiter):
        going = ~(np.sqrt(np.vecdot(r, r)) < atol)
        if not going.all():
            x[rows[~going]] = xr[~going]
            if not going.any():
                return x, 0
            rows, atol, r, xr = rows[going], atol[going], r[going], xr[going]
            if it > 0:
                d, rho_prev = d[going], rho_prev[going]
        z = M(r, rows)
        rho = np.vecdot(r, z)
        if it == 0:
            d = z.copy()
        else:
            d *= (rho / rho_prev)[:, None]
            d += z
        q = A(d, rows)
        alpha = (rho / np.vecdot(d, q))[:, None]
        xr += alpha * d
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(rows)
    x[rows] = xr
    return x, maxiter


def _on_rows(apply, *arrays):
    """The cg operator (z, rows) -> apply(z, *(a[..., rows, :] for a in
    arrays)), which gathers the rows again only when cg's working set
    changes."""
    seen, picked = None, arrays

    def op(z, rows):
        nonlocal seen, picked
        if rows is not seen:
            seen = rows
            full = len(rows) == arrays[0].shape[-2]  # rows ascend: all of them
            picked = arrays if full else [a[..., rows, :] for a in arrays]
        return apply(z, *picked)

    return op


def solve_p_poisson(prob: PPoissonProblem, tol: float = DEFAULT_TOL) -> SolveReport:
    """Minimize the regularized energy; see the module docstring for the scheme."""
    _, (report,) = solve_p_poisson_batch(
        prob.grid, prob.p, prob.f.values[None], prob.h.values[None], tol
    )
    return report


def solve_p_poisson_batch(
    grid: Grid,
    p: float,
    F: np.ndarray,
    H: np.ndarray,
    tol: float = DEFAULT_TOL,
    U0: np.ndarray | None = None,
) -> tuple[np.ndarray, list[SolveReport]]:
    """Lift every row of the stack of sources F with the boundary values
    of its row of H, both (B, n_nodes), on grid at exponent p > 1: one
    Newton loop over chunks of chunk_size(grid) rows.  Each row starts from
    the interior values of its row of the start stack U0 (B, n_nodes) and
    the boundary values of H, or, without U0, from the start of the module
    docstring.  Returns the read-only stack of solutions U (B, n_nodes) and
    one report per row, whose solution is that row of U; each equals the
    report of its row lifted alone.  Every chunk is lifted, whether or not
    an earlier one converged.  Raises ValueError before any lift unless
    p > 1, tol is positive and finite, F, H and U0 have the shape
    (B, n_nodes) and every value of F, H and U0 is finite."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not p > 1.0:
        raise ValueError(f"p must be > 1, got {p}")
    if F.shape != H.shape or F.ndim != 2 or F.shape[1] != grid.n_nodes:
        raise ValueError(f"F and H must be (B, {grid.n_nodes}), got {F.shape} and {H.shape}")
    if not (np.isfinite(F).all() and np.isfinite(H).all()):
        raise ValueError("sources and boundary data must be finite")
    if U0 is not None and U0.shape != F.shape:
        raise ValueError(f"U0 must have the shape {F.shape} of F, got {U0.shape}")
    if U0 is not None and not np.isfinite(U0).all():
        raise ValueError("start values U0 must be finite")
    U = np.empty(F.shape)
    reports: list[SolveReport] = []
    size = chunk_size(grid)
    for start in range(0, len(F), size):
        rows = slice(start, start + size)
        # the p = 2 minimizer with each source; for 1.3 < p < 2 it can be a far
        # worse start than the source-free one (see the module docstring)
        U[rows] = (
            harmonic_extension(grid, H[rows], 0.0 if 1.3 < p < 2.0 else F[rows])
            if U0 is None
            else U0[rows]
        )
        U[rows, grid.boundary] = H[rows, grid.boundary]
        reports += _newton(grid, p, F[rows], U[rows], tol)
    U.flags.writeable = False
    return U, reports


def chunk_size(grid: Grid) -> int:
    """Rows of each chunk that solve_p_poisson_batch lifts at once on grid."""
    return max(1, BATCH_NODES // grid.n_nodes)


def _newton(grid, p, F, U, tol) -> list[SolveReport]:
    """The damped Newton loop of every member of a batch at once, from the
    iterates U (B, n_nodes), which attain the boundary data and are updated
    in place, with the sources F (B, n_nodes), on the energy regularized by
    REG.  A member leaves the active set when it converges, reaches
    MAX_ITER steps or stalls."""
    reg, max_iter = REG, MAX_ITER
    I = grid.interior
    offsets = _stencil_offsets(grid)
    energies = _energy_reg(grid, U, p, F, reg)
    iterations, cg_iterations, fallbacks, evals, roundoff = np.zeros((5, len(U)), dtype=int)
    gnorm = np.zeros(len(U))
    eta = np.full(len(U), ETA_MAX)  # each member's forcing term
    stop_reason = [""] * len(U)
    active = np.arange(len(U))
    while len(active):
        # with every member active, u and f are U and F themselves: the
        # Armijo searches copy the rows they read, and U takes the accepted
        # rows only once no search reads them again
        u, f = (U, F) if len(active) == len(U) else (U[active], F[active])
        # np.take keeps each row contiguous, so its norm is that of a lone lift
        g = np.take(residual_vector(grid, u, p, f, reg), I, axis=-1)
        gn = np.sqrt(np.vecdot(g, g))
        previous = gnorm[active]
        gnorm[active] = gn
        done = (gn <= tol) | (iterations[active] >= max_iter)
        if done.any():
            for k in np.flatnonzero(done):
                stop_reason[active[k]] = "converged" if gn[k] <= tol else "max_iter"
            going = ~done
            active, u, f, g, gn = active[going], u[going], f[going], g[going], gn[going]
            previous = previous[going]
            if not len(active):
                break
        # Eisenstat-Walker choice 2 once a member has a previous gradient, at
        # least Kelley's 0.5 tol / |g_k| (gn > tol > 0 on the active rows)
        stepped = iterations[active] > 0
        gs = gn[stepped]
        ew = EW_GAMMA * (gs / previous[stepped]) ** EW_ALPHA
        eta[active[stepped]] = np.clip(np.maximum(ew, 0.5 * tol / gs), CG_RTOL, ETA_MAX)

        D = _newton_system(grid, u, p, reg)
        s = np.sqrt(D[len(D) // 2])  # offsets are symmetric: the middle one is 0
        its = np.zeros(len(active), dtype=int)

        def count_cg(rows):
            its[rows] += 1

        delta, info = cg(
            _on_rows(lambda z, D: _stencil_matvec(D, offsets, z), D),
            -g,
            rtol=eta[active],
            M=_on_rows(lambda z, s: grid.laplace_solve(z / s) / s, s),
            callback=count_cg,
        )
        cg_iterations[active] += its
        slope = np.vecdot(g, delta)
        newton = (slope < 0.0) & np.isfinite(delta).all(axis=1)
        if info:
            newton &= its != info  # rows that ran out of CG iterations
        current = energies[active]
        moved = np.zeros(len(active), dtype=bool)

        def search(rows, direction, slopes):
            """Armijo from u along direction on the working rows `rows`."""
            if not len(rows):
                return
            ok, trial, val, n_evals, by_roundoff = _armijo(
                grid, u[rows], p, f[rows], reg, I,
                direction[rows], slopes[rows], current[rows], gn[rows],
            )
            evals[active[rows]] += n_evals
            roundoff[active[rows[by_roundoff]]] += 1
            rows = rows[ok]
            moved[rows] = True
            U[active[rows]] = trial[ok]
            energies[active[rows]] = val[ok]

        search(np.flatnonzero(newton), delta, slope)
        fallback = np.flatnonzero(~moved)
        fallbacks[active[fallback]] += 1
        search(fallback, -g, -gn * gn)
        iterations[active[moved]] += 1
        for m in active[~moved]:
            stop_reason[m] = "stalled"  # no Armijo decrease in either direction
        active = active[moved]

    return [
        SolveReport(
            solution=ScalarField(grid, U[b]),
            iterations=int(iterations[b]),
            cg_iterations=int(cg_iterations[b]),
            fallbacks=int(fallbacks[b]),
            gradient_norm=float(gnorm[b]),
            stop_reason=stop_reason[b],
            line_search_evals=int(evals[b]),
            roundoff_steps=int(roundoff[b]),
        )
        for b in range(len(U))
    ]


def _armijo(grid, u, p, fv, reg, I, delta, slope, current, gnorm):
    """Armijo backtracking from each row of u (B, n_nodes) along its row of
    delta (B, N), with its own step t from 1: sufficient decrease
    ARMIJO_DECREASE, factor ARMIJO_FACTOR, at most ARMIJO_MAX_TRIALS
    trials.  On the energy's round-off floor the decrease that the test asks
    for is below what the energy's sums resolve, so a trial that fails it
    but changes the energy by at most ROUNDOFF times the magnitude of its two
    terms (gradient and source) is accepted when its interior gradient norm
    is at most (1 - ARMIJO_DECREASE t) gnorm, the current one.  Returns
    (accepted, new u, new energy, energy evaluations, round-off) per row,
    round-off marking the steps accepted that way; a row without an
    accepted step keeps u and its current energy."""
    t = np.ones(len(u))
    accepted = np.zeros(len(u), dtype=bool)
    roundoff = np.zeros(len(u), dtype=bool)
    evals = np.zeros(len(u), dtype=int)
    new_u, new_energy = u.copy(), current.copy()
    source = np.vecdot(grid.lumped * fv, u)
    floor = ROUNDOFF * (np.abs(current - source) + np.abs(source))
    rows = np.arange(len(u))
    for _ in range(ARMIJO_MAX_TRIALS):
        trial = u[rows]
        trial[:, I] += t[rows, None] * delta[rows]
        val = _energy_reg(grid, trial, p, fv[rows], reg)
        evals[rows] += 1
        ok = val <= current[rows] + ARMIJO_DECREASE * t[rows] * slope[rows]
        flat = np.flatnonzero(~ok & (np.abs(val - current[rows]) <= floor[rows]))
        if len(flat):
            k = rows[flat]
            g = np.take(residual_vector(grid, trial[flat], p, fv[k], reg), I, axis=-1)
            ok[flat] = np.sqrt(np.vecdot(g, g)) <= (1.0 - ARMIJO_DECREASE * t[k]) * gnorm[k]
            roundoff[k] = ok[flat]
        accepted[rows[ok]] = True
        new_u[rows[ok]] = trial[ok]
        new_energy[rows[ok]] = val[ok]
        rows = rows[~ok]
        if not len(rows):
            break
        t[rows] *= ARMIJO_FACTOR
    return accepted, new_u, new_energy, evals, roundoff
