"""Scalar p-Poisson Dirichlet solves by energy minimization.

Solves the discrete problem: minimize

    J(u) = sum_e (1/p) |grad u|^p area_e + sum_e mean_e(f u) area_e

over P1 fields attaining the boundary data h, whose stationarity condition
is the vertex-quadrature weak form of Delta_p u = f (sign convention:
f = Delta_p u, so f = Delta u when p = 2).

The minimizer is computed by damped Newton on the regularized energy with
|grad u|^(p-2) evaluated as (|grad u|^2 + reg^2)^((p-2)/2).  The Newton
system H (positive definite for p > 1) is only its interior block H_II,
kept as the centre and the three upper of its seven stencil diagonals,
shape (K, N) with K = 4 (fewer when n <= 2), since H is symmetric: each
step sums them from slices of the lattice-shaped
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
its interior gradient norm, from the trial's own element pass, falls by
the factor 1 - 1e-4 t.

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
harmonic extension is computed.  A row's report holds no field: it counts
the Newton steps, CG iterations, steepest-descent fallbacks, points
evaluated by the line searches and steps accepted on the round-off floor.

One Newton loop lifts a stack of sources F (..., n_nodes), with the
boundary values of a stack H that broadcasts to it, into one stack U
(solve_p_poisson_batch), so every numpy call, the kernels and cg serve all
rows.  Each pass of the loop evaluates every running row's point, its
start or a line-search trial, in one element pass (_armijo): the energy,
the gradient and, at an accepted point, the Hessian read the same element
gradients and weights.  Each row keeps its own stopping test, forcing
term, CG iterations, step length, fallback, stop reason and counters, and
leaves the loop when it stops.  cg works on the whole stack of the rows
that take a Newton step: a row that meets its CG tolerance freezes, taking
zero steps while the others iterate.  Every reduction is taken per row,
with the operations of a lone lift, so each row's report equals that of
the row lifted alone.  Chunks of max(1, BATCH_NODES // n_nodes) rows run
at once: 36 at n = 16, 9 at n = 32, 2 at n = 64 and one from n = 72.  A
lift holds at most about 9 element arrays (2 n^2 float64) per row at once:
the Hessian spends the element pass in place, and no pass keeps a
spent Hessian, direction or gradient while the next one is formed.

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
BATCH_NODES = 10500  # nodes lifted at once: 36 rows at n = 16, 9 at n = 32, 1 from n = 72


@dataclass(frozen=True)
class PPoissonProblem:
    """Data for one scalar solve: grid, exponent p > 1, source f, boundary h.

    h is stored as a full nodal field; only its boundary values are read.
    The benchmark's (perfbench/) single-field adapter, as solve_p_poisson.
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
    """One lift's counters and stop reason; the solution is its row of the
    stack that solve_p_poisson_batch returns."""

    iterations: int
    cg_iterations: int
    fallbacks: int
    gradient_norm: float
    stop_reason: str  # "converged", "max_iter" or "stalled"
    line_search_evals: int = 0  # points evaluated by the line searches
    roundoff_steps: int = 0  # steps accepted on the energy's round-off floor
    solution = None  # not a field: only solve_p_poisson sets it, to its ScalarField

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _element_state(grid: Grid, u: np.ndarray, p: float, reg: float) -> list[np.ndarray]:
    """The one element pass of _energy_reg, residual_vector and
    _newton_system at the stack u: the list [G, base, W] of the element
    gradients, their squared norms plus reg^2 and the flux weights
    area base^((p-2)/2), extended by 0 where the base vanishes (only
    possible at reg = 0)."""
    G, base = element_gradients(grid, u)
    base += reg * reg
    positive = True if reg > 0.0 else base > 0.0
    W = np.power(base, (p - 2.0) / 2.0, out=np.zeros_like(base), where=positive)
    W *= grid.element_measure
    return [G, base, W]


def _energy_reg(
    grid: Grid, u: np.ndarray, p: float, f: np.ndarray, reg: float, state: list | None = None
) -> np.ndarray:
    """Regularized energy of each field of the stack u (..., n_nodes) with
    the sources f: shape u.shape[:-1], a 0-d array for a single field.  A
    list `state` receives the _element_state of u from the same pass, which
    residual_vector and _newton_system then read."""
    if state is None:
        state = []
    state[:] = _element_state(grid, u, p, reg)
    sums = np.power(state[1], p / 2.0).reshape(u.shape[:-1] + (-1,)).sum(axis=-1)
    return sums * grid.element_measure / p + np.vecdot(grid.lumped * f, u)


def residual_vector(
    grid: Grid, u: np.ndarray, p: float, f: np.ndarray, reg: float, state: list | None = None
) -> np.ndarray:
    """Weak residual t_i = sum_e area W_e (G_e . grad phi_i) + m_i f_i at every
    node: the gradient of the regularized energy for reg > 0, and at reg = 0
    the unregularized weak form, with weight 0 where grad u = 0.  A stack u
    (..., n_nodes) gives the residual of each row, with the same operations
    as a single field.  state, the _element_state of u, saves that pass and
    is left intact.

    On this lattice G_e . grad phi_i only takes the difference quotients
    along the edges of e, so t is minus the divergence of the edge fluxes:
    area W_e G_e[k] / h_k, summed over the two triangles at each edge, flows
    out of its first node and into its second."""
    # [G, W]: a state made here frees its base at once
    G, W = (_element_state(grid, u, p, reg) if state is None else state)[::2]
    n = grid.n
    batch = u.shape[:-1]
    hx, hy = grid.spacing
    # one flux component at a time, in one buffer
    F = np.multiply(G[0], W)
    F /= hx
    Ex = np.zeros(batch + (n + 1, n + 2))  # the edge from (i, j) to (i+1, j) at [j, i+1]
    Ex[..., :-1, 1:-1] = F[..., 0, :, :]  # lower triangle of cell (i, j)
    Ex[..., 1:, 1:-1] += F[..., 1, :, :]  # upper triangle of cell (i, j-1)
    F = np.multiply(G[1], W, out=F)
    F /= hy
    Ey = np.zeros(batch + (n + 2, n + 1))  # the edge from (i, j) to (i, j+1) at [j+1, i]
    Ey[..., 1:-1, 1:] = F[..., 0, :, :]  # lower triangle of cell (i-1, j)
    Ey[..., 1:-1, :-1] += F[..., 1, :, :]  # upper triangle of cell (i, j)
    del F
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
    """Column offsets from the row of the diagonals of the interior block
    that are stored: the centre 0 and the neighbours (i, j) -> (i+1, j),
    (i, j+1) and (i+1, j+1), which are 1, n-1 and n in the interior
    numbering; the lower diagonals are their mirror images.  An offset
    o >= N = len(interior) has no entry and is dropped, so only n <= 2 has
    fewer than 4."""
    N = len(grid.interior)
    return tuple(o for o in (0, 1, grid.n - 1, grid.n) if o < N)


def _newton_system(
    grid: Grid, u: np.ndarray, p: float, reg: float, state: list | None = None
) -> np.ndarray:
    """Interior block H_II of the Hessian of the regularized energy at u:
    sum_e area [W gphi_a.gphi_b + W' (G.gphi_a)(G.gphi_b)], as its centre
    and upper diagonals, shape (K, N): row k holds H[i, i + offsets[k]] =
    H[i + offsets[k], i] at column i, with the offsets of _stencil_offsets,
    and 0 where that entry does not exist.  A stack u (B, n_nodes) gives
    the diagonals of every member, shape (K, B, N).  state, the
    _element_state of u, saves that pass; the call empties the list and
    spends its buffers.

    Per element the Hessian is the quadratic form of the 2 x 2 matrix
    A = area (W I + W' G G^T) in the element gradient, whose components are
    the nodal differences along an x and a y edge over hx and hy.  With
    P = A_xx / hx^2, Q = A_yy / hy^2 and R = A_xy / (hx hy), the x edge
    couples its two nodes by R - P, the y edge by R - Q and the hypotenuse
    by -R; on the diagonal, the corner off the y edge gets P, the corner
    off the x edge Q and the corner on both P + Q - 2R.  The upper
    diagonals sum these couplings over the (at most two) elements of an
    edge, and the centre sums the six elements at a node."""
    offsets = _stencil_offsets(grid)
    K, N = len(offsets), len(grid.interior)
    if state is None:
        state = _element_state(grid, u, p, reg)
    G, base, W = state
    state.clear()
    batch = base.shape[:-3]
    hx, hy = grid.spacing
    # a batch's element arrays are large: each buffer is reused once its
    # value is spent, and the element state is freed before D is allocated
    Wp = np.divide(W, base, out=base)  # reg > 0, so the base is positive
    Wp *= p - 2.0
    s = G  # G / h, in place
    s[0] /= hx
    s[1] /= hy
    R = s[0] * s[1]
    R *= Wp
    P = s[0] * Wp
    P *= s[0]
    P += np.divide(W, hx * hx, out=s[0])
    Q = np.multiply(s[1], Wp, out=Wp)
    Q *= s[1]
    Q += np.divide(W, hy * hy, out=s[1])
    del G, base, W, Wp, s
    m = grid.n - 1  # interior nodes per lattice row
    D = np.zeros((4,) + batch + (m, m))
    # centre: P of the lower triangle of cell (i, j) and Q of the upper
    # one, Q and P of those of cell (i-1, j-1), and P + Q - 2R of the
    # lower triangle of cell (i-1, j) and the upper one of cell (i, j-1)
    np.add(P[..., 0, 1:, 1:], Q[..., 1, 1:, 1:], out=D[0])
    D[0] += P[..., 1, :-1, :-1] + Q[..., 0, :-1, :-1]
    # minus the x and y edge couplings
    Zx, Zy = np.subtract(P, R, out=P), np.subtract(Q, R, out=Q)
    # upper diagonals, negated at the end: (i+1, j), (i, j+1), (i+1, j+1)
    np.add(Zx[..., 0, 1:, 1:-1], Zx[..., 1, :-1, 1:-1], out=D[1, ..., :, :-1])
    np.add(Zy[..., 1, 1:-1, 1:], Zy[..., 0, 1:-1, :-1], out=D[2, ..., :-1, :])
    np.add(R[..., 0, 1:-1, 1:-1], R[..., 1, 1:-1, 1:-1], out=D[3, ..., :-1, :-1])
    np.negative(D[1:], out=D[1:])
    M = np.add(Zx, Zy, out=R)
    D[0] += M[..., 0, 1:, :-1]
    D[0] += M[..., 1, :-1, 1:]
    return D.reshape((4,) + batch + (N,))[:K]  # fewer diagonals for n <= 2


def _stencil_matvec(D: np.ndarray, offsets: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """H x for the symmetric H given by its centre and upper diagonals D at
    `offsets`: the lower diagonal at -o is the upper one at o, moved down o
    rows.  Each row sums its terms from 0 in increasing column order, as a
    CSR product does.  A stack x (B, N) with diagonals D (K, B, N)
    multiplies row by row, as one flat (B N,) product with one slice per
    diagonal: a term that reaches into the next or the previous row meets
    a 0 of D, which adds nothing to a finite x."""
    x_flat = x.reshape(-1)
    L = len(x_flat)
    y = np.zeros(L)
    D = D.reshape(len(D), L)
    for d, o in zip(D[:0:-1], offsets[:0:-1]):  # the lower diagonals, leftmost first
        y[o:] += d[: L - o] * x_flat[: L - o]
    for d, o in zip(D, offsets):
        y[: L - o] += d[: L - o] * x_flat[o:]
    return y.reshape(x.shape)


def cg(A, b, *, rtol, M, callback=None):
    """Preconditioned conjugate gradients for the systems A_k x_k = b_k of
    the rows of b (B, N), each from x = 0.  A and M^-1 are callables that
    apply the operators of all B rows to a stack (B, N).  rtol is a scalar
    or one tolerance per row, shape (B,).  Row k freezes once
    ||r_k|| < rtol_k ||b_k||, and a row with b_k = 0 is frozen from the
    start and returns 0.  A frozen row keeps its x and r and takes a zero
    step: its two ratios are not formed, and its direction stays M^-1 r_k,
    which is finite, so the stack the operators see stays finite.  So
    every row takes the operations, in their order, of
    scipy.sparse.linalg.cg with atol = 0 and its rtol on that row alone.
    callback(rows) is called once per iteration with the rows that took
    it.  Returns (x, info): info is 0 when every row converged, and
    otherwise maxiter = 10 N, the iterations taken by each row that did
    not converge."""
    maxiter = 10 * b.shape[-1]
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.sqrt(np.vecdot(b, b))
    atol = rtol * bnorm
    going = bnorm > 0.0
    for it in range(maxiter):
        going &= ~(np.sqrt(np.vecdot(r, r)) < atol)
        if not going.any():
            return x, 0
        z = M(r)
        rho = np.vecdot(r, z)
        if it == 0:
            d = z.copy()
        else:
            d *= np.divide(rho, rho_prev, out=np.zeros_like(rho), where=going)[:, None]
            d += z
        del z  # z and q are spent: the next M and A calls reuse the room
        q = A(d)
        alpha = np.divide(rho, np.vecdot(d, q), out=np.zeros_like(rho), where=going)[:, None]
        x += alpha * d
        r -= alpha * q
        del q
        rho_prev = rho
        if callback is not None:
            callback(np.flatnonzero(going))
    return x, maxiter


def solve_p_poisson(prob: PPoissonProblem, tol: float = DEFAULT_TOL) -> SolveReport:
    """solve_p_poisson_batch of one problem, with the solution set on its report;
    the adapter of the benchmark's tracer and lift workload (perfbench/)."""
    (u,), (report,) = solve_p_poisson_batch(
        prob.grid, prob.p, prob.f.values[None], prob.h.values[None], tol
    )
    report.solution = ScalarField(prob.grid, u)
    return report


def solve_p_poisson_batch(
    grid: Grid,
    p: float,
    F: np.ndarray,
    H: np.ndarray,
    tol: float = DEFAULT_TOL,
    U0: np.ndarray | None = None,
) -> tuple[np.ndarray, list[SolveReport]]:
    """Lift every row of the stack of sources F (..., n_nodes), in C order,
    with the boundary values, the only ones read, of its row of H, which
    broadcasts to F, on grid at exponent p > 1: one Newton loop over chunks
    of chunk_size(grid) rows.  Each row starts from the interior values of
    its row of the start stack U0, shaped like F, or, without U0, from the
    start of the module docstring.  Returns the read-only stack of
    solutions U, shaped like F, and one report per row in C order; each
    equals the report of its row lifted alone.  Every chunk is lifted,
    whether or not an earlier one converged.  Raises ValueError before any
    lift unless p > 1, tol is positive and finite, F and H end in an axis
    of n_nodes, H broadcasts to F, U0 is shaped like F and all are finite."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not p > 1.0:
        raise ValueError(f"p must be > 1, got {p}")
    n = grid.n_nodes
    lead = F.ndim - H.ndim  # the axes of F that H lacks
    fits = lead >= 0 and all(h in (1, f) for h, f in zip(H.shape, F.shape[lead:]))
    if F.shape[-1:] != (n,) or H.shape[-1:] != (n,) or not fits:
        raise ValueError(f"F must be (B, {n}), B any leading axes, and H must broadcast to "
                         f"the shape of F, got {F.shape} and {H.shape}")
    if not (np.isfinite(F).all() and np.isfinite(H).all()):
        raise ValueError("sources and boundary data must be finite")
    if U0 is not None and U0.shape != F.shape:
        raise ValueError(f"U0 must have the shape {F.shape} of F, got {U0.shape}")
    if U0 is not None and not np.isfinite(U0).all():
        raise ValueError("start values U0 must be finite")
    F_rows = F.reshape(-1, n)
    U = np.zeros(F_rows.shape) if U0 is None else U0.astype(float).reshape(F_rows.shape)
    U.reshape(F.shape)[..., grid.boundary] = H[..., grid.boundary]
    reports: list[SolveReport] = []
    size = chunk_size(grid)
    for start in range(0, len(U), size):
        rows = slice(start, start + size)
        if U0 is None:  # the p = 2 minimizer with each source; for 1.3 < p < 2
            # it can be a far worse start than the source-free one (module docstring)
            U[rows] = harmonic_extension(grid, U[rows], 0.0 if 1.3 < p < 2.0 else F_rows[rows])
        reports += _newton(grid, p, F_rows[rows], U[rows], tol)
    U.flags.writeable = False
    return U.reshape(F.shape), reports


def chunk_size(grid: Grid) -> int:
    """Rows of each chunk that solve_p_poisson_batch lifts at once on grid."""
    return max(1, BATCH_NODES // grid.n_nodes)


def _newton(grid, p, F, U, tol) -> list[SolveReport]:
    """The damped Newton loop of every member of a batch at once, with the
    sources F (B, n_nodes), on the energy regularized by REG, from the
    starts U (B, n_nodes), which attain the boundary data and then hold
    each member's iterate, updated in place.  Each pass evaluates the start
    or the line-search trial x + t d of every running member, from its
    iterate x; an accepted point is its new iterate, which stops it or
    takes its Newton step from t = 1.  Each failed trial halves t, and
    ARMIJO_MAX_TRIALS of them turn the search from the Newton direction to
    -g, or from -g to a stall: the points, in the order, of a Newton step
    with a nested backtracking loop."""
    reg, max_iter = REG, MAX_ITER
    I = grid.interior
    offsets = _stencil_offsets(grid)
    B = len(U)
    iterations, cg_iterations, fallbacks, evals, roundoff, trials = np.zeros((6, B), dtype=int)
    energies, gnorm, slope, floor = np.zeros((4, B))  # each at the member's iterate
    eta = np.full(B, ETA_MAX)  # each member's forcing term
    start = np.ones(B, dtype=bool)  # the member's point is its start
    descent = np.zeros(B, dtype=bool)  # its search runs along -g
    directions = np.empty((B, len(I)))
    stop_reason = [""] * B
    running = np.ones(B, dtype=bool)

    def descend(members, g, gn):
        """Turn the searches of `members` to -g, their interior gradients."""
        fallbacks[members] += 1
        directions[members] = -g
        slope[members] = -gn * gn
        descent[members] = True
        trials[members] = 0

    while running.any():
        active = np.flatnonzero(running)
        searching = ~start[active]
        t = ARMIJO_FACTOR ** trials[active]  # halved by each failed trial
        u = U[active]  # a copy, which takes the trials
        f = F if len(active) == B else F[active]  # no copy while every member runs
        u[np.ix_(searching, I)] += t[searching, None] * directions[active[searching]]
        ok, val, g, gn, state, by_roundoff = _armijo(
            grid, u, p, f, reg, I, ~searching,
            t, slope[active], energies[active], floor[active], gnorm[active],
        )
        evals[active[searching]] += 1
        roundoff[active[by_roundoff]] += 1

        failed = active[~ok]
        trials[failed] += 1
        spent = failed[trials[failed] >= ARMIJO_MAX_TRIALS]
        for k in spent[descent[spent]]:
            stop_reason[k] = "stalled"  # no Armijo decrease in either direction
            running[k] = False
        turn = spent[~descent[spent]]
        if len(turn):  # the gradient at the iterate, recomputed: a turn is rare
            descend(turn, np.take(residual_vector(grid, U[turn], p, F[turn], reg), I, axis=-1),
                    gnorm[turn])

        # an accepted point is the new iterate; np.take in _armijo keeps each
        # row of g contiguous, so its norm is that of a lone lift
        acc = np.flatnonzero(ok)
        members = active[acc]
        U[members] = u[acc]
        energies[members] = val[acc]
        iterations[members] += searching[acc]
        start[members] = False
        previous = gnorm[members]
        gn = gnorm[members] = gn[acc]
        done = (gn <= tol) | (iterations[members] >= max_iter)
        for k in np.flatnonzero(done):
            stop_reason[members[k]] = "converged" if gn[k] <= tol else "max_iter"
        running[members[done]] = False
        go = acc[~done]
        if not len(go):
            continue
        source = np.vecdot(grid.lumped * f[go], u[go])
        D = _newton_system(grid, u, p, reg, state)
        del u, f, state  # the next element pass reuses the room
        if len(go) < len(active):
            D = D[:, go]
        members, g, gn, previous = active[go], g[go], gn[~done], previous[~done]
        floor[members] = ROUNDOFF * (np.abs(energies[members] - source) + np.abs(source))
        # Eisenstat-Walker choice 2 once a member has a previous gradient, at
        # least Kelley's 0.5 tol / |g_k| (gn > tol > 0 on these rows)
        stepped = iterations[members] > 0
        gs = gn[stepped]
        ew = EW_GAMMA * (gs / previous[stepped]) ** EW_ALPHA
        eta[members[stepped]] = np.clip(np.maximum(ew, 0.5 * tol / gs), CG_RTOL, ETA_MAX)

        s = np.sqrt(D[0])
        its = np.zeros(len(members), dtype=int)

        def count_cg(rows):
            its[rows] += 1

        delta, info = cg(lambda z: _stencil_matvec(D, offsets, z), -g, rtol=eta[members],
                         M=lambda z: grid.laplace_solve(z / s) / s, callback=count_cg)
        del D, s
        cg_iterations[members] += its
        directions[members] = delta
        slope[members] = np.vecdot(g, delta)
        descent[members], trials[members] = False, 0
        newton = (slope[members] < 0.0) & np.isfinite(delta).all(axis=1)
        if info:
            newton &= its != info  # rows that ran out of CG iterations
        descend(members[~newton], g[~newton], gn[~newton])
        del g, delta  # spent before the next element pass

    return [
        SolveReport(int(iterations[b]), int(cg_iterations[b]), int(fallbacks[b]),
                    float(gnorm[b]), stop_reason[b], int(evals[b]), int(roundoff[b]))
        for b in range(B)
    ]


def _armijo(grid, u, p, f, reg, I, start, t, slope, current, floor, gnorm):
    """Evaluate each point of the stack u (B, n_nodes) with the sources f
    in one element pass, and test it: a start passes, and a trial of step
    t from an iterate of energy `current` along a direction of slope
    `slope` passes Armijo's sufficient decrease ARMIJO_DECREASE, or on the
    round-off floor, with an energy change of at most `floor`, an interior
    gradient norm of at most (1 - ARMIJO_DECREASE t) gnorm, the iterate's.
    Returns per point (accepted, energy, interior gradient g, its norm,
    the element state of the pass, round-off), round-off marking the
    trials accepted on the floor."""
    state = []
    val = _energy_reg(grid, u, p, f, reg, state)
    g = np.take(residual_vector(grid, u, p, f, reg, state), I, axis=-1)
    gn = np.sqrt(np.vecdot(g, g))
    ok = start | (val <= current + ARMIJO_DECREASE * t * slope)
    by_roundoff = ~ok & (np.abs(val - current) <= floor)
    by_roundoff &= gn <= (1.0 - ARMIJO_DECREASE * t) * gnorm
    return ok | by_roundoff, val, g, gn, state, by_roundoff
