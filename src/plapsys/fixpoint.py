"""Fixed-point machinery for the coupled Dirichlet system.

The system

    -Delta_p u + phi(x, u, v) = 0,   -Delta_p v + psi(x, u, v) = 0,
    u = h, v = k on the boundary

is attacked through the composed map Lambda(f, g) = (B1 T(f,g), B2 T(f,g)):
T lifts a source pair to the pair of p-Poisson solutions (u_f, v_g) with
Delta_p u_f = f, u_f = h (and g, k alike), and B1, B2 substitute the lifted
pair back into the coupling.  A fixed point of Lambda yields a solution of
the system through one final lift.  `picard_solve` finds it by damped
Picard steps on Lambda, accelerated by type-II Anderson mixing over a
window of the last ANDERSON_WINDOW differences (Walker and Ni, SIAM J.
Numer. Anal. 2011), with two safeguards: a growing successive difference
empties the window, and an aborted lift of an extrapolated pair is
replaced by the damped step.

apply_lambda is the one Lambda: it lifts a stack of source pairs
(k, 2, n_nodes), each f with h and each g with k, in one
plap.solve_p_poisson_batch and evaluates the coupling on the lifted stack.
picard_solve applies it to a stack of one pair, started from the pair it
lifted last (apply_lambda's L0); check_ball_invariance to
blocks of the pairs of one lift chunk, each trial's f, g and t drawn in
the order of the rng and its sources sampled as one stack, so a block
holds no more than the chunk it lifts.  calibration_ratios lifts a stack
of sources with zero boundary data.  smooth_fields is the one sampler of
random smooth sources; the calibration sources are one draw of it.  Once
a stack is lifted, a failed lift raises the SolverAbort of the first
failure in source order, u before v, as lifting them one at a time would.
The calibration, the ball check and Picard's final lift solve at
DEFAULT_TOL, the lift's default, read when each call starts.

The smallness certificate quantifies when Lambda maps a ball of L^r source
pairs into itself: with the growth constants of the epsilon-split bound of
the shifted coupling (coupling.split_bound),
lambda = max{a1', a2', b1', b2'} * C * |Omega|^(p/d) < 1, where the
max is (1 + epsilon)^(p-1) max{a1, a2, b1, b2}, gives the
ball radius M0 = max{||c||_r, ||c'||_r} / (1 - lambda), invariant for every
M >= M0; certify computes both from split_bound's growth factor and the
pair norm (field.pair_norms, as every L^r pair norm here) of its (c, c').
epsilon, a device of the proof and not data of the problem, is the module
constant SPLIT_EPS.  The constant C (source norm to lifted-state norm,
power p-1) is calibrated empirically on the grid from random smooth
sources and is an estimate, not a proven bound; every certificate records
that provenance.  lambda and M0 describe Lambda itself, not the
accelerated iteration.

Exponent bookkeeping: r must lie in [d p'/(d + p'), d/p) with p' = p/(p-1),
which is nonempty exactly when 1 < p < d.  The dimension d enters only
through this algebra and the |Omega|^(p/d) factor, so it is carried as a
parameter of the exponent budget rather than tied to the grid dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import Coupling, coupling_values, split_bound
from .field import Grid, check_pair, lq_norms, pair_norms
from .plap import DEFAULT_TOL, SolveReport, chunk_size, solve_p_poisson_batch
from .verify import system_residuals

PICARD_TOL = 1e-7  # the successive difference at which picard_solve stops
PICARD_MAX_ITER = 200  # iterations before picard_solve stops with "max_iter"
BALL_SLACK = 1e-6
MIN_CALIBRATION_SAMPLES = 10
SAMPLER_MODES = 8
ANDERSON_WINDOW = 3  # differences kept by the Anderson step of picard_solve
# a Picard lift's inner tolerance: INNER_TOL_FACTOR times the last successive
# difference, at most INNER_TOL_MAX (also that of the first lift) and at
# least the lift's default tolerance plap.DEFAULT_TOL
INNER_TOL_MAX = 1e-4
INNER_TOL_FACTOR = 1e-3
SPLIT_EPS = 1.0  # the epsilon of the split growth bound of every certificate


class SolverAbort(RuntimeError):
    """An inner p-Poisson solve failed to converge: names the component, the
    exponent p, the size n of the caller's grid, why the solve stopped and
    its last gradient norm.  `stage`, which picard_solve sets before the
    abort leaves it, names the Picard iteration or the final lift."""

    def __init__(self, component: str, p: float, n: int, report: SolveReport):
        super().__init__(component, p, n, report.stop_reason, report.gradient_norm)
        self.component = component
        self.p = p
        self.n = n
        self.stop_reason = report.stop_reason
        self.gradient_norm = report.gradient_norm
        self.stage = ""

    def __str__(self) -> str:
        where = f" in {self.stage}" if self.stage else ""
        return (
            f"inner solve for the {self.component} component did not converge{where} "
            f"({self.stop_reason} at p = {self.p:g}, n = {self.n}, "
            f"gradient norm {self.gradient_norm:.3e})"
        )


@dataclass(frozen=True)
class Exponents:
    """Admissible exponent budget (d, p, r) with the derived p' and s."""

    d: int
    p: float
    r: float
    p_prime: float
    s: float


def admissible_r_range(d: int, p: float) -> tuple[float, float]:
    """[lo, hi) of admissible r for the pair (d, p)."""
    pp = p / (p - 1.0)
    return d * pp / (d + pp), d / p


def make_exponents(d: int, p: float, r: float) -> Exponents:
    """Validate (d, p, r) and derive p' = p/(p-1), s = d r (p-1)/(d - p r).

    The duality identity 1/r - (p-1)/s = p/d holds for every admissible
    triple.  Raises ValueError with the violated constraint otherwise.
    """
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d!r}")
    if not (1.0 < p < d):
        raise ValueError(
            f"p must satisfy 1 < p < d (got p={p}, d={d}); "
            f"the admissible r-interval is empty otherwise"
        )
    p_prime = p / (p - 1.0)
    if d / p > p_prime:
        raise ValueError(
            f"d/p = {d / p:.6g} exceeds p' = {p_prime:.6g} for d={d}, p={p}; "
            f"the embedding constraint d/p <= p' fails for every r"
        )
    lo, hi = admissible_r_range(d, p)
    if not (lo <= r < hi):
        raise ValueError(
            f"r={r} outside the admissible interval [{lo:.6g}, {hi:.6g}) "
            f"for d={d}, p={p}"
        )
    s = d * r * (p - 1.0) / (d - p * r)
    return Exponents(d, p, r, p_prime, s)


@dataclass(frozen=True)
class SystemProblem:
    """Coupled system on a grid: the exponent budget, whose p is also the
    coupling's, the coupling and the boundary pair hk = (h, k), a read-only
    (2, n_nodes) stack of finite nodal values.  The certificate splits the
    shifted growth bound at SPLIT_EPS, so the problem holds no epsilon."""

    grid: Grid
    exponents: Exponents
    coupling: Coupling
    hk: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hk", check_pair(self.grid, self.hk, "hk"))


def apply_lambda(
    prob: SystemProblem,
    X: np.ndarray,
    tol: float = DEFAULT_TOL,
    first_row: int = 0,
    L0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[SolveReport]]:
    """Lambda on a stack of source pairs X (k, 2, n_nodes): lift every f
    with the boundary data h and every g with k, in C order, in one batch,
    then substitute the lifted pairs into the coupling.  A stack of pairs
    L0 shaped like X starts the lifts from its interior values (plap's
    start stack U0); without it each lift starts cold.

    Returns the lifted pairs L, read-only, their images
    Y = (phi(., L), psi(., L)), both (k, 2, n_nodes), and the reports of
    the lifts, u before v in each pair.  The first failed lift, in pair
    order and u before v, raises SolverAbort; a coupling domain error
    names the row, numbered from first_row, and the node.
    """
    grid, p = prob.grid, prob.exponents.p
    L, reports = solve_p_poisson_batch(grid, p, X, prob.hk, tol=tol, U0=L0)
    for i, rep in enumerate(reports):
        if not rep.converged:
            raise SolverAbort("uv"[i % 2], p, grid.n, rep)
    return L, coupling_values(prob.coupling, grid, L, first_row), reports


# ---------------------------------------------------------------------------
# calibration


def smooth_fields(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """The fields of k blocks of coefficients (k, 8, 8) for the first 8x8
    sine modes on the box, shape (k, n_nodes): coeffs[m, a, b] weighs
    sin((a+1) pi x^) sin((b+1) pi y^), with x^ and y^ the coordinates
    scaled to [0, 1].  Each row is the separable lattice product
    S_y^T C^T S_x on the (n+1, n+1) lattice, with S_x, S_y the mode sines
    (8, n+1) along each axis.  Every row is a matrix product of its own, so
    a row equals its block sampled alone.  Vanishes on the boundary."""
    b = grid.box
    n1 = grid.n + 1
    modes = np.arange(1, SAMPLER_MODES + 1)
    sx = np.sin(np.pi * np.outer(modes, (grid.coords[:n1, 0] - b[0]) / (b[1] - b[0])))
    sy = np.sin(np.pi * np.outer(modes, (grid.coords[::n1, 1] - b[2]) / (b[3] - b[2])))
    return (sy.T @ coeffs.transpose(0, 2, 1) @ sx).reshape(len(coeffs), grid.n_nodes)


def calibration_ratios(grid: Grid, exponents: Exponents, sources: np.ndarray) -> list[float]:
    """||u_f||_s^(p-1) / ||f||_r for each row f of the source stack
    (k, n_nodes), with zero boundary data.

    This ratio is what the Sobolev-embedding constant bounds; it is
    invariant under rescaling f because the lift is (p-1)-homogeneous.
    """
    ex = exponents
    denoms = lq_norms(grid, sources, ex.r).tolist()
    if 0.0 in denoms:
        raise ValueError("calibration sources must be nonzero")
    zero = np.zeros(grid.n_nodes)
    lifted, reports = solve_p_poisson_batch(grid, ex.p, sources, zero, tol=DEFAULT_TOL)
    for rep in reports:
        if not rep.converged:
            raise SolverAbort("calibration", ex.p, grid.n, rep)
    nums = lq_norms(grid, lifted, ex.s).tolist()
    return [num ** (ex.p - 1.0) / denom for num, denom in zip(nums, denoms)]


def calibrate_C(
    grid: Grid,
    exponents: Exponents,
    samples: int,
    seed: int | np.random.SeedSequence = 0,
) -> float:
    """Empirical estimate of the lift constant C: twice the worst observed
    ratio over seeded random smooth sources of unit L^r norm.

    This is a mesh-level estimate, not a proven bound; certificates built
    from it record the provenance.
    """
    if samples < MIN_CALIBRATION_SAMPLES:
        raise ValueError(
            f"calibration needs at least {MIN_CALIBRATION_SAMPLES} samples, "
            f"got {samples}"
        )
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(samples, SAMPLER_MODES, SAMPLER_MODES))
    sources = smooth_fields(grid, coeffs)
    # each row to unit L^r norm; a zero row stays zero
    norms = lq_norms(grid, sources, exponents.r)
    sources *= np.divide(1.0, norms, out=np.ones_like(norms), where=norms > 0.0)[:, None]
    return 2.0 * max(calibration_ratios(grid, exponents, sources))


# ---------------------------------------------------------------------------
# certificate


@dataclass(frozen=True)
class Certificate:
    """Smallness certificate: lambda < 1 yields the invariant-ball radius M0.

    C is the empirically calibrated lift constant (see calibrate_C); the
    certificate is evidence at the discretization level, not a proof.
    When valid is False, M0 is nan.
    """

    exponents: Exponents
    C: float
    C_samples: int
    lam: float
    M0: float
    valid: bool

    def to_text(self) -> str:
        ex = self.exponents
        lines = [
            "# smallness certificate; C is an empirical mesh-level estimate",
            f"d = {ex.d}",
            f"p = {ex.p:.17g}",
            f"r = {ex.r:.17g}",
            f"s = {ex.s:.17g}",
            f"p_prime = {ex.p_prime:.17g}",
            f"C = {self.C:.17g}",
            f"C_samples = {self.C_samples}",
            f"epsilon = {SPLIT_EPS:.17g}",
            f"lambda = {self.lam:.17g}",
            f"M0 = {self.M0:.17g}",
            f"valid = {'true' if self.valid else 'false'}",
        ]
        return "\n".join(lines) + "\n"


def certify(prob: SystemProblem, C: float, C_samples: int = 0) -> Certificate:
    """Build the certificate for a problem from a calibrated constant C:
    lambda = ((growth * max{a1, a2, b1, b2}) * C) * |Omega|^(p/d) and, when
    lambda < 1, M0 = max{||c||_r, ||c'||_r} / (1 - lambda), with the growth
    factor and (c, c') of coupling.split_bound at epsilon = SPLIT_EPS."""
    if not (math.isfinite(C) and C > 0.0):
        raise ValueError(f"C must be positive and finite, got {C}")
    ex, c = prob.exponents, prob.coupling
    growth, split = split_bound(c, ex.p, prob.hk, SPLIT_EPS)
    lam = growth * max(c.a1, c.a2, c.b1, c.b2) * C * prob.grid.measure ** (ex.p / ex.d)
    if lam < 1.0:
        m0 = float(pair_norms(prob.grid, split, ex.r)) / (1.0 - lam)
        return Certificate(ex, C, C_samples, lam, m0, True)
    return Certificate(ex, C, C_samples, lam, math.nan, False)


# ---------------------------------------------------------------------------
# ball invariance


@dataclass
class BallReport:
    """Empirical check that Lambda maps the radius-M source ball into itself."""

    trials: int
    max_output_norm: float
    violations: list[tuple[int, float, float]]  # (trial, input norm, output norm)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_ball_invariance(
    prob: SystemProblem,
    cert: Certificate,
    M: float,
    trials: int,
    seed: int | np.random.SeedSequence = 0,
) -> BallReport:
    """Sample source pairs with pair norm M*t, t uniform in [0, 1), apply
    Lambda, and record any output pair norm exceeding M (1 + 1e-6)."""
    if not cert.valid:
        raise ValueError("ball invariance requires a valid certificate (lambda < 1)")
    if M < cert.M0:
        raise ValueError(f"M={M} is below the certified radius M0={cert.M0}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    grid, r = prob.grid, prob.exponents.r
    rng = np.random.default_rng(seed)
    block = max(1, chunk_size(grid) // 2)  # the pairs of one lift chunk
    worst = 0.0
    violations = []
    for start in range(0, trials, block):
        k = min(block, trials - start)
        # a trial's row of draws in rng order: the coefficients of f and g,
        # uniform in [-1, 1), then t
        draws = rng.random((k, 2 * SAMPLER_MODES**2 + 1))
        coeffs = (2.0 * draws[:, :-1] - 1.0).reshape(2 * k, SAMPLER_MODES, SAMPLER_MODES)
        t = draws[:, -1]
        sources = smooth_fields(grid, coeffs).reshape(k, 2, grid.n_nodes)
        cur = pair_norms(grid, sources, r)
        radii = M * t
        scale = np.divide(radii, cur, out=np.zeros(k), where=cur > 0.0)
        sources *= scale[:, None, None]
        # only the norms of the images outlive the block, not its lifts
        Y = apply_lambda(prob, sources, DEFAULT_TOL, start)[1]
        out = pair_norms(grid, Y, r)
        del Y
        worst = max(worst, float(out.max()))
        for i in np.flatnonzero(out > M * (1.0 + BALL_SLACK)):
            violations.append((start + int(i), float(radii[i]), float(out[i])))
    return BallReport(trials, worst, violations)


# ---------------------------------------------------------------------------
# Picard iteration


@dataclass
class TraceRow:
    """One Lambda evaluation of picard_solve: the iterate's pair norms, the
    successive difference, the largest weak residual of the lifted pair,
    the Newton steps and CG iterations of its u and v lifts, and the inner
    tolerance of both lifts."""

    index: int
    norm_f: float
    norm_g: float
    delta: float
    weak_residual: float
    newton_u: int
    newton_v: int
    cg_u: int
    cg_v: int
    inner_tol: float


@dataclass
class ConvergenceTrace:
    """Per-iteration record of the Picard run plus a final row for the
    returned state.

    `stop_reason` is "converged", "max_iter" or "diverged"; `restarts`
    counts the Anderson history restarts, abort fallbacks included;
    `residuals` holds the weak residual rows (R1, R2), shape (2, N), of the
    returned pair, which verify.classify turns into its verdict.
    """

    rows: list[TraceRow]
    stop_reason: str
    theta_final: float
    restarts: int
    residuals: np.ndarray = field(repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def iterations(self) -> int:
        return len(self.rows) - 1

    def csv_lines(self) -> list[str]:
        lines = ["iter,norm_f,norm_g,delta,weak_residual,newton_u,newton_v,cg_u,cg_v,inner_tol"]
        for row in self.rows:
            lines.append(
                f"{row.index},{row.norm_f:.17g},{row.norm_g:.17g},"
                f"{row.delta:.17g},{row.weak_residual:.17g},"
                f"{row.newton_u},{row.newton_v},{row.cg_u},{row.cg_v},{row.inner_tol:.17g}"
            )
        return lines


def _lambda_pair(
    prob: SystemProblem, x: np.ndarray, tol: float, start: np.ndarray | None, stage: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int, int, int]]:
    """Lambda on the stacked source pair x (2, n_nodes), lifted at the
    inner tolerance tol from the lifted pair `start` (None: a cold start):
    the lifted pair, its image, the weak residual rows (R1, R2) of the
    lifted pair, and the Newton steps and CG iterations of the u and v
    lifts.  A SolverAbort leaves with its stage set to `stage`."""
    try:
        L, Y, (ru, rv) = apply_lambda(prob, x[None], tol, L0=None if start is None else start[None])
    except SolverAbort as err:
        err.stage = stage
        raise
    R = system_residuals(prob.grid, L[0], Y[0], prob.exponents.p)
    return L[0], Y[0], R, (ru.iterations, rv.iterations, ru.cg_iterations, rv.cg_iterations)


def picard_solve(prob: SystemProblem) -> tuple[np.ndarray, ConvergenceTrace]:
    """Safeguarded Anderson-accelerated Picard iteration on Lambda from the
    zero source pair.

    The state is the stacked pair x = (f, g) and its residual is
    F(x) = Lambda(x) - x.  Each step is the type-II Anderson step

        x+ = (1 - theta) x + theta Lambda(x) - (dX + theta dF) gamma,

    where dX, dF hold the last ANDERSON_WINDOW differences of successive
    iterates and residuals, and gamma minimizes |sqrt(w) (F - dF gamma)|_2
    with w the lumped node weights of both components.  With an empty
    window the step is the damped Picard step.  The damping theta starts
    at 1.  Safeguards: when the successive difference delta = |theta F(x)|
    (L^r pair norm) grows, the window is emptied, and after three growths
    in a row theta falls back to 0.5; three more growths in a row at
    theta = 0.5 stop the run as "diverged".  When the lift of an
    extrapolated pair raises SolverAbort, the iteration takes the damped
    step from the last evaluated iterate instead and empties the window
    (an abort there propagates).  An abort that leaves the run names its
    Picard iteration, or the final lift, as its stage.

    Lambda's lifts are warm and inexact: every lift starts from the pair
    lifted last, and the lifts of iteration k stop at the inner tolerance
    max(DEFAULT_TOL, min(INNER_TOL_MAX, INNER_TOL_FACTOR delta_k-1)), so
    the first ones at INNER_TOL_MAX (Toth et al., SIAM J. Sci. Comput.
    2017, on inexact evaluations in Anderson acceleration).  The run stops
    once delta <= PICARD_TOL, with a damped step, and returns the pair
    w = (u, v), the read-only (2, n_nodes) stack lifted from the final
    source pair at the lift's default tolerance DEFAULT_TOL, and the trace,
    which also holds the weak residual rows of w; a run that diverged
    returns the inexact lift of its last iterate, without a final lift.
    Exhaustion of PICARD_MAX_ITER iterations and divergence are reported in
    the trace, not raised.  PICARD_TOL and PICARD_MAX_ITER are module
    constants, read when the run starts.  The iteration takes no
    certificate: lambda and M0 describe Lambda itself, not this
    accelerated iteration.
    """
    tol, max_iter = PICARD_TOL, PICARD_MAX_ITER
    grid = prob.grid
    r = prob.exponents.r
    sqrt_w = np.sqrt(grid.lumped)
    x = np.zeros((2, grid.n_nodes))
    dX: list[np.ndarray] = []
    dF: list[np.ndarray] = []
    x_last = lam_last = res_last = None  # last evaluated iterate
    L = None  # the pair lifted last, the start of the next lifts
    rows: list[TraceRow] = []
    th = 1.0
    prev_delta = math.inf
    increases = 0
    restarts = 0
    stop_reason = "max_iter"
    delta = math.nan
    for it in range(1, max_iter + 1):
        inner_tol = max(DEFAULT_TOL, min(INNER_TOL_MAX, INNER_TOL_FACTOR * prev_delta))
        stage = f"Picard iteration {it}"
        try:
            L, lam, R, counts = _lambda_pair(prob, x, inner_tol, L, stage)
        except SolverAbort:
            if not dF:  # x is a damped step, not an extrapolation
                raise
            x = (1.0 - th) * x_last + th * lam_last
            dX.clear()
            dF.clear()
            restarts += 1
            L, lam, R, counts = _lambda_pair(prob, x, inner_tol, L, stage)
        res = lam - x
        delta = float(pair_norms(grid, th * res, r))
        weak = float(np.abs(R).max(initial=0.0))
        rows.append(TraceRow(it, *lq_norms(grid, x, r).tolist(), delta, weak, *counts, inner_tol))
        if delta > prev_delta:
            increases += 1
            if increases >= 3:
                if th <= 0.5:
                    stop_reason = "diverged"
                    break
                th = 0.5
                increases = 0
            if dX:
                restarts += 1
            dX.clear()
            dF.clear()
        else:
            increases = 0
            if x_last is not None:
                dX.append(x - x_last)
                dF.append(res - res_last)
                del dX[:-ANDERSON_WINDOW], dF[:-ANDERSON_WINDOW]
        prev_delta = delta
        x_last, lam_last, res_last = x, lam, res
        x = (1.0 - th) * x + th * lam
        if delta <= tol:
            stop_reason = "converged"
            break
        if dF:
            A = np.stack([(d * sqrt_w).ravel() for d in dF], axis=1)
            gamma = np.linalg.lstsq(A, (res * sqrt_w).ravel(), rcond=None)[0]
            for j, gj in enumerate(gamma):
                x -= gj * (dX[j] + th * dF[j])

    if stop_reason == "diverged":
        # the lift of the last iterate, whose sources can be too large for
        # a lift at DEFAULT_TOL to converge: the final row took no lift
        counts = (0, 0, 0, 0)
    else:
        inner_tol = DEFAULT_TOL
        L, _, R, counts = _lambda_pair(prob, x, DEFAULT_TOL, L, "the final lift")
    weak = float(np.abs(R).max(initial=0.0))
    norms = lq_norms(grid, x, r).tolist()
    rows.append(TraceRow(rows[-1].index + 1, *norms, delta, weak, *counts, inner_tol))
    return L, ConvergenceTrace(rows, stop_reason, th, restarts, R)
