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

The smallness certificate quantifies when Lambda maps a ball of L^r source
pairs into itself: with the growth constants of the epsilon-transformed
coupling, lambda = max{a1', a2', b1', b2'} * C * |Omega|^(p/d) < 1, where the
max is (1 + eps)^(p-1) max{a1, a2, b1, b2}, gives the
ball radius M0 = max{||c||_r, ||c'||_r} / (1 - lambda), invariant for every
M >= M0.  The constant C (source norm to lifted-state norm, power p-1) is
calibrated empirically on the grid from random smooth sources and is an
estimate, not a proven bound; every certificate records that provenance.
lambda and M0 describe Lambda itself, not the accelerated iteration.

Exponent bookkeeping: r must lie in [d p'/(d + p'), d/p) with p' = p/(p-1),
which is nonempty exactly when 1 < p < d.  The dimension d enters only
through this algebra and the |Omega|^(p/d) factor, so it is carried as a
parameter of the exponent budget rather than tied to the grid dimension.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coupling import Coupling, TransformedCoupling, nemytskii, transform
from .field import Grid, ScalarField, constant_field, lq_norm, pair_norm
from .plap import DEFAULT_TOL, PPoissonProblem, SolveReport, solve_p_poisson
from .verify import system_residuals

DEFAULT_PICARD_TOL = 1e-7
DEFAULT_PICARD_MAX_ITER = 200
BALL_SLACK = 1e-6
MIN_CALIBRATION_SAMPLES = 10
SAMPLER_MODES = 8
ANDERSON_WINDOW = 3  # differences kept by the Anderson step of picard_solve


class SolverAbort(RuntimeError):
    """An inner p-Poisson solve failed to converge: names the component, the
    exponent p, the grid size n, why the solve stopped and its last gradient
    norm."""

    def __init__(self, component: str, p: float, report: SolveReport):
        self.component = component
        self.p = p
        self.n = report.solution.grid.n
        self.stop_reason = report.stop_reason
        self.gradient_norm = report.gradient_norm
        super().__init__(
            f"inner solve for the {component} component did not converge "
            f"({self.stop_reason} at p = {p:g}, n = {self.n}, "
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
    """Coupled system on a 2-D grid: boundary pair (h, k), coupling, and the
    epsilon used by the growth transform."""

    grid: Grid
    exponents: Exponents
    coupling: Coupling
    h: ScalarField
    k: ScalarField
    eps: float

    def __post_init__(self):
        if self.grid.d != 2:
            raise ValueError("system problems are posed on 2-D grids only")
        if self.h.grid is not self.grid or self.k.grid is not self.grid:
            raise ValueError("boundary fields must live on the problem grid")
        if self.coupling.p != self.exponents.p:
            raise ValueError(
                f"coupling growth exponent p={self.coupling.p} does not match "
                f"the exponent budget p={self.exponents.p}"
            )
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    def transformed(self) -> TransformedCoupling:
        return transform(self.coupling, self.h, self.k, self.eps)


@dataclass(frozen=True)
class IterationState:
    """One Picard state: the source pair and its lifted solution pair."""

    f: ScalarField
    g: ScalarField
    u_f: ScalarField
    v_g: ScalarField


def apply_T(
    prob: SystemProblem,
    f: ScalarField,
    g: ScalarField,
    tol: float = DEFAULT_TOL,
) -> IterationState:
    """Lift a source pair: solve Delta_p u = f, u = h and Delta_p v = g, v = k."""
    ex = prob.exponents
    ru = solve_p_poisson(PPoissonProblem(prob.grid, ex.p, f, prob.h), tol=tol)
    if not ru.converged:
        raise SolverAbort("u", ex.p, ru)
    rv = solve_p_poisson(PPoissonProblem(prob.grid, ex.p, g, prob.k), tol=tol)
    if not rv.converged:
        raise SolverAbort("v", ex.p, rv)
    return IterationState(f, g, ru.solution, rv.solution)


def apply_lambda(
    prob: SystemProblem,
    f: ScalarField,
    g: ScalarField,
    tol: float = DEFAULT_TOL,
) -> tuple[ScalarField, ScalarField, IterationState]:
    """One application of Lambda: lift, then substitute into the coupling.

    Returns (phi(., u_f, v_g), psi(., u_f, v_g), state of the lift).
    """
    state = apply_T(prob, f, g, tol)
    phi_f, psi_f = nemytskii(prob.coupling, state.u_f, state.v_g)
    return phi_f, psi_f, state


# ---------------------------------------------------------------------------
# calibration


def sample_smooth_field(grid: Grid, rng: np.random.Generator) -> ScalarField:
    """Random smooth field: the first 8x8 sine modes on the box with
    coefficients uniform in [-1, 1].  Vanishes on the boundary."""
    coeffs = rng.uniform(-1.0, 1.0, size=(SAMPLER_MODES, SAMPLER_MODES))
    b = grid.box
    modes = np.arange(1, SAMPLER_MODES + 1)
    xh = (grid.coords[:, 0] - b[0]) / (b[1] - b[0])
    sx = np.sin(np.pi * np.outer(modes, xh))
    if grid.d == 1:
        return ScalarField(grid, coeffs[:, 0] @ sx)
    yh = (grid.coords[:, 1] - b[2]) / (b[3] - b[2])
    sy = np.sin(np.pi * np.outer(modes, yh))
    return ScalarField(grid, np.einsum("ij,in,jn->n", coeffs, sx, sy))


def scale_to_norm(w: ScalarField, q: float, target: float) -> ScalarField:
    """Rescale w so lq_norm(w, q) == target (zero field stays zero)."""
    cur = lq_norm(w, q)
    if cur == 0.0:
        return w
    return ScalarField(w.grid, w.values * (target / cur))


def calibration_ratios(
    grid: Grid,
    exponents: Exponents,
    sources: list[ScalarField],
    tol: float = DEFAULT_TOL,
) -> list[float]:
    """||u_f||_s^(p-1) / ||f||_r for each source, with zero boundary data.

    This ratio is what the Sobolev-embedding constant bounds; it is
    invariant under rescaling f because the lift is (p-1)-homogeneous.
    """
    zero = constant_field(grid, 0.0)
    ex = exponents
    out = []
    for f in sources:
        rep = solve_p_poisson(PPoissonProblem(grid, ex.p, f, zero), tol=tol)
        if not rep.converged:
            raise SolverAbort("calibration", ex.p, rep)
        denom = lq_norm(f, ex.r)
        if denom == 0.0:
            raise ValueError("calibration sources must be nonzero")
        out.append(lq_norm(rep.solution, ex.s) ** (ex.p - 1.0) / denom)
    return out


def calibrate_C(
    grid: Grid,
    exponents: Exponents,
    samples: int = 16,
    seed: int | np.random.SeedSequence = 0,
    tol: float = DEFAULT_TOL,
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
    sources = [
        scale_to_norm(sample_smooth_field(grid, rng), exponents.r, 1.0)
        for _ in range(samples)
    ]
    return 2.0 * max(calibration_ratios(grid, exponents, sources, tol))


# ---------------------------------------------------------------------------
# certificate


def smallness_lambda(max_const: float, C: float, measure: float, p: float, d: int) -> float:
    """lambda = max{a1', a2', b1', b2'} * C * |Omega|^(p/d)."""
    return max_const * C * measure ** (p / d)


def ball_radius(c_norm: float, c_prime_norm: float, lam: float) -> float:
    """M0 = max{||c||_r, ||c'||_r} / (1 - lambda); requires lambda < 1."""
    if lam >= 1.0:
        raise ValueError(f"ball radius undefined for lambda={lam} >= 1")
    return max(c_norm, c_prime_norm) / (1.0 - lam)


@dataclass(frozen=True)
class Certificate:
    """Smallness certificate: lambda < 1 yields the invariant-ball radius M0.

    C is the empirically calibrated lift constant (see calibrate_C); the
    certificate is evidence at the discretization level, not a proof.
    When valid is False, M0 is nan.
    """

    exponents: Exponents
    eps: float
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
            f"epsilon = {self.eps:.17g}",
            f"lambda = {self.lam:.17g}",
            f"M0 = {self.M0:.17g}",
            f"valid = {'true' if self.valid else 'false'}",
        ]
        return "\n".join(lines) + "\n"


def certify(prob: SystemProblem, C: float, C_samples: int = 0) -> Certificate:
    """Build the certificate for a problem from a calibrated constant C."""
    if not (math.isfinite(C) and C > 0.0):
        raise ValueError(f"C must be positive and finite, got {C}")
    ex = prob.exponents
    tc = prob.transformed()
    c = prob.coupling
    amax = tc.growth_factor * max(c.a1, c.a2, c.b1, c.b2)
    lam = smallness_lambda(amax, C, prob.grid.measure, ex.p, ex.d)
    if lam < 1.0:
        m0 = ball_radius(
            lq_norm(tc.c_field(), ex.r), lq_norm(tc.c_prime_field(), ex.r), lam
        )
        return Certificate(ex, prob.eps, C, C_samples, lam, m0, True)
    return Certificate(ex, prob.eps, C, C_samples, lam, math.nan, False)


# ---------------------------------------------------------------------------
# ball invariance


@dataclass
class BallReport:
    """Empirical check that Lambda maps the radius-M source ball into itself."""

    M: float
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
    trials: int = 100,
    seed: int | np.random.SeedSequence = 0,
    tol: float = DEFAULT_TOL,
) -> BallReport:
    """Sample source pairs with pair norm M*t, t uniform in [0, 1), apply
    Lambda, and record any output pair norm exceeding M (1 + 1e-6)."""
    if not cert.valid:
        raise ValueError("ball invariance requires a valid certificate (lambda < 1)")
    if M < cert.M0:
        raise ValueError(f"M={M} is below the certified radius M0={cert.M0}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ex = prob.exponents
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = []
    for trial in range(trials):
        f = sample_smooth_field(prob.grid, rng)
        g = sample_smooth_field(prob.grid, rng)
        t = rng.uniform(0.0, 1.0)
        cur = pair_norm(f, g, ex.r)
        scale = (M * t / cur) if cur > 0.0 else 0.0
        f = ScalarField(prob.grid, f.values * scale)
        g = ScalarField(prob.grid, g.values * scale)
        phi_f, psi_f, _ = apply_lambda(prob, f, g, tol)
        out = pair_norm(phi_f, psi_f, ex.r)
        worst = max(worst, out)
        if out > M * (1.0 + BALL_SLACK):
            violations.append((trial, M * t, out))
    return BallReport(M, trials, worst, violations)


# ---------------------------------------------------------------------------
# Picard iteration


@dataclass
class TraceRow:
    index: int
    norm_f: float
    norm_g: float
    delta: float
    weak_residual: float


@dataclass
class ConvergenceTrace:
    """Per-iteration record of the Picard run plus a final row for the
    returned state.

    `stop_reason` is "converged" or "max_iter"; `restarts` counts the
    Anderson history restarts, abort fallbacks included.
    """

    rows: list[TraceRow]
    stop_reason: str
    theta_final: float
    restarts: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def iterations(self) -> int:
        return len(self.rows) - 1

    def csv_lines(self) -> list[str]:
        lines = ["iter,norm_f,norm_g,delta,weak_residual"]
        for row in self.rows:
            lines.append(
                f"{row.index},{row.norm_f:.17g},{row.norm_g:.17g},"
                f"{row.delta:.17g},{row.weak_residual:.17g}"
            )
        return lines


def _max_residual(
    state: IterationState, phi_f: ScalarField, psi_f: ScalarField, p: float
) -> float:
    R1, R2 = system_residuals(state.u_f, state.v_g, phi_f, psi_f, p)
    return float(max(np.abs(R1).max(), np.abs(R2).max(), 0.0))


def _lambda_pair(
    prob: SystemProblem, x: np.ndarray, solver_tol: float
) -> tuple[np.ndarray, float, IterationState]:
    """Lambda on the stacked source pair x (2, n_nodes): the stacked image,
    the largest weak residual of the lifted state, and that state."""
    grid = prob.grid
    phi_f, psi_f, state = apply_lambda(
        prob, ScalarField(grid, x[0]), ScalarField(grid, x[1]), solver_tol
    )
    residual = _max_residual(state, phi_f, psi_f, prob.exponents.p)
    return np.stack([phi_f.values, psi_f.values]), residual, state


def _lq_norms(grid: Grid, x: np.ndarray, r: float) -> tuple[float, float]:
    """L^r norms of both components of a stacked pair."""
    return lq_norm(ScalarField(grid, x[0]), r), lq_norm(ScalarField(grid, x[1]), r)


def picard_solve(
    prob: SystemProblem,
    cert: Certificate | None = None,
    theta: float = 1.0,
    tol: float = DEFAULT_PICARD_TOL,
    max_iter: int = DEFAULT_PICARD_MAX_ITER,
    solver_tol: float = DEFAULT_TOL,
) -> tuple[ScalarField, ScalarField, ConvergenceTrace]:
    """Safeguarded Anderson-accelerated Picard iteration on Lambda from the
    zero source pair.

    The state is the stacked pair x = (f, g) and its residual is
    F(x) = Lambda(x) - x.  Each step is the type-II Anderson step

        x+ = (1 - theta) x + theta Lambda(x) - (dX + theta dF) gamma,

    where dX, dF hold the last ANDERSON_WINDOW differences of successive
    iterates and residuals, and gamma minimizes |sqrt(w) (F - dF gamma)|_2
    with w the lumped node weights of both components.  With an empty
    window the step is the damped Picard step.  Safeguards: when the
    successive difference delta = |theta F(x)| (L^r pair norm) grows, the
    window is emptied, and after three growths in a row theta falls back
    to 0.5; when the lift of an extrapolated pair raises SolverAbort, the
    iteration takes the damped step from the last evaluated iterate
    instead and empties the window (an abort there propagates).  The run
    stops once delta <= tol, with a damped step, and returns the lifted
    pair (u, v) of the final source pair and the trace; exhaustion of
    max_iter is reported in the trace, not raised.

    The certificate's lambda and M0 describe Lambda itself, not this
    accelerated iteration.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if cert is None:
        warnings.warn("no certificate supplied; iterating without a smallness guarantee")
    elif not cert.valid:
        warnings.warn(
            f"certificate is invalid (lambda={cert.lam:.3g} >= 1); "
            f"iterating without a smallness guarantee"
        )
    grid = prob.grid
    r = prob.exponents.r
    sqrt_w = np.sqrt(grid.lumped)
    x = np.zeros((2, grid.n_nodes))
    dX: list[np.ndarray] = []
    dF: list[np.ndarray] = []
    x_last = lam_last = res_last = None  # last evaluated iterate
    rows: list[TraceRow] = []
    th = theta
    prev_delta = math.inf
    increases = 0
    restarts = 0
    stop_reason = "max_iter"
    delta = math.nan
    for it in range(1, max_iter + 1):
        try:
            lam, weak, _ = _lambda_pair(prob, x, solver_tol)
        except SolverAbort:
            if not dF:  # x is a damped step, not an extrapolation
                raise
            x = (1.0 - th) * x_last + th * lam_last
            dX.clear()
            dF.clear()
            restarts += 1
            lam, weak, _ = _lambda_pair(prob, x, solver_tol)
        res = lam - x
        delta = max(_lq_norms(grid, th * res, r))
        rows.append(TraceRow(it, *_lq_norms(grid, x, r), delta, weak))
        if delta > prev_delta:
            increases += 1
            if increases >= 3 and th > 0.5:
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

    lam, weak, final = _lambda_pair(prob, x, solver_tol)
    rows.append(TraceRow(rows[-1].index + 1, *_lq_norms(grid, x, r), delta, weak))
    trace = ConvergenceTrace(rows, stop_reason, th, restarts)
    return final.u_f, final.v_g, trace
