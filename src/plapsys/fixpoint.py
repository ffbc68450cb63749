"""Fixed-point machinery for the coupled Dirichlet system.

The system

    -Delta_p u + phi(x, u, v) = 0,   -Delta_p v + psi(x, u, v) = 0,
    u = h, v = k on the boundary

is attacked through the composed map Lambda(f, g) = (B1 T(f,g), B2 T(f,g)):
T lifts a source pair to the pair of p-Poisson solutions (u_f, v_g) with
Delta_p u_f = f, u_f = h (and g, k alike), and B1, B2 substitute the lifted
pair back into the coupling.  A fixed point of Lambda yields a solution of
the system through one final lift.

The smallness certificate quantifies when Lambda maps a ball of L^r source
pairs into itself: with the growth constants of the epsilon-transformed
coupling, lambda = max{a1', a2', b1', b2'} * C * |Omega|^(p/d) < 1, where the
max is (1 + eps)^(p-1) max{a1, a2, b1, b2}, gives the
ball radius M0 = max{||c||_r, ||c'||_r} / (1 - lambda), invariant for every
M >= M0.  The constant C (source norm to lifted-state norm, power p-1) is
calibrated empirically on the grid from random smooth sources and is an
estimate, not a proven bound; every certificate records that provenance.

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
    returned state.  `converged` is False when max_iter was exhausted."""

    rows: list[TraceRow]
    converged: bool
    theta_final: float

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


def picard_solve(
    prob: SystemProblem,
    cert: Certificate | None = None,
    theta: float = 1.0,
    tol: float = DEFAULT_PICARD_TOL,
    max_iter: int = DEFAULT_PICARD_MAX_ITER,
    solver_tol: float = DEFAULT_TOL,
) -> tuple[ScalarField, ScalarField, ConvergenceTrace]:
    """Damped Picard iteration on Lambda from the zero source pair.

    (f,g) <- (1-theta)(f,g) + theta Lambda(f,g) until the successive
    difference drops to tol in the pair norm.  After three consecutive
    increases of that difference the damping falls back to theta = 0.5.
    Returns the lifted pair (u, v) of the final source pair and the trace;
    exhaustion of max_iter is reported in the trace, not raised.
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
    ex = prob.exponents
    f = constant_field(prob.grid, 0.0)
    g = constant_field(prob.grid, 0.0)
    rows: list[TraceRow] = []
    th = theta
    prev_delta = math.inf
    increases = 0
    converged = False
    delta = math.nan
    for it in range(1, max_iter + 1):
        phi_f, psi_f, state = apply_lambda(prob, f, g, solver_tol)
        new_f = ScalarField(prob.grid, (1.0 - th) * f.values + th * phi_f.values)
        new_g = ScalarField(prob.grid, (1.0 - th) * g.values + th * psi_f.values)
        diff_f = ScalarField(prob.grid, new_f.values - f.values)
        diff_g = ScalarField(prob.grid, new_g.values - g.values)
        delta = pair_norm(diff_f, diff_g, ex.r)
        rows.append(
            TraceRow(it, lq_norm(f, ex.r), lq_norm(g, ex.r), delta,
                     _max_residual(state, phi_f, psi_f, ex.p))
        )
        if delta > prev_delta:
            increases += 1
            if increases >= 3 and th > 0.5:
                th = 0.5
                increases = 0
        else:
            increases = 0
        prev_delta = delta
        f, g = new_f, new_g
        if delta <= tol:
            converged = True
            break

    phi_f, psi_f, final = apply_lambda(prob, f, g, solver_tol)
    rows.append(
        TraceRow(rows[-1].index + 1, lq_norm(f, ex.r), lq_norm(g, ex.r), delta,
                 _max_residual(final, phi_f, psi_f, ex.p))
    )
    return final.u_f, final.v_g, ConvergenceTrace(rows, converged, th)
