"""Weak-form classification, the shift test, and convergence studies.

A pair (u, v) is probed against the coupled system

    -Delta_p u + phi(x, u, v) = 0,   -Delta_p v + psi(x, u, v) = 0

through the discrete weak residuals against every interior nodal hat eta_i:

    R1(eta_i) = sum_e |grad u|^(p-2) grad u . grad eta_i area_e
              + sum_e mean_e(phi(., u, v) eta_i) area_e

and the psi analogue R2.  Verdicts: solution when every |R| <= tol,
supersolution when every R >= -tol, subsolution when every R <= tol,
neither otherwise, at the module constant tol = CLASS_TOL, read when a
pair is classified.  The test functions are exactly the interior hat basis
(nonnegative, spanning the discrete zero-boundary space).  The residual
rows come from plap.residual_vector at reg = 0, the same weighted-flux
kernel the scalar solver minimizes with; the caller supplies the reaction
pair, so a Picard state evaluates its coupling once.  classify takes the
verdict from the rows R = (R1, R2), a (2, N) stack already computed, and
keeps R: `plapsys solve` classifies the rows of the last lift of
picard_solve, and weak_residuals computes the rows of a given pair first,
a (2, n_nodes) stack w = (u, v) as picard_solve returns it, with
coupling.coupling_values(w) as its reactions.

The shift test realizes the comparison statement that adding a constant
alpha > 0 to u and beta >= 0 to v preserves supersolutions when the
coupling is monotone in both state arguments: the gradient term is
untouched by constant shifts and monotonicity can only increase the
reaction term.  Monotonicity is a gated precondition checked by sampling
on the ranges the shift actually visits; a precondition failure is
reported distinctly from a shift-test failure.

convergence_study checks the resolutions, then fits the observed order of
the errors its caller measures at each, as cli.study does for a config.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .coupling import Coupling, check_monotone, coupling_values
from .field import Grid, check_pair
from .plap import residual_vector

CLASS_TOL = 1e-6  # the tolerance of every verdict


def system_residuals(grid: Grid, w: np.ndarray, reactions: np.ndarray, p: float) -> np.ndarray:
    """Interior-hat weak residuals (R1, R2), shape (2, N), of the coupled
    system at the stacked pair w = (u, v), given the stacked reaction pair
    (phi, psi) evaluated at the nodes of (u, v), both (2, n_nodes)."""
    R = residual_vector(grid, w, p, reactions, 0.0)
    return np.take(R, grid.interior, axis=-1)


@dataclass
class Classification:
    """Weak-form verdict for a candidate pair, with the per-hat residuals."""

    verdict: str  # 'solution' | 'supersolution' | 'subsolution' | 'neither'
    hat_nodes: np.ndarray  # global node index of each interior hat
    R: np.ndarray  # the rows (R1, R2), shape (2, N), one column per hat

    @property
    def max_abs_residual(self) -> float:
        return float(np.abs(self.R).max())

    def offending_hats(self) -> list[int]:
        """Hats breaking the 'solution' verdict at CLASS_TOL."""
        return [int(n) for n in self.hat_nodes[(np.abs(self.R) > CLASS_TOL).any(axis=0)]]

    def csv_lines(self) -> list[str]:
        lines = ["hat_index,R1,R2"]
        for n, (r1, r2) in zip(self.hat_nodes, self.R.T):
            lines.append(f"{n},{r1:.17g},{r2:.17g}")
        return lines


def weak_residuals(grid: Grid, w: np.ndarray, c: Coupling, p: float) -> Classification:
    """Classify the pair w = (u, v), a (2, n_nodes) stack of nodal values on
    grid, as solution / supersolution / subsolution / neither; any other
    shape, or a value that is not finite, is a ValueError."""
    check_pair(grid, w, "w")
    return classify(grid, system_residuals(grid, w, coupling_values(c, grid, w), p))


def classify(grid: Grid, R: np.ndarray) -> Classification:
    """The verdict of a pair on grid from its interior-hat weak residual
    rows R = (R1, R2), shape (2, N), as system_residuals returns them."""
    tol = CLASS_TOL
    lo, hi = R.min(), R.max()
    if max(abs(lo), abs(hi)) <= tol:
        verdict = "solution"
    elif lo >= -tol:
        verdict = "supersolution"
    elif hi <= tol:
        verdict = "subsolution"
    else:
        verdict = "neither"
    return Classification(verdict, grid.interior.copy(), R)


@dataclass
class ShiftReport:
    """Outcome of the constant-shift comparison test.

    precondition_ok gates the result: when False, `reason` says which
    precondition failed (classification or monotonicity) and `passed` is
    None rather than a verdict on the test itself.
    """

    precondition_ok: bool
    reason: str
    shifted_verdicts: list[tuple[str, str]]  # (direction, verdict)
    passed: bool | None


def shift_test(
    grid: Grid, w: np.ndarray, base: Classification, c: Coupling, p: float,
    alpha: float, beta: float,
) -> ShiftReport:
    """Check that w + (alpha, beta) stays a supersolution (alpha > 0,
    beta >= 0, both finite), or w - (alpha, beta) a subsolution for
    subsolution input, given the pair w = (u, v), a (2, n_nodes) stack on
    grid, and its classification `base`; the shifted pairs are classified
    at CLASS_TOL, as `base` is.  The monotonicity gate probes
    check_monotone on the grid's box and the ranges of u and v that the
    shift visits.  A w of any other shape, or with a value that is not
    finite, is a ValueError."""
    check_pair(grid, w, "w")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be nonnegative and finite, got {beta}")
    directions = {"supersolution": ["up"], "subsolution": ["down"], "solution": ["up", "down"]}
    if base.verdict not in directions:
        reason = "input pair classifies as neither super- nor subsolution"
        return ShiftReport(False, reason, [], None)

    # monotonicity gate on the range of states the shift visits
    step = np.array([alpha, beta])
    lo, hi = (w.min(axis=1) - step).tolist(), (w.max(axis=1) + step).tolist()
    violations = check_monotone(c, grid.box, (lo[0], hi[0]), (lo[1], hi[1]))
    if violations:
        reason = f"coupling is not monotone on the sampled range ({violations} violating pairs)"
        return ShiftReport(False, reason, [], None)

    results, ok = [], True
    for direction in directions[base.verdict]:
        sign, keep = (1.0, "supersolution") if direction == "up" else (-1.0, "subsolution")
        verdict = weak_residuals(grid, w + sign * step[:, None], c, p).verdict
        results.append((direction, verdict))
        ok = ok and verdict in (keep, "solution")
    return ShiftReport(True, "", results, ok)


# ---------------------------------------------------------------------------
# convergence studies


@dataclass
class StudyRow:
    n: int
    error_max: float
    error_l2: float
    order: float  # pairwise order vs the previous row; nan on the first row


@dataclass
class StudyReport:
    rows: list[StudyRow]
    fitted_order: float  # least-squares slope over all rows; nan when exact
    exact: bool

    def csv_lines(self) -> list[str]:
        lines = ["n,error_max,error_l2,order"]
        for row in self.rows:
            lines.append(
                f"{row.n},{row.error_max:.17g},{row.error_l2:.17g},{row.order:.17g}"
            )
        return lines


EXACTNESS_FLOOR = 1e-8


def convergence_study(
    resolutions: list[int], errors: Callable[[int], tuple[float, float]]
) -> StudyReport:
    """Check the resolutions, then measure errors(n), the (max, L^2) error
    of a solve at resolution n, at each of them and fit the observed
    convergence order of the max error against n."""
    if len(resolutions) < 3:
        raise ValueError("need at least 3 resolutions")
    if min(resolutions) < 2:
        raise ValueError(
            f"resolutions must be >= 2 (fewer cells leave no interior node), "
            f"got {min(resolutions)}"
        )
    if any(a >= b for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must be strictly increasing")
    rows = []
    for n in resolutions:
        e_max, e_l2 = errors(n)
        if rows and rows[-1].error_max > 0 and e_max > 0:
            order = math.log(rows[-1].error_max / e_max) / math.log(n / rows[-1].n)
        else:
            order = math.nan
        rows.append(StudyRow(n, e_max, e_l2, order))

    exact_flag = all(r.error_max <= EXACTNESS_FLOOR for r in rows)
    if exact_flag:
        fitted = math.nan
    else:
        ln = np.log([r.n for r in rows])
        le = np.log([max(r.error_max, 1e-300) for r in rows])
        fitted = float(-np.polyfit(ln, le, 1)[0])
    return StudyReport(rows, fitted, exact_flag)
