"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every criterion runs at its stated tolerance; the prints survive in captured
output so a failing run names the criterion directly.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import plapsys.expr as ex
from plapsys.coupling import (
    GROWTH_TOL,
    Coupling,
    check_monotone,
    growth_excess,
    power_family,
    split_bound,
)
from plapsys.field import Grid
from plapsys.fixpoint import (
    SystemProblem,
    admissible_r_range,
    calibrate_C,
    certify,
    check_ball_invariance,
    make_exponents,
    picard_solve,
)
from plapsys.verify import convergence_study, shift_test, weak_residuals

from p1_reference import stiffness_matrix
from stack_reference import constant_field, from_callable, pair

SHIFTS = [(1.0, 0.0), (0.5, 0.2), (2.0, 1.0)]


def report(num, label, ok, detail):
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_manufactured_p2():
    t0 = time.perf_counter()
    rep = convergence_study("sinsin", [16, 32, 64])
    elapsed = time.perf_counter() - t0
    errs = [r.error_max for r in rep.rows]
    ok = (
        rep.fitted_order >= 1.7
        and all(a > b for a, b in zip(errs, errs[1:]))
        and elapsed <= 30.0
    )
    report(1, "manufactured p=2 sin*sin", ok,
           f"fitted order {rep.fitted_order:.3f}, errors {errs}, {elapsed:.1f}s")


def test_criterion_2_p3_closed_form():
    t0 = time.perf_counter()
    rep = convergence_study("p3-1d", [64, 128, 256])
    elapsed = time.perf_counter() - t0
    # exact solution peaks at (1/1.5) * 0.5^1.5 in magnitude
    peak = (1.0 / 1.5) * 0.5**1.5
    rel = rep.rows[-1].error_max / peak
    ok = rel <= 1e-2 and rep.fitted_order >= 0.9 and elapsed <= 10.0
    report(2, "p=3 closed form (solution depends on x alone)", ok,
           f"rel error {rel:.2e} at n=256, fitted order {rep.fitted_order:.3f}, "
           f"{elapsed:.1f}s")


def test_criterion_3_exponent_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    while count < 1000:
        d = int(rng.integers(2, 7))
        p = float(rng.uniform(1.0 + 1e-3, d - 1e-3))
        if d * (p - 1.0) > p * p:  # d/p <= p' fails for this pair
            continue
        lo, hi = admissible_r_range(d, p)
        r = lo + float(rng.uniform(0.0, 0.999)) * (hi - lo)
        e = make_exponents(d, p, r)
        worst = max(worst, abs(1 / e.r - (e.p - 1) / e.s - e.p / e.d))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed <= 1.0
    report(3, "exponent identity x1000", ok,
           f"worst |1/r-(p-1)/s-p/d| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_transform_constants():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 6)
    h = from_callable(g, lambda x, y: 1 + x)
    k = from_callable(g, lambda x, y: 2 - y)
    a1, a2, b1, b2 = 0.7, 0.3, 1.1, 0.2
    worst = 0.0
    for eps in (0.5, 1.0, 2.0):
        for p in (1.5, 2.0, 3.0):
            c = Coupling(ex.parse("u"), ex.parse("v"), a1, a2, b1, b2, p)
            growth, (cf, cpf) = split_bound(c, h.values, k.values, eps)
            q = p - 1.0
            grow = (1 + eps) ** q
            lead = (1 + 1 / eps) ** q
            worst = max(
                worst,
                *(abs(growth * a - a * grow) for a in (a1, a2, b1, b2)),
                np.abs(
                    cf
                    - lead * (a1 * np.abs(h.values) ** q + a2 * np.abs(k.values) ** q)
                ).max(),
                np.abs(
                    cpf
                    - lead * (b1 * np.abs(k.values) ** q + b2 * np.abs(h.values) ** q)
                ).max(),
            )
    ok = worst <= 1e-14
    report(4, "transform constants", ok,
           f"worst deviation {worst:.2e} over eps x p grid")


@pytest.fixture(scope="module")
def certified_problem():
    """Criterion-5 configuration, shared with criterion 6.

    The criterion's exponent dimension is carried as the bookkeeping d = 3
    (p = 2.2 admits no r at d = 2); the grid stays 2-D.
    """
    t0 = time.perf_counter()
    g = Grid(2, (0.0, 0.3, 0.0, 0.3), 16)
    exps = make_exponents(3, 2.2, 1.25)
    c = power_family(0.5, 0.5, 0.5, 0.5, 2.2)
    h = constant_field(g, 1.0)
    prob = SystemProblem(g, exps, c, h, h, 1.0)
    cert = certify(prob, calibrate_C(g, exps, samples=16, seed=0), 16)
    return prob, cert, time.perf_counter() - t0


def test_criterion_5_ball_invariance(certified_problem):
    prob, cert, setup_time = certified_problem
    t0 = time.perf_counter()
    ball = check_ball_invariance(prob, cert, 1.1 * cert.M0, trials=100, seed=1)
    elapsed = setup_time + (time.perf_counter() - t0)
    ok = (
        cert.valid
        and cert.lam < 1.0
        and ball.trials == 100
        and len(ball.violations) == 0
        and elapsed <= 300.0
    )
    report(5, "certified ball invariance", ok,
           f"lambda {cert.lam:.3g}, M0 {cert.M0:.3g}, max output "
           f"{ball.max_output_norm:.3g} vs M {1.1 * cert.M0:.3g}, "
           f"{len(ball.violations)} violations, {elapsed:.1f}s")


def test_criterion_6_picard_end_to_end(certified_problem):
    prob, cert, _ = certified_problem
    w, trace = picard_solve(prob, tol=1e-7, max_iter=200)
    cls = weak_residuals(prob.grid, w, prob.coupling, prob.exponents.p, 1e-6)

    n = 12
    g = Grid(2, (0.0, 0.5, 0.0, 0.5), n)
    exps = make_exponents(3, 2.0, 1.3)
    lin = Coupling(ex.parse("u"), ex.parse("v"), 1.0, 0.0, 1.0, 0.0, 2.0)
    h = constant_field(g, 1.0)
    lp = SystemProblem(g, exps, lin, h, h, 1.0)
    lw, ltrace = picard_solve(lp, tol=1e-7, max_iter=200)
    A = stiffness_matrix(g).tocsr()
    I, B = g.interior, g.boundary
    M = sp.diags(g.lumped[I])
    oracle = spla.spsolve((A[I][:, I] + M).tocsc(), -A[I][:, B] @ np.ones(len(B)))
    disc = float(np.abs(lw[0, I] - oracle).max())

    ok = (
        trace.converged
        and trace.iterations <= 200
        and cls.verdict == "solution"
        and ltrace.converged
        and disc <= 1e-6
    )
    report(6, "picard end-to-end + linear oracle", ok,
           f"{trace.iterations} iterations, verdict {cls.verdict} at "
           f"{cls.max_abs_residual:.2e}, oracle discrepancy {disc:.2e}")


def test_criterion_7_constant_shift_comparison():
    # constructed example: p = 2, zero coupling
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    zc = Coupling(ex.parse("0"), ex.parse("0"), 0.0, 0.0, 0.0, 0.0, 2.0)
    u_sup = from_callable(g, lambda x, y: -x * x - y * y)
    u_sub = from_callable(g, lambda x, y: x * x + y * y)
    zero = constant_field(g, 0.0)
    outcomes = []
    for u, verdict in ((u_sup, "supersolution"), (u_sub, "subsolution")):
        base = weak_residuals(g, pair(u, zero), zc, 2.0)
        for alpha, beta in SHIFTS:
            rep = shift_test(g, pair(u, zero), base, zc, 2.0, alpha, beta)
            outcomes.append(rep.passed is True and base.verdict == verdict)

    # computed example: monotone phi = u with a constant source of each sign
    n = 12
    g2 = Grid(2, (0.0, 0.5, 0.0, 0.5), n)
    exps = make_exponents(3, 2.0, 1.3)
    mono = Coupling(ex.parse("u"), ex.parse("v"), 1.0, 0.0, 1.0, 0.0, 2.0)
    h = constant_field(g2, 1.0)
    pairs = {}
    for sign, label in ((-2.0, "sup"), (2.0, "sub")):
        shifted = Coupling(
            ex.parse(f"u+{sign!r}" if sign > 0 else f"u-{-sign!r}"),
            ex.parse(f"v+{sign!r}" if sign > 0 else f"v-{-sign!r}"),
            1.0, 0.0, 1.0, 0.0, 2.0,
        )
        sp_prob = SystemProblem(g2, exps, shifted, h, h, 1.0)
        pairs[label], trace = picard_solve(sp_prob, tol=1e-9)
        assert trace.converged

    base = weak_residuals(g2, pairs["sup"], mono, 2.0)
    assert base.verdict == "supersolution"
    for alpha, beta in SHIFTS:
        rep = shift_test(g2, pairs["sup"], base, mono, 2.0, alpha, beta)
        outcomes.append(
            rep.passed is True and rep.shifted_verdicts == [("up", "supersolution")]
        )
    base = weak_residuals(g2, pairs["sub"], mono, 2.0)
    assert base.verdict == "subsolution"
    for alpha, beta in SHIFTS:
        rep = shift_test(g2, pairs["sub"], base, mono, 2.0, alpha, beta)
        outcomes.append(
            rep.passed is True and rep.shifted_verdicts == [("down", "subsolution")]
        )

    ok = all(outcomes)
    report(7, "constant-shift comparison", ok,
           f"{sum(outcomes)}/{len(outcomes)} shift checks held over "
           f"alpha,beta in {SHIFTS}")


def test_criterion_8_hypothesis_falsification():
    cubic = Coupling(ex.parse("u*u*u"), ex.parse("0"), 1.0, 0.0, 0.0, 0.0, 2.0)
    unit = ((0.0, 1.0, 0.0, 1.0), (-10.0, 10.0), (-10.0, 10.0))
    excess = max(growth_excess(cubic, *unit)[0], 0.0)
    dec = Coupling(ex.parse("0-u"), ex.parse("0"), 1.0, 0.0, 0.0, 0.0, 2.0)
    violations = check_monotone(dec, *unit)
    ok = (
        excess > GROWTH_TOL
        and excess == pytest.approx(990.0, rel=1e-12)
        and violations > 0
    )
    report(8, "hypothesis falsification", ok,
           f"growth violation {excess:.6g} (u^3 vs linear "
           f"bound at |u|<=10), {violations} monotonicity "
           f"violations for phi=-u")
