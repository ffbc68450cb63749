"""Exponent bookkeeping, calibration, certificates, and the Picard loop."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import plapsys.expr as ex
import plapsys.fixpoint as fixpoint
from plapsys.coupling import Coupling, power_family
from plapsys.field import Grid, ScalarField, constant_field, from_callable, lq_norm
from plapsys.fixpoint import (
    BallReport,
    Certificate,
    SolverAbort,
    SystemProblem,
    admissible_r_range,
    apply_T,
    apply_lambda,
    ball_radius,
    calibrate_C,
    calibration_ratios,
    certify,
    check_ball_invariance,
    make_exponents,
    picard_solve,
    sample_smooth_field,
    scale_to_norm,
    smallness_lambda,
)
from plapsys.plap import PPoissonProblem, SolveReport, solve_p_poisson
from plapsys.verify import weak_residuals

from p1_reference import stiffness_matrix


def zero_coupling(p=2.0):
    return Coupling(ex.parse("0"), ex.parse("0"), 0.0, 0.0, 0.0, 0.0, p)


def small_problem(n=8, p=2.2, box=(0.0, 0.3, 0.0, 0.3), const=0.5, bc=1.0, r=1.25):
    g = Grid(2, box, n)
    exps = make_exponents(3, p, r)
    c = power_family(const, const, const, const, p)
    h = constant_field(g, bc)
    return SystemProblem(g, exps, c, h, h, 1.0)


# ---------------------------------------------------------------------------
# exponents


def test_make_exponents_reference_triple():
    e = make_exponents(3, 2.0, 1.3)
    assert e.p_prime == pytest.approx(2.0, abs=1e-15)
    assert e.s == pytest.approx(9.75, rel=1e-12)
    assert 1 / e.r - (e.p - 1) / e.s == pytest.approx(e.p / e.d, abs=1e-12)


def test_admissible_r_range_values():
    lo, hi = admissible_r_range(3, 2.0)
    assert lo == pytest.approx(1.2, abs=1e-15)
    assert hi == pytest.approx(1.5, abs=1e-15)


def test_make_exponents_singular_endpoint():
    # r = d/p makes the s-denominator vanish
    with pytest.raises(ValueError, match="admissible interval"):
        make_exponents(3, 2.0, 1.5)


def test_make_exponents_embedding_constraint():
    # d/p = 2.5 > p' = 2: no r is admissible in dimension 5 at p = 2
    for r in (1.0, 1.5, 2.0, 2.4):
        with pytest.raises(ValueError, match="d/p"):
            make_exponents(5, 2.0, r)


def test_make_exponents_validation():
    with pytest.raises(ValueError):
        make_exponents(1, 1.5, 1.0)
    with pytest.raises(ValueError):
        make_exponents(3.0, 2.0, 1.3)  # d must be an int
    with pytest.raises(ValueError):
        make_exponents(3, 3.0, 1.3)  # p >= d
    with pytest.raises(ValueError):
        make_exponents(3, 1.0, 1.3)
    with pytest.raises(ValueError):
        make_exponents(3, 2.0, 1.1)  # below the interval


def test_duality_identity_random_triples():
    """1/r - (p-1)/s = p/d over 1000 random admissible (d, p, r)."""
    rng = np.random.default_rng(3)
    count = 0
    while count < 1000:
        d = int(rng.integers(2, 7))
        p = float(rng.uniform(1.0 + 1e-3, d - 1e-3))
        if d * (p - 1.0) > p * p:  # d/p <= p' fails
            continue
        lo, hi = admissible_r_range(d, p)
        r = lo + float(rng.uniform(0.0, 0.999)) * (hi - lo)
        e = make_exponents(d, p, r)
        assert abs(1 / e.r - (e.p - 1) / e.s - e.p / e.d) <= 1e-12
        assert e.s > 0.0
        count += 1


# ---------------------------------------------------------------------------
# lift and composed map


def test_apply_T_affine_boundary():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    exps = make_exponents(3, 2.5, 1.15)
    h = from_callable(g, lambda x, y: 2 * x + 3 * y)
    prob = SystemProblem(g, exps, zero_coupling(2.5), h, h, 1.0)
    z = constant_field(g, 0.0)
    state = apply_T(prob, z, z)
    assert np.abs(state.u_f.values - h.values).max() <= 1e-8


def test_apply_T_symmetry():
    prob = small_problem()
    f = from_callable(prob.grid, lambda x, y: np.sin(x) * y)
    state = apply_T(prob, f, f)
    assert np.array_equal(state.u_f.values, state.v_g.values)


def test_apply_T_abort_names_component():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 3)
    exps = make_exponents(3, 2.2, 1.25)
    z = constant_field(g, 0.0)
    prob = SystemProblem(g, exps, zero_coupling(2.2), z, z, 1.0)
    f = from_callable(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    # tol = 1e-300 is unreachable for a nonzero source, so the named side aborts
    with pytest.raises(SolverAbort) as err:
        apply_T(prob, f, z, tol=1e-300)
    assert err.value.component == "u"
    assert (err.value.p, err.value.n, err.value.stop_reason) == (2.2, 3, "max_iter")
    assert "u component did not converge (max_iter at p = 2.2, n = 3, gradient norm" in str(err.value)
    with pytest.raises(SolverAbort) as err:
        apply_T(prob, z, f, tol=1e-300)
    assert err.value.component == "v"


def test_apply_lambda_zero_coupling():
    prob = small_problem()
    probz = SystemProblem(
        prob.grid, prob.exponents, zero_coupling(2.2), prob.h, prob.k, 1.0
    )
    f = from_callable(prob.grid, lambda x, y: x * y)
    phi_f, psi_f, _ = apply_lambda(probz, f, f)
    assert np.all(phi_f.values == 0.0)
    assert np.all(psi_f.values == 0.0)


def test_problem_validation():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 4)
    g2 = Grid(2, (0.0, 1.0, 0.0, 1.0), 4)
    exps = make_exponents(3, 2.0, 1.3)
    z = constant_field(g, 0.0)
    with pytest.raises(ValueError, match="grid"):
        SystemProblem(g, exps, zero_coupling(), constant_field(g2, 0.0), z, 1.0)
    with pytest.raises(ValueError, match="does not match"):
        SystemProblem(g, exps, zero_coupling(2.5), z, z, 1.0)
    with pytest.raises(ValueError, match="eps"):
        SystemProblem(g, exps, zero_coupling(), z, z, 0.0)
    with pytest.raises(ValueError, match="1-D|2-D"):
        g1 = Grid(1, (0.0, 1.0), 4)
        z1 = constant_field(g1, 0.0)
        SystemProblem(g1, exps, zero_coupling(), z1, z1, 1.0)


# ---------------------------------------------------------------------------
# calibration


def test_sample_smooth_field_seeded_and_boundary():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    a = sample_smooth_field(g, np.random.default_rng(5))
    b = sample_smooth_field(g, np.random.default_rng(5))
    assert np.array_equal(a.values, b.values)
    assert np.abs(a.values[g.boundary]).max() <= 1e-12
    assert np.abs(a.values).max() > 0.0


def test_scale_to_norm():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 6)
    w = from_callable(g, lambda x, y: x + y)
    scaled = scale_to_norm(w, 1.3, 2.5)
    assert lq_norm(scaled, 1.3) == pytest.approx(2.5, rel=1e-14)
    z = constant_field(g, 0.0)
    assert np.all(scale_to_norm(z, 2.0, 1.0).values == 0.0)


def test_calibration_ratio_scale_invariant():
    """The ratio is (p-1)-homogeneous in the lift, hence scale-free."""
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    exps = make_exponents(3, 2.0, 1.3)
    f = sample_smooth_field(g, np.random.default_rng(7))
    f2 = ScalarField(g, 2.0 * f.values)
    r1 = calibration_ratios(g, exps, [f])[0]
    r2 = calibration_ratios(g, exps, [f2])[0]
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_calibration_rejects_zero_source():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 4)
    exps = make_exponents(3, 2.0, 1.3)
    with pytest.raises(ValueError, match="nonzero"):
        calibration_ratios(g, exps, [constant_field(g, 0.0)])


def test_calibrate_C_deterministic_and_positive():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    exps = make_exponents(3, 2.0, 1.3)
    c1 = calibrate_C(g, exps, samples=10, seed=42)
    c2 = calibrate_C(g, exps, samples=10, seed=42)
    assert c1 == c2
    assert c1 > 0.0


def test_calibrate_C_sample_floor():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 4)
    exps = make_exponents(3, 2.0, 1.3)
    with pytest.raises(ValueError, match="at least 10"):
        calibrate_C(g, exps, samples=9)


def test_calibrate_C_is_twice_worst_ratio():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 6)
    exps = make_exponents(3, 2.0, 1.3)
    rng = np.random.default_rng(0)
    sources = [
        scale_to_norm(sample_smooth_field(g, rng), exps.r, 1.0) for _ in range(10)
    ]
    worst = max(calibration_ratios(g, exps, sources))
    assert calibrate_C(g, exps, samples=10, seed=0) == pytest.approx(
        2.0 * worst, rel=1e-12
    )


# ---------------------------------------------------------------------------
# certificate algebra


def test_smallness_lambda_value():
    assert smallness_lambda(4.0, 0.1, 0.01, 2.0, 2) == pytest.approx(0.004, rel=1e-15)


def test_ball_radius_value_and_guard():
    assert ball_radius(0.5, 0.3, 0.004) == pytest.approx(0.5 / 0.996, rel=1e-15)
    with pytest.raises(ValueError, match="lambda"):
        ball_radius(0.5, 0.3, 1.0)


def test_certify_zero_coupling():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 4)
    exps = make_exponents(3, 2.0, 1.3)
    z = constant_field(g, 0.0)
    prob = SystemProblem(g, exps, zero_coupling(), z, z, 1.0)
    cert = certify(prob, C=1.0, C_samples=10)
    assert cert.valid
    assert cert.lam == 0.0
    assert cert.M0 == 0.0


def test_certify_invalid_when_lambda_large():
    prob = small_problem()
    cert = certify(prob, C=1e6)
    assert not cert.valid
    assert cert.lam >= 1.0
    assert math.isnan(cert.M0)


def test_certify_rejects_bad_C():
    prob = small_problem()
    with pytest.raises(ValueError, match="C"):
        certify(prob, C=0.0)
    with pytest.raises(ValueError, match="C"):
        certify(prob, C=math.nan)


def test_lambda_scales_with_measure():
    """Same coupling and C on a box of 4x the area: lambda gains 4^(p/d)."""
    p, d = 2.2, 3
    small = small_problem(box=(0.0, 0.3, 0.0, 0.3))
    big = small_problem(box=(0.0, 0.6, 0.0, 0.6))
    cs = certify(small, C=0.01)
    cb = certify(big, C=0.01)
    assert cb.lam / cs.lam == pytest.approx(4.0 ** (p / d), rel=1e-12)


def test_certificate_text_keys():
    prob = small_problem()
    cert = certify(prob, C=0.02, C_samples=16)
    lines = cert.to_text().splitlines()
    assert lines[0].startswith("#")
    assert "empirical" in lines[0]
    keys = [ln.split(" = ")[0] for ln in lines[1:]]
    assert keys == [
        "d", "p", "r", "s", "p_prime", "C", "C_samples",
        "epsilon", "lambda", "M0", "valid",
    ]
    got = dict(ln.split(" = ") for ln in lines[1:])
    assert float(got["lambda"]) == cert.lam
    assert got["valid"] in ("true", "false")


# ---------------------------------------------------------------------------
# ball invariance


def test_ball_invariance_zero_coupling():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 6)
    exps = make_exponents(3, 2.0, 1.3)
    z = constant_field(g, 0.0)
    prob = SystemProblem(g, exps, zero_coupling(), z, z, 1.0)
    cert = certify(prob, C=1.0)
    rep = check_ball_invariance(prob, cert, M=1.0, trials=5, seed=1)
    assert rep.passed
    assert rep.max_output_norm == 0.0
    assert rep.trials == 5


def test_ball_invariance_small_problem():
    prob = small_problem(n=8)
    cert = certify(prob, C=calibrate_C(prob.grid, prob.exponents, samples=10, seed=0))
    assert cert.valid
    rep = check_ball_invariance(prob, cert, M=1.1 * cert.M0, trials=10, seed=3)
    assert rep.passed
    assert rep.max_output_norm <= 1.1 * cert.M0 * (1 + 1e-6)


def test_ball_invariance_guards():
    prob = small_problem(n=6)
    cert = certify(prob, C=0.02)
    assert cert.valid
    with pytest.raises(ValueError, match="below the certified radius"):
        check_ball_invariance(prob, cert, M=0.5 * cert.M0)
    with pytest.raises(ValueError, match="trials"):
        check_ball_invariance(prob, cert, M=cert.M0, trials=0)
    bad = certify(prob, C=1e9)
    with pytest.raises(ValueError, match="valid certificate"):
        check_ball_invariance(prob, bad, M=1.0)


def test_ball_invariance_seeded():
    prob = small_problem(n=6)
    cert = certify(prob, C=0.02)
    r1 = check_ball_invariance(prob, cert, M=cert.M0, trials=4, seed=9)
    r2 = check_ball_invariance(prob, cert, M=cert.M0, trials=4, seed=9)
    assert r1.max_output_norm == r2.max_output_norm


# ---------------------------------------------------------------------------
# Picard iteration


def test_picard_zero_coupling_single_iteration():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    exps = make_exponents(3, 2.0, 1.3)
    h = from_callable(g, lambda x, y: x + y)
    prob = SystemProblem(g, exps, zero_coupling(), h, h, 1.0)
    cert = certify(prob, C=1.0)
    u, v, trace = picard_solve(prob, cert)
    assert trace.converged
    assert (trace.stop_reason, trace.restarts) == ("converged", 0)
    assert trace.iterations == 1
    assert len(trace.rows) == 2
    direct = solve_p_poisson(
        PPoissonProblem(g, 2.0, constant_field(g, 0.0), h)
    ).solution
    assert np.array_equal(u.values, direct.values)
    assert np.array_equal(v.values, direct.values)


def test_picard_warns_without_certificate():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 4)
    exps = make_exponents(3, 2.0, 1.3)
    z = constant_field(g, 0.0)
    prob = SystemProblem(g, exps, zero_coupling(), z, z, 1.0)
    with pytest.warns(UserWarning, match="smallness"):
        picard_solve(prob, None)


def test_picard_warns_on_invalid_certificate():
    prob = small_problem(n=6)
    bad = certify(prob, C=1e9)
    with pytest.warns(UserWarning, match="invalid"):
        picard_solve(prob, bad, max_iter=3)


def test_picard_symmetric_problem():
    import warnings

    prob = small_problem(n=8)
    cert = certify(prob, C=calibrate_C(prob.grid, prob.exponents, samples=10, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a valid certificate must not warn
        u, v, trace = picard_solve(prob, cert)
    assert trace.converged
    assert np.array_equal(u.values, v.values)


def test_picard_decoupled_linear_matches_monolithic():
    """phi = u, psi = v at p = 2 decouple into -Delta u + u = 0, u = 1.

    The discrete equation at interior nodes is (A + M) u_I = -A_IB 1 with
    M the lumped mass diagonal, solvable monolithically.
    """
    n = 12
    g = Grid(2, (0.0, 0.5, 0.0, 0.5), n)
    exps = make_exponents(3, 2.0, 1.3)
    c = Coupling(ex.parse("u"), ex.parse("v"), 1.0, 0.0, 1.0, 0.0, 2.0)
    h = constant_field(g, 1.0)
    prob = SystemProblem(g, exps, c, h, h, 1.0)
    cert = certify(prob, C=calibrate_C(g, exps, samples=10, seed=0))
    assert cert.valid
    u, v, trace = picard_solve(prob, cert, tol=1e-10)
    assert trace.converged

    A = stiffness_matrix(g).tocsr()
    I = g.interior
    B = g.boundary
    M = sp.diags(g.lumped[I])
    rhs = -A[I][:, B] @ np.ones(len(B))
    u_int = spla.spsolve((A[I][:, I] + M).tocsc(), rhs)
    assert np.abs(u.values[I] - u_int).max() <= 1e-6
    assert np.array_equal(u.values, v.values)
    assert np.array_equal(u.values[B], np.ones(len(B)))


def test_picard_max_iter_exhaustion_is_reported():
    prob = small_problem(n=6)
    cert = certify(prob, C=0.02)
    u, v, trace = picard_solve(prob, cert, max_iter=1)
    assert not trace.converged
    assert trace.stop_reason == "max_iter"
    assert trace.iterations == 1
    assert len(trace.rows) == 2
    assert u.values.shape == (prob.grid.n_nodes,)


def test_picard_max_iter_validation():
    prob = small_problem(n=6)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            picard_solve(prob, None, max_iter=bad)


def test_picard_theta_validation():
    prob = small_problem(n=6)
    with pytest.raises(ValueError, match="theta"):
        picard_solve(prob, None, theta=0.0)
    with pytest.raises(ValueError, match="theta"):
        picard_solve(prob, None, theta=1.5)


def test_trace_csv_shape():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 6)
    exps = make_exponents(3, 2.0, 1.3)
    z = constant_field(g, 0.0)
    prob = SystemProblem(g, exps, zero_coupling(), z, z, 1.0)
    _, _, trace = picard_solve(prob, certify(prob, C=1.0))
    lines = trace.csv_lines()
    assert lines[0] == "iter,norm_f,norm_g,delta,weak_residual"
    assert len(lines) == len(trace.rows) + 1
    for ln in lines[1:]:
        assert len(ln.split(",")) == 5


def test_picard_fixed_point_property():
    """At convergence the source pair reproduces itself through Lambda."""
    prob = small_problem(n=8)
    cert = certify(prob, C=calibrate_C(prob.grid, prob.exponents, samples=10, seed=0))
    u, v, trace = picard_solve(prob, cert, tol=1e-10)
    assert trace.converged
    from plapsys.coupling import nemytskii

    phi_f, psi_f = nemytskii(prob.coupling, u, v)
    state = apply_T(prob, phi_f, psi_f)
    assert np.abs(state.u_f.values - u.values).max() <= 1e-7
    assert np.abs(state.v_g.values - v.values).max() <= 1e-7


UNIT_BOX = (0.0, 1.0, 0.0, 1.0)  # with const = 8: the perfbench solve-picard problem


@pytest.mark.parametrize("a", [20.0, 40.0])
def test_picard_large_coupling_converges(a):
    """Beyond the smallness certificate (lambda > 1) the accelerated loop
    still converges to a solution; plain Picard aborted at a = 40."""
    prob = small_problem(n=16, box=UNIT_BOX, const=a)
    with pytest.warns(UserWarning, match="smallness"):
        u, v, trace = picard_solve(prob, None)
    assert trace.converged
    cls = weak_residuals(u, v, prob.coupling, prob.exponents.p, 1e-6)
    assert cls.verdict == "solution"


class _AbortOnExtrapolation:
    """apply_lambda that raises SolverAbort on lifts of extrapolated pairs.

    At theta = 1 the damped step from (f, g) is exactly Lambda(f, g), so a
    pair that differs from the previous image is an Anderson extrapolation.
    With `every`, every lift from the first extrapolated one on aborts.
    """

    def __init__(self, monkeypatch, every=False):
        self.real = fixpoint.apply_lambda
        self.every = every
        self.armed = False
        self.aborts = 0
        self.previous = None
        monkeypatch.setattr(fixpoint, "apply_lambda", self)

    def __call__(self, prob, f, g, tol):
        pair = np.stack([f.values, g.values])
        if self.previous is not None and not np.array_equal(pair, self.previous):
            self.armed = True
        if self.armed and (self.every or self.aborts == 0):
            self.aborts += 1
            report = SolveReport(f, 0, 0, 0, 1.0, 1e-6, tol, False, "max_iter", [])
            raise SolverAbort("u", prob.exponents.p, report)
        phi_f, psi_f, state = self.real(prob, f, g, tol)
        self.previous = np.stack([phi_f.values, psi_f.values])
        return phi_f, psi_f, state


def test_picard_abort_on_extrapolated_pair_falls_back(monkeypatch):
    prob = small_problem(n=16, box=UNIT_BOX, const=8.0)
    cert = certify(prob, C=calibrate_C(prob.grid, prob.exponents, samples=10, seed=0))
    patched = _AbortOnExtrapolation(monkeypatch)
    u, v, trace = picard_solve(prob, cert)
    assert patched.aborts == 1
    assert trace.converged
    assert trace.restarts >= 1
    cls = weak_residuals(u, v, prob.coupling, prob.exponents.p, 1e-6)
    assert cls.verdict == "solution"


def test_picard_abort_on_damped_fallback_propagates(monkeypatch):
    prob = small_problem(n=16, box=UNIT_BOX, const=8.0)
    cert = certify(prob, C=calibrate_C(prob.grid, prob.exponents, samples=10, seed=0))
    patched = _AbortOnExtrapolation(monkeypatch, every=True)
    with pytest.raises(SolverAbort):
        picard_solve(prob, cert)
    assert patched.aborts == 2  # the extrapolated lift and its damped fallback
