"""Exponent bookkeeping, calibration, certificates, and the Picard loop."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import plapsys.expr as ex
import plapsys.fixpoint as fixpoint
import plapsys.plap as plap
from plapsys.coupling import Coupling, nemytskii, power_family, split_bound
from plapsys.field import Grid, ScalarField, lq_norm
from plapsys.fixpoint import (
    BallReport,
    Certificate,
    SolverAbort,
    SystemProblem,
    admissible_r_range,
    apply_lambda,
    calibrate_C,
    calibration_ratios,
    certify,
    check_ball_invariance,
    make_exponents,
    picard_solve,
    smooth_fields,
)
from plapsys.plap import (
    DEFAULT_TOL,
    PPoissonProblem,
    SolveReport,
    solve_p_poisson,
)
from plapsys.verify import weak_residuals

from p1_reference import stiffness_matrix
from stack_reference import (
    ball_check_trialwise,
    constant_field,
    from_callable,
    sample_smooth_field,
    scale_to_norm,
    smooth_field_einsum,
)


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


def pairs(*fields):
    """The stack (k, 2, n_nodes) of the source pairs (f, g) of fields f, g, ..."""
    return np.stack([w.values for w in fields]).reshape(len(fields) // 2, 2, -1)


def test_apply_lambda_affine_boundary():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    exps = make_exponents(3, 2.5, 1.15)
    h = from_callable(g, lambda x, y: 2 * x + 3 * y)
    prob = SystemProblem(g, exps, zero_coupling(2.5), h, h, 1.0)
    z = constant_field(g, 0.0)
    L, Y, _ = apply_lambda(prob, pairs(z, z))
    assert L.shape == Y.shape == (1, 2, g.n_nodes)
    assert np.abs(L[0] - h.values).max() <= 1e-8


def test_apply_lambda_symmetry():
    prob = small_problem()
    f = from_callable(prob.grid, lambda x, y: np.sin(x) * y)
    L, Y, _ = apply_lambda(prob, pairs(f, f))
    assert np.array_equal(L[0, 0], L[0, 1])
    assert np.array_equal(Y[0, 0], Y[0, 1])


def abort_problem():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 3)
    z = constant_field(g, 0.0)
    f = from_callable(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    return SystemProblem(g, make_exponents(3, 2.2, 1.25), zero_coupling(2.2), z, z, 1.0), f, z


def test_apply_lambda_abort_names_component():
    prob, f, z = abort_problem()
    # tol = 1e-300 is unreachable for a nonzero source, so the named side aborts
    with pytest.raises(SolverAbort) as err:
        apply_lambda(prob, pairs(f, z), tol=1e-300)
    assert err.value.component == "u"
    assert (err.value.p, err.value.n, err.value.stop_reason) == (2.2, 3, "max_iter")
    assert "u component did not converge (max_iter at p = 2.2, n = 3, gradient norm" in str(err.value)
    with pytest.raises(SolverAbort) as err:
        apply_lambda(prob, pairs(z, f), tol=1e-300)
    assert err.value.component == "v"


def test_apply_lambda_abort_names_first_failing_lift_of_a_stack():
    """Pair 0 is zero and converges at tol = 1e-300; pair 1's f is zero and
    its g fails, and pair 2's f and g fail too: the SolverAbort is that of
    pair 1's g, the first failure in pair order, u before v."""
    prob, f, z = abort_problem()
    f2 = ScalarField(prob.grid, 2.0 * f.values)
    with pytest.raises(SolverAbort) as err:
        apply_lambda(prob, pairs(z, z, z, f, f2, f2), tol=1e-300)
    lone = [solve_p_poisson(PPoissonProblem(prob.grid, 2.2, w, z), tol=1e-300) for w in (f, f2)]
    assert not lone[0].converged and not lone[1].converged
    assert err.value.component == "v"
    assert err.value.gradient_norm == lone[0].gradient_norm != lone[1].gradient_norm


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_apply_lambda_rejects_nonfinite_source_before_any_lift(monkeypatch, bad):
    """A non-finite value in the second pair's g raises ValueError before
    the first pair is lifted."""
    prob, f, z = abort_problem()
    X = pairs(f, f, f, f)
    X[1, 1, 5] = bad
    lifts = []
    monkeypatch.setattr(plap, "_newton", lambda *args: lifts.append(args))
    with pytest.raises(ValueError, match="finite"):
        apply_lambda(prob, X)
    assert lifts == []


def test_apply_lambda_rows_match_lone_pairs():
    """On a stack of three pairs, the lifted pairs and their coupling
    images are, bit for bit, each pair lifted alone and substituted into
    the coupling alone; phi and psi differ, and so do h and k."""
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    c = Coupling(ex.parse("0.3*odd_pow(u,1.2)+0.1*v"), ex.parse("0.2*u*v-x"), 1, 1, 1, 1, 2.2)
    h = from_callable(g, lambda x, y: 1.0 + x * y)
    k = from_callable(g, lambda x, y: 0.5 - x)
    prob = SystemProblem(g, make_exponents(3, 2.2, 1.25), c, h, k, 1.0)
    rng = np.random.default_rng(6)
    fields = [scale_to_norm(sample_smooth_field(g, rng), 1.25, a) for a in (1, 3, 10, 30, 100, 3)]
    L, Y, _ = apply_lambda(prob, pairs(*fields))
    assert L.shape == Y.shape == (3, 2, g.n_nodes)
    for i, (f, w) in enumerate(zip(fields[0::2], fields[1::2])):
        u, v = (
            solve_p_poisson(PPoissonProblem(g, 2.2, src, bc)).solution
            for src, bc in ((f, h), (w, k))
        )
        assert np.array_equal(L[i], np.stack([u.values, v.values]))
        phi, psi = nemytskii(c, u, v)
        assert np.array_equal(Y[i], np.stack([phi.values, psi.values]))


def test_apply_lambda_zero_coupling():
    prob = small_problem()
    probz = SystemProblem(
        prob.grid, prob.exponents, zero_coupling(2.2), prob.h, prob.k, 1.0
    )
    f = from_callable(prob.grid, lambda x, y: x * y)
    _, Y, _ = apply_lambda(probz, pairs(f, f))
    assert np.all(Y == 0.0)


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


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf, 1e-300, 1e300, 5e-324])
def test_problem_rejects_eps_whose_split_factors_overflow(eps):
    """eps must be positive with (1 + eps)^(p-1) and (1 + 1/eps)^(p-1)
    finite: at p = 2.2, 1e-300 and 1e300 overflow a float power, which
    split_bound would raise as an OverflowError in certify."""
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 4)
    z = constant_field(g, 1.0)
    with pytest.raises(ValueError, match=r"eps must be positive, with \(1 \+ eps\)\^\(p-1\)"):
        SystemProblem(g, make_exponents(3, 2.2, 1.25), zero_coupling(2.2), z, z, eps)
    for ok in (1e-200, 1e200):  # (1e200)^1.2 = 1e240
        prob = SystemProblem(g, make_exponents(3, 2.2, 1.25), zero_coupling(2.2), z, z, ok)
        growth, split = split_bound(prob.coupling, z.values, z.values, ok)
        assert math.isfinite(growth) and np.isfinite(split).all()


# ---------------------------------------------------------------------------
# calibration


def test_sample_smooth_field_seeded_and_boundary():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    a = sample_smooth_field(g, np.random.default_rng(5))
    b = sample_smooth_field(g, np.random.default_rng(5))
    assert np.array_equal(a.values, b.values)
    assert np.abs(a.values[g.boundary]).max() <= 1e-12
    assert np.abs(a.values).max() > 0.0


def test_smooth_fields_rows_match_einsum():
    """Each row of the separable sampler is the all-modes sum over every
    node within 1e-14, equals its block sampled alone bit for bit, and
    vanishes on the boundary."""
    g = Grid(2, (0.0, 0.3, -1.0, 0.7), 13)
    coeffs = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 8, 8))
    stack = smooth_fields(g, coeffs)
    assert stack.shape == (5, g.n_nodes)
    for row, c in zip(stack, coeffs):
        want = smooth_field_einsum(g, c)
        scale = np.abs(want).max()
        assert np.abs(row - want).max() <= 1e-14 * scale
        assert np.array_equal(row, smooth_fields(g, c[None])[0])
        assert np.abs(row[g.boundary]).max() <= 1e-14 * scale


def test_calibration_sources_match_draw_by_draw(monkeypatch):
    """calibrate_C draws its sources as one block of the rng stream: the
    same fields as drawing them one at a time, scaled to unit L^r norm."""
    g = Grid(2, (0.0, 0.3, 0.0, 0.3), 7)
    exps = make_exponents(3, 2.2, 1.25)
    stacks, lifted = [], []
    real_fields, real_batch = fixpoint.smooth_fields, fixpoint.solve_p_poisson_batch

    def fields_spy(grid, coeffs):
        out = real_fields(grid, coeffs)
        stacks.append(out.copy())
        return out

    def batch_spy(grid, p, F, H, **kwargs):
        lifted.extend(F.copy())
        return real_batch(grid, p, F, H, **kwargs)

    monkeypatch.setattr(fixpoint, "smooth_fields", fields_spy)
    monkeypatch.setattr(fixpoint, "solve_p_poisson_batch", batch_spy)
    calibrate_C(g, exps, samples=11, seed=8)
    monkeypatch.undo()
    rng = np.random.default_rng(8)
    lone = [sample_smooth_field(g, rng) for _ in range(11)]
    assert len(stacks) == 1
    assert np.array_equal(stacks[0], np.stack([w.values for w in lone]))
    for got, w in zip(lifted, lone, strict=True):
        want = scale_to_norm(w, exps.r, 1.0).values
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def ball_problem(n):
    """A coupling 100 times stronger than it declares, with zero boundary
    data, so M0 = 0 and at M = 1 some trials leave the ball."""
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), n)
    c = Coupling(ex.parse("100*u"), ex.parse("100*v"), 0.01, 0.01, 0.01, 0.01, 2.2)
    z = constant_field(g, 0.0)
    return SystemProblem(g, make_exponents(3, 2.2, 1.25), c, z, z, 1.0)


@pytest.mark.parametrize("n, trials, blocks", [(7, 30, [54, 6]), (16, 13, [12, 12, 2])])
def test_ball_check_matches_trialwise(monkeypatch, n, trials, blocks):
    """Blocks of one lift chunk's pairs, the last only partly filled, give
    the trial-by-trial check: the same draws f, g in the rng order, the
    same radii and violation indices, and output norms within 1e-14.  The
    chunk width is pinned, so the blocks keep their sizes."""
    monkeypatch.setattr(plap, "BATCH_NODES", 3500)
    prob = ball_problem(n)
    cert = certify(prob, C=0.1)
    assert cert.valid and cert.M0 == 0.0
    stacks = []
    real = fixpoint.smooth_fields

    def spy(grid, coeffs):
        out = real(grid, coeffs)
        stacks.append(out.copy())
        return out

    monkeypatch.setattr(fixpoint, "smooth_fields", spy)
    rep = check_ball_invariance(prob, cert, 1.0, trials=trials, seed=4)
    monkeypatch.undo()
    draws, radii, worst, violations = ball_check_trialwise(prob, 1.0, trials, 4, DEFAULT_TOL)
    assert [len(s) for s in stacks] == blocks
    assert np.array_equal(np.concatenate(stacks), np.stack(draws))
    assert 0 < len(violations) < trials
    assert [(i, radii[i]) for i, _, _ in rep.violations] == [v[:2] for v in violations]
    for got, want in zip(rep.violations, violations, strict=True):
        assert abs(got[2] - want[2]) <= 1e-14 * want[2]
    assert abs(rep.max_output_norm - worst) <= 1e-14 * worst


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
    r1 = calibration_ratios(g, exps, f.values[None])[0]
    r2 = calibration_ratios(g, exps, f2.values[None])[0]
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_calibration_ratios_match_lone_lifts():
    """Each ratio of a source stack is ||u_f||_s^(p-1) / ||f||_r of its
    row lifted alone with zero boundary data, bit for bit."""
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    exps = make_exponents(3, 2.2, 1.25)
    rng = np.random.default_rng(9)
    sources = [scale_to_norm(sample_smooth_field(g, rng), exps.r, a) for a in (0.5, 1.0, 4.0)]
    got = calibration_ratios(g, exps, np.stack([f.values for f in sources]))
    zero = constant_field(g, 0.0)
    want = [
        lq_norm(solve_p_poisson(PPoissonProblem(g, 2.2, f, zero)).solution, exps.s) ** (exps.p - 1.0)
        / lq_norm(f, exps.r)
        for f in sources
    ]
    assert got == want


def test_calibration_rejects_zero_source():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 4)
    exps = make_exponents(3, 2.0, 1.3)
    with pytest.raises(ValueError, match="nonzero"):
        calibration_ratios(g, exps, np.zeros((1, g.n_nodes)))


def test_calibration_rejects_zero_source_before_any_lift(monkeypatch):
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 4)
    exps = make_exponents(3, 2.0, 1.3)
    w = sample_smooth_field(g, np.random.default_rng(1)).values

    def no_lift(*args, **kwargs):
        raise AssertionError("a lift ran")

    monkeypatch.setattr(fixpoint, "solve_p_poisson_batch", no_lift)
    with pytest.raises(ValueError, match="nonzero"):
        calibration_ratios(g, exps, np.stack([w, np.zeros_like(w)]))


def test_calibration_abort_names_first_failing_source():
    """At tol = 1e-300 the first source reaches a zero gradient and
    converges, and the other two fail; the SolverAbort is that of the
    second source, the first that fails in source order, as a one-at-a-time
    calibration would raise it."""
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 3)
    exps = make_exponents(3, 2.2, 1.25)
    rng = np.random.default_rng(2)
    sources = [sample_smooth_field(g, rng) for _ in range(3)]
    with pytest.raises(SolverAbort) as err:
        calibration_ratios(g, exps, np.stack([f.values for f in sources]), tol=1e-300)
    zero = constant_field(g, 0.0)
    lone = [solve_p_poisson(PPoissonProblem(g, 2.2, f, zero), tol=1e-300) for f in sources]
    assert lone[0].converged and lone[0].gradient_norm == 0.0
    assert not lone[1].converged and not lone[2].converged
    assert err.value.component == "calibration"
    assert (err.value.stop_reason, err.value.n) == (lone[1].stop_reason, 3)
    assert err.value.gradient_norm == lone[1].gradient_norm != lone[2].gradient_norm


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
        scale_to_norm(sample_smooth_field(g, rng), exps.r, 1.0).values for _ in range(10)
    ]
    worst = max(calibration_ratios(g, exps, np.stack(sources)))
    assert calibrate_C(g, exps, samples=10, seed=0) == pytest.approx(
        2.0 * worst, rel=1e-12
    )


# ---------------------------------------------------------------------------
# certificate algebra


def split_problem(box, h, k):
    """p = 2, eps = 1: growth factor 2 and (c, c') = 2 (2 |h|, 1.2 |h|) for
    k = 0, so lambda = 4 C |Omega|^(2/3)."""
    g = Grid(2, box, 4)
    c = Coupling(ex.parse("0"), ex.parse("0"), 2.0, 0.0, 0.0, 1.2, 2.0)
    return SystemProblem(
        g, make_exponents(3, 2.0, 1.3), c, constant_field(g, h), constant_field(g, k), 1.0
    )


def test_smallness_lambda_value():
    """max a' = 4, C = 0.1 and |Omega|^(p/d) = 0.001^(2/3) = 0.01."""
    cert = certify(split_problem((0.0, 0.1, 0.0, 0.01), 0.0, 0.0), C=0.1)
    assert cert.lam == pytest.approx(0.004, rel=1e-15)


def test_ball_radius_value_and_guard():
    """On the unit square h = 0.125 gives ||c||_r = 0.5 and ||c'||_r = 0.3;
    C = 0.001 gives lambda = 0.004, and C = 0.25 gives lambda = 1, where
    no radius exists."""
    prob = split_problem(UNIT_BOX, 0.125, 0.0)
    assert certify(prob, C=0.001).M0 == pytest.approx(0.5 / 0.996, rel=1e-15)
    guard = certify(prob, C=0.25)
    assert guard.lam == 1.0 and not guard.valid and math.isnan(guard.M0)


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


def test_ball_invariance_abort_names_first_failing_lift(monkeypatch):
    """At tol = 1e-300 every lift of a nonzero source fails.  Trial 0 draws
    the zero pair and trial 1 a zero f, so the first failure is trial 1's v
    lift, though trial 2's u and v lifts fail too: the SolverAbort is the
    one a trial-by-trial check would raise, taking u before v."""
    prob = small_problem(n=3)
    cert = certify(prob, C=0.01)
    w = sample_smooth_field(prob.grid, np.random.default_rng(3)).values
    zero = np.zeros(prob.grid.n_nodes)
    draws = iter([zero, zero, zero, w, w, w])  # f and g of each trial in turn
    monkeypatch.setattr(
        fixpoint, "smooth_fields", lambda grid, coeffs: np.stack([next(draws) for _ in coeffs])
    )
    lifted = []
    real = fixpoint.solve_p_poisson_batch

    def spy(grid, p, F, H, **kwargs):
        lifted.extend(
            PPoissonProblem(grid, p, ScalarField(grid, f), ScalarField(grid, h))
            for f, h in zip(F, H)
        )
        return real(grid, p, F, H, **kwargs)

    monkeypatch.setattr(fixpoint, "solve_p_poisson_batch", spy)
    with pytest.raises(SolverAbort) as err:
        check_ball_invariance(prob, cert, cert.M0, trials=3, tol=1e-300)
    assert len(lifted) == 6
    assert err.value.component == "v"
    lone = [solve_p_poisson(q, tol=1e-300) for q in lifted]
    assert [rep.converged for rep in lone] == [True, True, True, False, False, False]
    assert err.value.gradient_norm == lone[3].gradient_norm != lone[4].gradient_norm
    assert err.value.stop_reason == lone[3].stop_reason


def test_ball_invariance_domain_error_names_global_trial(monkeypatch):
    """psi = 1/(1 - |sgn v|) is undefined wherever v != 0.  With zero
    boundary data only trial 7 draws a nonzero g, in the second block of
    6 pairs at n = 16: the domain error names row 7, its trial index."""
    base = ball_problem(16)
    c = Coupling(ex.parse("u"), ex.parse("1/(1-abs(sgn(v)))"), 0.01, 0.01, 0.01, 0.01, 2.2)
    prob = SystemProblem(base.grid, base.exponents, c, base.h, base.k, 1.0)
    cert = certify(prob, C=0.1)
    w = sample_smooth_field(prob.grid, np.random.default_rng(3)).values
    drawn = itertools.count()  # f and g of each trial in turn; trial 7's g is 15
    monkeypatch.setattr(
        fixpoint,
        "smooth_fields",
        lambda grid, coeffs: np.stack([w if next(drawn) == 15 else 0.0 * w for _ in coeffs]),
    )
    with pytest.raises(ex.EvaluationDomainError, match=r"quotient is not finite at row 7, node 18 "):
        check_ball_invariance(prob, cert, 1.0, trials=13)


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
    w, trace = picard_solve(prob)
    assert trace.converged
    assert (trace.stop_reason, trace.restarts) == ("converged", 0)
    assert trace.iterations == 1
    assert len(trace.rows) == 2
    direct = solve_p_poisson(
        PPoissonProblem(g, 2.0, constant_field(g, 0.0), h)
    ).solution
    assert np.array_equal(w[0], direct.values)
    assert np.array_equal(w[1], direct.values)


def test_picard_symmetric_problem():
    prob = small_problem(n=8)
    w, trace = picard_solve(prob)
    assert trace.converged
    assert np.array_equal(w[0], w[1])


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
    (u, v), trace = picard_solve(prob, tol=1e-10)
    assert trace.converged

    A = stiffness_matrix(g).tocsr()
    I = g.interior
    B = g.boundary
    M = sp.diags(g.lumped[I])
    rhs = -A[I][:, B] @ np.ones(len(B))
    u_int = spla.spsolve((A[I][:, I] + M).tocsc(), rhs)
    assert np.abs(u[I] - u_int).max() <= 1e-6
    assert np.array_equal(u, v)
    assert np.array_equal(u[B], np.ones(len(B)))


def test_picard_max_iter_exhaustion_is_reported():
    prob = small_problem(n=6)
    w, trace = picard_solve(prob, max_iter=1)
    assert not trace.converged
    assert trace.stop_reason == "max_iter"
    assert trace.iterations == 1
    assert len(trace.rows) == 2
    assert w.shape == (2, prob.grid.n_nodes)


def test_picard_max_iter_validation():
    prob = small_problem(n=6)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            picard_solve(prob, max_iter=bad)


def test_trace_csv_shape():
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 6)
    exps = make_exponents(3, 2.0, 1.3)
    z = constant_field(g, 0.0)
    prob = SystemProblem(g, exps, zero_coupling(), z, z, 1.0)
    _, trace = picard_solve(prob)
    lines = trace.csv_lines()
    assert lines[0] == "iter,norm_f,norm_g,delta,weak_residual,newton_u,newton_v,cg_u,cg_v,inner_tol"
    assert len(lines) == len(trace.rows) + 1
    for ln in lines[1:]:
        assert len(ln.split(",")) == 10


def test_picard_fixed_point_property():
    """At convergence the source pair reproduces itself through Lambda."""
    prob = small_problem(n=8)
    w, trace = picard_solve(prob, tol=1e-10)
    assert trace.converged
    phi_f, psi_f = nemytskii(prob.coupling, ScalarField(prob.grid, w[0]), ScalarField(prob.grid, w[1]))
    L, _, _ = apply_lambda(prob, pairs(phi_f, psi_f))
    assert np.abs(L[0, 0] - w[0]).max() <= 1e-7
    assert np.abs(L[0, 1] - w[1]).max() <= 1e-7


@pytest.mark.parametrize("mirrored", [False, True])
def test_trace_weak_residual_is_that_of_the_returned_pair(mirrored):
    """The final trace row carries the largest weak residual of the
    returned pair, and the trace its residual rows, bit for bit those of
    the classification of that pair; R1 holds
    it on one problem and R2 on its mirror image (u and v swapped)."""
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    phi, psi = "0.3*odd_pow(u,1.2)+0.1*v", "0.2*u*v-x"
    h = from_callable(g, lambda x, y: 1.0 + x * y)
    k = from_callable(g, lambda x, y: 0.5 - x)
    if mirrored:
        swap = str.maketrans("uv", "vu")
        phi, psi, h, k = psi.translate(swap), phi.translate(swap), k, h
    c = Coupling(ex.parse(phi), ex.parse(psi), 0.1, 0.1, 0.1, 0.1, 2.2)
    prob = SystemProblem(g, make_exponents(3, 2.2, 1.25), c, h, k, 1.0)
    w, trace = picard_solve(prob)
    cls = weak_residuals(g, w, c, 2.2, 1e-6)
    assert trace.rows[-1].weak_residual == cls.max_abs_residual
    assert np.array_equal(trace.residuals, np.stack([cls.R1, cls.R2]))
    assert (np.abs(cls.R2).max() > np.abs(cls.R1).max()) == mirrored


UNIT_BOX = (0.0, 1.0, 0.0, 1.0)  # with const = 8: the perfbench solve-picard problem


@pytest.mark.parametrize("a", [20.0, 40.0])
def test_picard_large_coupling_converges(a):
    """Beyond the smallness certificate (lambda > 1) the accelerated loop
    still converges to a solution; plain Picard aborted at a = 40."""
    prob = small_problem(n=16, box=UNIT_BOX, const=a)
    w, trace = picard_solve(prob)
    assert trace.converged
    cls = weak_residuals(prob.grid, w, prob.coupling, prob.exponents.p, 1e-6)
    assert cls.verdict == "solution"


def unit_box_problem(consts, n=32):
    """The perfbench solve-picard problem with the power coupling constants
    (a1, a2, b1, b2)."""
    g = Grid(2, UNIT_BOX, n)
    h = constant_field(g, 1.0)
    c = power_family(*consts, 2.2)
    return SystemProblem(g, make_exponents(3, 2.2, 1.25), c, h, h, 1.0)


def test_weak_residuals_of_the_returned_stack_are_the_trace_residuals():
    """picard_solve returns its final lift as one read-only (2, n_nodes)
    stack, and weak_residuals of that stack, which evaluates the coupling
    afresh, gives bit for bit the residual rows of the trace: the
    solve-picard problem at n = 16."""
    prob = unit_box_problem((8.0,) * 4, n=16)
    w, trace = picard_solve(prob)
    assert trace.converged
    assert w.shape == (2, prob.grid.n_nodes) and not w.flags.writeable
    cls = weak_residuals(prob.grid, w, prob.coupling, prob.exponents.p)
    assert np.array_equal(np.stack([cls.R1, cls.R2]), trace.residuals)


@pytest.mark.parametrize(
    "consts, stop_reason, iterations",
    [
        ((8.0,) * 4, "converged", 8),
        ((20.0,) * 4, "converged", 17),
        ((40.0,) * 4, "converged", 21),
        ((40.0, 20.0, 40.0, 10.0), "converged", 19),
        ((80.0,) * 4, "diverged", 7),
        ((320.0,) * 4, "diverged", 7),
    ],
)
def test_picard_stops_a_diverging_iteration_only(consts, stop_reason, iterations):
    """At a = 80 delta grows on every iteration after the first: three
    growths drop theta to 0.5 and three more stop the run as "diverged",
    where an inner lift of a far larger source used to run into max_iter.
    A diverged run returns the lift of its last iterate: at a = 320 a final
    lift of its sources (up to 1.3e9) at the solver tolerance runs into
    max_iter.  The couplings that converge grow on at most three iterations
    in a row and keep their iteration counts."""
    _, trace = picard_solve(unit_box_problem(consts))
    assert (trace.stop_reason, trace.iterations) == (stop_reason, iterations)
    if stop_reason == "diverged":
        deltas = [row.delta for row in trace.rows[:-1]]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert trace.theta_final == 0.5
        last = trace.rows[-1]
        assert (last.newton_u, last.newton_v, last.cg_u, last.cg_v) == (0, 0, 0, 0)


@pytest.mark.parametrize("a", [8.0, 40.0])
def test_picard_warm_inexact_lifts_agree_with_cold_exact_ones(monkeypatch, a):
    """Warm-started lifts at the inner tolerance of the trace (1e-4 first,
    then 1e-3 delta, down to the solver tolerance, which the final lift
    uses) reach the pair of cold lifts at the solver tolerance to 1e-6, in
    fewer Newton steps."""
    prob = unit_box_problem((a,) * 4)
    w, warm = picard_solve(prob)
    tols = [row.inner_tol for row in warm.rows]
    deltas = [math.inf] + [row.delta for row in warm.rows[:-2]]
    assert tols[:-1] == [max(DEFAULT_TOL, min(1e-4, 1e-3 * d)) for d in deltas]
    assert tols[-1] == DEFAULT_TOL

    real = fixpoint.apply_lambda
    monkeypatch.setattr(fixpoint, "INNER_TOL_MAX", DEFAULT_TOL)
    monkeypatch.setattr(
        fixpoint, "apply_lambda", lambda prob, X, tol, L0=None: real(prob, X, tol)
    )
    wc, cold = picard_solve(prob)
    assert {row.inner_tol for row in cold.rows} == {DEFAULT_TOL}
    assert warm.iterations == cold.iterations
    assert np.abs(w[0] - wc[0]).max() <= 1e-6
    assert np.abs(w[1] - wc[1]).max() <= 1e-6

    def newton(trace):
        return sum(row.newton_u + row.newton_v for row in trace.rows)

    assert newton(warm) < newton(cold)


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
        self.lifted = 0  # the stacks lifted without an abort
        self.previous = None
        monkeypatch.setattr(fixpoint, "apply_lambda", self)

    def __call__(self, prob, X, tol, first_row=0, L0=None):
        if self.previous is not None and not np.array_equal(X[0], self.previous):
            self.armed = True
        if self.armed and (self.every or self.aborts == 0):
            self.aborts += 1
            f = ScalarField(prob.grid, X[0, 0])
            report = SolveReport(f, 0, 0, 0, 1.0, "max_iter")
            raise SolverAbort("u", prob.exponents.p, prob.grid.n, report)
        L, Y, reports = self.real(prob, X, tol, first_row, L0)
        self.lifted += 1
        self.previous = Y[0].copy()
        return L, Y, reports


def test_picard_abort_on_extrapolated_pair_falls_back(monkeypatch):
    prob = small_problem(n=16, box=UNIT_BOX, const=8.0)
    patched = _AbortOnExtrapolation(monkeypatch)
    w, trace = picard_solve(prob)
    assert patched.aborts == 1
    assert trace.converged
    assert trace.restarts >= 1
    cls = weak_residuals(prob.grid, w, prob.coupling, prob.exponents.p, 1e-6)
    assert cls.verdict == "solution"


def test_picard_abort_on_damped_fallback_propagates(monkeypatch):
    prob = small_problem(n=16, box=UNIT_BOX, const=8.0)
    patched = _AbortOnExtrapolation(monkeypatch, every=True)
    with pytest.raises(SolverAbort) as err:
        picard_solve(prob)
    assert patched.aborts == 2  # the extrapolated lift and its damped fallback
    # both lifts belong to the iteration after the last one lifted
    it = patched.lifted + 1
    assert err.value.stage == f"Picard iteration {it}"
    want = f"u component did not converge in Picard iteration {it} (max_iter at p = 2.2, n = 16,"
    assert want in str(err.value)


def test_picard_abort_in_final_lift_names_it(monkeypatch):
    """An abort of the final lift names that lift, and its n is the
    grid's: the report it carries has no solution to read n from."""
    prob = small_problem(n=16, box=UNIT_BOX, const=8.0)
    real = fixpoint.apply_lambda
    calls = []

    def second_aborts(prob, X, tol, first_row=0, L0=None):
        calls.append(tol)
        if len(calls) == 2:
            report = SolveReport(None, 0, 0, 0, 1.0, "max_iter")
            raise SolverAbort("v", prob.exponents.p, prob.grid.n, report)
        return real(prob, X, tol, first_row, L0)

    monkeypatch.setattr(fixpoint, "apply_lambda", second_aborts)
    with pytest.raises(SolverAbort) as err:
        picard_solve(prob, max_iter=1)  # one iteration, then the final lift
    assert len(calls) == 2
    assert err.value.stage == "the final lift" and err.value.n == 16
    want = "v component did not converge in the final lift (max_iter at p = 2.2, n = 16,"
    assert want in str(err.value)
