"""Energy, assembly, and the p-Poisson solver."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import cg as scipy_cg

from plapsys import plap
from plapsys.field import Grid, ScalarField, element_gradients, lq_norms
from plapsys.fixpoint import SAMPLER_MODES, smooth_fields
from plapsys.plap import (
    PPoissonProblem,
    _energy_reg,
    _newton_system,
    _stencil_matvec,
    _stencil_offsets,
    harmonic_extension,
    residual_vector,
    solve_p_poisson,
    solve_p_poisson_batch,
)

import p1_reference as ref
from p1_reference import densify, newton_matrix, stiffness_matrix
from stack_reference import constant_field, from_callable, sample_smooth_field, scale_to_norm

N_VALUES = [1, 2, 3, 7, 16, 33]
P_VALUES = (1.2, 2.0, 2.2, 6.0)


def box_grid(n, side):
    """[0, 1] x [0, side] (hx != hy when side = 2)."""
    return Grid(2, (0.0, 1.0, 0.0, side), n)


def unit_square(n):
    return Grid(2, (0.0, 1.0, 0.0, 1.0), n)


def test_energy_zero():
    g = unit_square(4)
    zero = constant_field(g, 0.0)
    assert _energy_reg(g, zero.values, 2.0, zero.values, 0.0) == 0.0


def test_energy_linear_1d():
    # (1/2) * integral of |grad u|^2 for u = x on the unit square
    g = unit_square(10)
    u = from_callable(g, lambda x, y: x)
    f = constant_field(g, 0.0)
    assert _energy_reg(g, u.values, 2.0, f.values, 0.0) == pytest.approx(0.5, rel=1e-14)


def test_energy_constant_with_source():
    g = unit_square(5)
    c = 3.7
    u = constant_field(g, c)
    f = constant_field(g, 1.0)
    assert _energy_reg(g, u.values, 2.6, f.values, 0.0) == pytest.approx(c, rel=1e-14)


def test_problem_validation():
    g = unit_square(4)
    f = constant_field(g, 0.0)
    with pytest.raises(ValueError):
        PPoissonProblem(g, 1.0, f, f)  # p must exceed 1
    other = constant_field(unit_square(5), 0.0)
    with pytest.raises(ValueError):
        PPoissonProblem(g, 2.0, other, f)  # field on a different grid


def test_stiffness_is_symmetric():
    g = unit_square(4)
    A = stiffness_matrix(g).toarray()
    assert np.abs(A - A.T).max() == 0.0


@pytest.mark.parametrize("side", [1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
@pytest.mark.parametrize("dims", [1, 2])
def test_laplace_solve_inverts_interior_stiffness(dims, n, side):
    # dims = 1: an interior vector of x alone
    g = box_grid(n, side)
    I = g.interior
    K = stiffness_matrix(g).tocsr()[np.ix_(I, I)]
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, len(I)) if dims == 2 else ref.random_nodes(g, rng, 1)[I]
    assert np.abs(g.laplace_solve(K @ x) - x).max(initial=0.0) <= 1e-12


def test_harmonic_extension_matches_direct_solve():
    """The p = 2 minimizer with boundary values h and source f matches the
    assembled system solved by spsolve, for f = 0 (the 2-harmonic extension)
    and for a source, each row of a stack alone."""
    g = box_grid(9, 2.0)
    rng = np.random.default_rng(2)
    hv = rng.uniform(-1, 1, g.n_nodes)
    fv = rng.uniform(-5, 5, g.n_nodes)
    want = ref.p2_solve(g, hv, 0.0)
    ext = harmonic_extension(g, hv, 0.0)
    assert np.abs(ext - want).max() <= 1e-12
    assert np.array_equal(ext[g.boundary], hv[g.boundary])
    stack = harmonic_extension(g, np.stack([hv, hv]), np.stack([np.zeros_like(fv), fv]))
    assert np.array_equal(stack[0], ext)
    assert np.abs(stack[1] - ref.p2_solve(g, hv, fv)).max() <= 1e-12
    assert np.array_equal(stack[1], harmonic_extension(g, hv, fv))


@pytest.mark.parametrize("side", [1.0, 2.0])
@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("dims", [1, 2])
def test_newton_system_matches_coo_assembly(dims, n, side):
    # dims = 1: at u of x alone, where every y component of grad u is 0
    g = box_grid(n, side)
    u = ref.random_nodes(g, np.random.default_rng(n), dims)
    N = len(g.interior)
    offsets = _stencil_offsets(g)
    assert offsets == (() if N == 0 else (0,) if N == 1 else (0, 1, n - 1, n))
    for p in P_VALUES:
        for reg in (1e-8, 1e-2):
            D = _newton_system(g, u, p, reg)
            want = newton_matrix(g, u, p, reg).toarray()
            assert D.shape == (len(offsets), N)
            scale = np.abs(want).max(initial=0.0)
            assert np.abs(densify(D, offsets) - want).max(initial=0.0) <= 1e-12 * scale
            assert np.array_equal(_newton_system(g, u, p, reg), D)


def test_newton_system_needs_no_grid_cache():
    """The diagonals come from lattice slices: the grid keeps no slot map or
    local stiffness, the offsets follow from n, and each call returns
    a fresh array."""
    g = unit_square(6)
    rng = np.random.default_rng(3)
    D1 = _newton_system(g, rng.uniform(-1, 1, g.n_nodes), 3.0, 1e-8)
    D2 = _newton_system(g, rng.uniform(-1, 1, g.n_nodes), 1.5, 1e-8)
    assert not hasattr(g, "_newton_slots") and not hasattr(g, "_local_stiffness")
    assert _stencil_offsets(g) == (0, 1, 5, 6)
    assert not np.shares_memory(D1, D2)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 2.2, 3.0, 4.0, 6.0])
def test_shared_element_state_matches_standalone_calls(p):
    """One element pass serves the Newton gradient and Hessian of a stack:
    residual_vector leaves the state intact, _newton_system spends it, and
    both equal their standalone calls bit for bit.  The weights are those
    of base ** ((p - 2) / 2), numpy's scalar-exponent fast paths at p = 2,
    3, 4 and 6 (exponents 0, 0.5, 1, 2) included."""
    g = box_grid(7, 2.0)
    rng = np.random.default_rng(11)
    U = rng.uniform(-1, 1, (3, g.n_nodes))
    F = rng.uniform(-1, 1, (3, g.n_nodes))
    reg = plap.REG
    state = plap._element_state(g, U, p, reg)
    G2 = element_gradients(g, U)[1]
    want_W = (G2 + reg * reg) ** ((p - 2.0) / 2.0)
    want_W *= g.element_measure
    assert np.array_equal(state[2], want_W)
    kept = [a.copy() for a in state]
    res = residual_vector(g, U, p, F, reg, state)
    assert all(np.array_equal(a, b) for a, b in zip(state, kept, strict=True))
    assert np.array_equal(res, residual_vector(g, U, p, F, reg))
    D = _newton_system(g, U, p, reg, state)
    assert state == []
    assert np.array_equal(D, _newton_system(g, U, p, reg))


def _oracle_csr(g, u, p, reg):
    """The Newton matrix as CSR on the COO oracle's pattern, with the values
    of plap's diagonals, and those diagonals' offsets."""
    D = _newton_system(g, u, p, reg)
    offsets = _stencil_offsets(g)
    H = newton_matrix(g, u, p, reg)
    H.sort_indices()
    rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
    H.data = densify(D, offsets)[rows, H.indices]
    return H, D, offsets


@pytest.mark.parametrize("n", [1, 2, 7, 16])
@pytest.mark.parametrize("dims", [1, 2])
def test_stencil_matvec_matches_csr(dims, n):
    """The stencil product equals, bit for bit, the CSR product of the COO
    oracle's pattern filled with the same values, at u of x alone
    (dims = 1) and of both coordinates."""
    g = box_grid(n, 2.0)
    rng = np.random.default_rng(n)
    u = ref.random_nodes(g, rng, dims)
    for p in (1.5, 2.0, 4.0):
        H, D, offsets = _oracle_csr(g, u, p, 1e-8)
        for x in (rng.uniform(-1, 1, H.shape[0]), rng.standard_normal(H.shape[0]) * 1e3):
            assert np.array_equal(_stencil_matvec(D, offsets, x), H @ x)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_stencil_product_of_a_stack_is_rowwise(n):
    """The flat product of a stack equals the product of each row alone,
    bit for bit: a term that reaches into a neighbouring row meets a 0 of
    D."""
    g = box_grid(n, 2.0)
    rng = np.random.default_rng(n)
    U = rng.uniform(-1, 1, (4, g.n_nodes))
    D = _newton_system(g, U, 3.0, 1e-8)
    offsets = _stencil_offsets(g)
    X = rng.standard_normal((4, len(g.interior))) * 1e3
    Y = _stencil_matvec(D, offsets, X)
    for k in range(4):
        assert np.array_equal(Y[k], _stencil_matvec(D[:, k], offsets, X[k]))


def _run_both_cg(ours_A, ours_M, A, M, b, rtol):
    """(x, info, callbacks) of plap.cg on callables, as a batch of one, and
    of scipy's cg on the same operators."""
    counts = [0, 0]

    def counter(k):
        def cb(_):
            counts[k] += 1
        return cb

    def rowwise(op):
        return lambda z: np.stack([op(row) for row in z])

    x, info = plap.cg(
        rowwise(ours_A), b[None], rtol=rtol, M=rowwise(ours_M), callback=counter(0)
    )
    x = x[0]
    want, want_info = scipy_cg(A, b, rtol=rtol, atol=0.0, M=M, callback=counter(1))
    return (x, info, counts[0]), (want, want_info, counts[1])


@pytest.mark.parametrize("n", [16, 32])
def test_cg_matches_scipy_cg(n):
    """plap.cg repeats scipy's cg operation for operation: the Newton step's
    system (stencil against CSR, the scaled-Laplacian preconditioner), an
    exhausted maxiter and b = 0."""
    g = unit_square(n)
    rng = np.random.default_rng(n)
    H, D, offsets = _oracle_csr(g, rng.uniform(-1, 1, g.n_nodes), 2.5, 1e-8)
    s = np.sqrt(D[0])
    N = len(s)

    def precond(z):
        return g.laplace_solve(z / s) / s

    M = LinearOperator((N, N), matvec=precond, dtype=float)

    def stencil(z):
        return _stencil_matvec(D, offsets, z)

    b = rng.standard_normal(N)
    ours, theirs = _run_both_cg(stencil, precond, H, M, b, 1e-10)
    assert ours[1] == theirs[1] == 0
    assert np.array_equal(ours[0], theirs[0])
    assert ours[2] == theirs[2] > 0

    # an unreachable tolerance on an ill-conditioned system: all 10 N
    # iterations run, info = 10 N, and the iterates stay finite
    A = np.diag(np.geomspace(1.0, 1e12, 8))
    A[0, 1] = A[1, 0] = 0.5
    E = np.eye(8)
    ours, theirs = _run_both_cg(
        lambda z: A @ z, lambda z: E @ z, A, E, np.ones(8), 1e-300
    )
    assert ours[1] == theirs[1] == 80
    assert np.isfinite(ours[0]).all() and np.array_equal(ours[0], theirs[0])
    assert ours[2] == theirs[2] == 80

    # b = 0 is returned at once, without a callback
    ours, theirs = _run_both_cg(stencil, precond, H, M, np.zeros(N), 1e-10)
    assert ours[1] == theirs[1] == 0
    assert np.array_equal(ours[0], theirs[0]) and not ours[0].any()
    assert ours[2] == theirs[2] == 0


@pytest.mark.parametrize("dims", [1, 2])
def test_node_sums_match_add_at(dims):
    """Grid.lumped sums element values into nodes in element order, exactly
    as np.add.at does; residual_vector, summed from lattice slices, matches
    the np.add.at oracle to rounding, for u and f of x alone (dims = 1)
    and of both coordinates."""
    g = box_grid(9, 2.0)
    rng = np.random.default_rng(dims)
    u = ref.random_nodes(g, rng, dims)
    f = ref.random_nodes(g, rng, dims)
    lumped = np.zeros(g.n_nodes)
    np.add.at(lumped, g.elements, g.element_measure / 3)
    assert np.array_equal(g.lumped, lumped)
    for p, reg in ((1.5, 1e-8), (3.0, 0.0)):
        want = ref.residual(g, u, p, f, reg)
        scale = np.abs(want).max()
        assert np.abs(residual_vector(g, u, p, f, reg) - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("side", [1.0, 2.0])
@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("dims", [1, 2])
def test_residual_and_energy_match_oracle(dims, n, side):
    """The sliced residual and energy against the element-major oracle, at
    reg > 0 and at reg = 0 on a field with a flat patch (weight 0 there),
    for u and f of x alone (dims = 1) and of both coordinates, and
    bitwise repeatable."""
    g = box_grid(n, side)
    rng = np.random.default_rng(n)
    u = ref.random_nodes(g, rng, dims)
    # a flat patch, where grad u = 0: the first third of the nodes, or of x
    patch = np.arange(g.n_nodes) < g.n_nodes // 3 if dims == 2 else g.coords[:, 0] < 1 / 3
    u[patch] = 0.5
    f = ref.random_nodes(g, rng, dims)
    for p in P_VALUES:
        for reg in (0.0, 1e-8, 1e-2):
            res = residual_vector(g, u, p, f, reg)
            want = ref.residual(g, u, p, f, reg)
            assert np.abs(res - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(residual_vector(g, u, p, f, reg), res)
            e = _energy_reg(g, u, p, f, reg)
            scale = ref.energy(g, u, p, 0.0 * f, reg) + abs(np.dot(g.lumped * f, u))
            assert abs(e - ref.energy(g, u, p, f, reg)) <= 1e-12 * scale
            assert _energy_reg(g, u, p, f, reg) == e


def test_residual_matches_matrix_form_at_p2():
    # at p = 2 the flux is exactly the stiffness product
    g = unit_square(5)
    rng = np.random.default_rng(2)
    u = rng.uniform(-1, 1, g.n_nodes)
    f = rng.uniform(-1, 1, g.n_nodes)
    A = stiffness_matrix(g)
    res = residual_vector(g, u, 2.0, f, reg=0.0)
    assert np.allclose(res, A @ u + g.lumped * f, atol=1e-13)


def test_flux_of_constant_is_zero():
    # grad u = 0 everywhere: zero flux, including the zero extension of the
    # weight at reg = 0 and p < 2, where |grad u|^(p-2) itself is infinite
    g = unit_square(4)
    u = np.full(g.n_nodes, 5.0)
    zero = np.zeros(g.n_nodes)
    for p in (1.5, 2.0, 3.0):
        for reg in (0.0, 1e-8):
            assert np.all(residual_vector(g, u, p, zero, reg) == 0.0)


def test_residual_is_energy_gradient():
    """residual_vector . eta is the derivative of the regularized energy
    along eta (central difference), for p below and above 2."""
    g = unit_square(5)
    rng = np.random.default_rng(6)
    u = rng.uniform(-1, 1, g.n_nodes)
    f = rng.uniform(-1, 1, g.n_nodes)
    eta = rng.uniform(-1, 1, g.n_nodes)
    t = 1e-6
    for p in (1.5, 2.0, 3.0):
        res = residual_vector(g, u, p, f, 1e-3)
        up = _energy_reg(g, u + t * eta, p, f, 1e-3)
        down = _energy_reg(g, u - t * eta, p, f, 1e-3)
        assert res @ eta == pytest.approx((up - down) / (2 * t), rel=1e-6)


def test_solver_rejects_nonpositive_tol():
    g = unit_square(4)
    prob = PPoissonProblem(g, 2.0, constant_field(g, 1.0), constant_field(g, 0.0))
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            solve_p_poisson(prob, tol=tol)


def test_affine_data_reproduced_p2():
    g = unit_square(8)
    f = constant_field(g, 0.0)
    h = from_callable(g, lambda x, y: 2 * x + 3 * y)
    rep = solve_p_poisson(PPoissonProblem(g, 2.0, f, h))
    assert rep.converged
    assert np.abs(rep.solution.values - h.values).max() <= 1e-8


def test_constant_data_any_p():
    g = unit_square(6)
    f = constant_field(g, 0.0)
    for p in (1.5, 2.0, 3.5, 5.0):
        h = constant_field(g, 2.0)
        rep = solve_p_poisson(PPoissonProblem(g, p, f, h))
        assert rep.converged
        assert np.abs(rep.solution.values - 2.0).max() <= 1e-10


def test_harmonic_extension_matches_p2_solve():
    """A p = 2 lift starts at its minimizer, so it converges in 0 Newton
    steps, with or without a source."""
    g = unit_square(16)
    h = from_callable(g, lambda x, y: np.sin(x) + y * y)
    w = sample_smooth_field(g, np.random.default_rng(1))
    for a in (0.0, 3.0):
        f = scale_to_norm(w, 1.25, a)
        rep = solve_p_poisson(PPoissonProblem(g, 2.0, f, h))
        assert rep.converged and rep.iterations == rep.cg_iterations == 0
        assert np.array_equal(rep.solution.values, harmonic_extension(g, h.values, f.values))


def test_sinsin_manufactured_convergence():
    """p = 2 manufactured solution: error drops at second order."""
    errs = []
    for n in (16, 32):
        g = unit_square(n)
        f = from_callable(
            g, lambda x, y: -2 * math.pi**2 * np.sin(math.pi * x) * np.sin(math.pi * y)
        )
        rep = solve_p_poisson(PPoissonProblem(g, 2.0, f, constant_field(g, 0.0)))
        assert rep.converged
        exact = from_callable(g, lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y))
        errs.append(np.abs(rep.solution.values - exact.values).max())
    assert errs[1] <= errs[0] / 3.2  # order ~2


def test_1d_p3_closed_form():
    """Constant source at p = 3 against the symbolically integrated solution
    of x alone, which is also the boundary data."""
    g = unit_square(128)
    f = constant_field(g, 1.0)
    exact = from_callable(
        g, lambda x, y: (2 / 3) * (np.abs(x - 0.5) ** 1.5 - 0.5**1.5)
    )
    rep = solve_p_poisson(PPoissonProblem(g, 3.0, f, exact))
    assert rep.converged
    scale = np.abs(exact.values).max()
    assert np.abs(rep.solution.values - exact.values).max() / scale <= 1e-2


def spy_energy_history(monkeypatch):
    """The energy history of the lone lifts that follow: the energy of the
    start, then every energy that a line search accepts, in order."""
    history = []
    armijo = plap._armijo

    def spy(grid, u, p, f, reg, I, start, t, slope, current, floor, gnorm):
        out = armijo(grid, u, p, f, reg, I, start, t, slope, current, floor, gnorm)
        accepted, energy = out[:2]
        history.extend(energy[accepted].tolist())
        return out

    monkeypatch.setattr(plap, "_armijo", spy)
    return history


def test_energy_history_monotone(monkeypatch):
    history = spy_energy_history(monkeypatch)
    g = unit_square(12)
    f = from_callable(g, lambda x, y: np.sin(3 * x) * np.cos(2 * y))
    h = from_callable(g, lambda x, y: x * y)
    rep = solve_p_poisson(PPoissonProblem(g, 3.0, f, h))
    assert rep.converged
    hist = np.array(history)
    assert len(hist) == rep.iterations + 1
    assert np.all(np.diff(hist) <= 1e-12)


def test_discrete_maximum_principle_p2():
    g = unit_square(10)
    rng = np.random.default_rng(4)
    hv = np.zeros(g.n_nodes)
    hv[g.boundary] = rng.uniform(-1, 1, len(g.boundary))
    h = ScalarField(g, hv)
    rep = solve_p_poisson(PPoissonProblem(g, 2.0, constant_field(g, 0.0), h))
    lo, hi = hv[g.boundary].min(), hv[g.boundary].max()
    assert rep.solution.values.min() >= lo - 1e-9
    assert rep.solution.values.max() <= hi + 1e-9


def test_source_scaling_covariance():
    """Zero-boundary solutions scale as f -> a f, u -> a^(1/(p-1)) u."""
    g = unit_square(8)
    p = 2.5
    f = from_callable(g, lambda x, y: np.sin(math.pi * x) * np.sin(2 * math.pi * y))
    zero = constant_field(g, 0.0)
    a = 2.0
    u1 = solve_p_poisson(PPoissonProblem(g, p, f, zero), tol=1e-10).solution
    f2 = ScalarField(g, a * f.values)
    u2 = solve_p_poisson(PPoissonProblem(g, p, f2, zero), tol=1e-10).solution
    assert np.abs(u2.values - a ** (1 / (p - 1)) * u1.values).max() <= 1e-8


def test_converged_means_small_gradient():
    g = unit_square(10)
    f = from_callable(g, lambda x, y: x - y)
    rep = solve_p_poisson(PPoissonProblem(g, 2.0, f, constant_field(g, 0.0)), tol=1e-8)
    assert rep.converged
    assert rep.gradient_norm <= 1e-8
    res = residual_vector(g, rep.solution.values, 2.0, f.values, plap.REG)
    assert np.linalg.norm(res[g.interior]) <= 1e-8


def test_honest_non_convergence(monkeypatch):
    # a p = 3 solve cannot finish in one Newton step; no exception, flag down
    monkeypatch.setattr(plap, "MAX_ITER", 1)
    g = unit_square(8)
    f = constant_field(g, 1.0)
    rep = solve_p_poisson(PPoissonProblem(g, 3.0, f, constant_field(g, 0.0)))
    assert not rep.converged
    assert rep.stop_reason == "max_iter"
    assert rep.gradient_norm > 1e-8
    assert rep.iterations == 1


def test_stop_reason_converged():
    g = unit_square(8)
    f = from_callable(g, lambda x, y: np.sin(3 * x) * np.cos(2 * y))
    rep = solve_p_poisson(PPoissonProblem(g, 2.5, f, constant_field(g, 0.0)))
    assert rep.converged
    assert rep.stop_reason == "converged"


def test_stop_reason_stalled(monkeypatch):
    # no Armijo decrease along the Newton direction nor along -g: only the
    # start is accepted
    armijo = plap._armijo

    def no_decrease(grid, u, p, f, reg, I, start, t, slope, current, floor, gnorm):
        out = armijo(grid, u, p, f, reg, I, start, t, slope, current, floor, gnorm)
        return (start.copy(), *out[1:-1], np.zeros(len(u), dtype=bool))

    monkeypatch.setattr(plap, "_armijo", no_decrease)
    g = unit_square(8)
    f = constant_field(g, 1.0)
    rep = solve_p_poisson(PPoissonProblem(g, 3.0, f, constant_field(g, 0.0)))
    assert not rep.converged
    assert rep.stop_reason == "stalled"
    assert rep.iterations == 0
    assert rep.fallbacks == 1
    assert rep.gradient_norm > 1e-8


def test_armijo_roundoff_branch(monkeypatch):
    """A trial that fails the decrease test with an energy within round-off
    of the current one is accepted when its gradient norm, from the same
    pass, falls to at most (1 - 1e-4 t) of the current one: along the p = 2
    Newton direction, which scales the gradient by 1 - t, at every step of
    the halving, but not along its reverse, which multiplies it by 1 + t,
    nor once the energy rises above round-off."""
    g = unit_square(8)
    I = g.interior
    f = from_callable(g, lambda x, y: np.sin(3 * x) * np.cos(2 * y)).values
    u = harmonic_extension(g, from_callable(g, lambda x, y: 1 + x * y).values, 0.0)
    grad = np.take(residual_vector(g, u, 2.0, f, 1e-8), I)
    gnorm = np.sqrt(grad @ grad)
    D = _newton_system(g, u, 2.0, 1e-8)
    offsets = _stencil_offsets(g)
    delta, info = plap.cg(
        lambda z: _stencil_matvec(D, offsets, z[0])[None],
        -grad[None],
        rtol=1e-14,
        M=lambda z: z.copy(),
    )
    assert info == 0
    E = float(_energy_reg(g, u, 2.0, f, 1e-8))
    S = float(np.dot(g.lumped * f, u))
    floor = plap.ROUNDOFF * (abs(E - S) + abs(S))  # of the energy's two terms
    rise = [0.0]
    real = plap._energy_reg

    def flat(grid, trial, p, fv, reg, state):  # every trial's energy, E + rise
        real(grid, trial, p, fv, reg, state)
        return np.full(len(trial), E + rise[0])

    monkeypatch.setattr(plap, "_energy_reg", flat)
    directions = np.concatenate([delta, -delta])
    slopes = np.full(2, delta[0] @ grad)  # the test asks both rows for a decrease
    for r, want in ((0.5 * floor, [True, False]), (2.0 * floor, [False, False])):
        rise[0] = r
        for k in range(plap.ARMIJO_MAX_TRIALS):
            t = np.full(2, plap.ARMIJO_FACTOR**k)
            trials = np.stack([u, u])
            trials[:, I] += t[:, None] * directions
            ok, val, gt, gn, _, roundoff = plap._armijo(
                g, trials, 2.0, np.stack([f, f]), 1e-8, I, np.zeros(2, dtype=bool),
                t, slopes, np.full(2, E), np.full(2, floor), np.full(2, gnorm),
            )
            assert ok.tolist() == roundoff.tolist() == want
            assert val.tolist() == [E + r, E + r]
            assert np.array_equal(gt[0], np.take(residual_vector(g, trials[0], 2.0, f, 1e-8), I))
            assert gn[0] == np.sqrt(gt[0] @ gt[0])


def test_continuation_high_p():
    # p = 4.5 starts from the p = 2 minimizer with its source; still converges
    g = unit_square(8)
    f = from_callable(g, lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y))
    rep = solve_p_poisson(PPoissonProblem(g, 4.5, f, constant_field(g, 0.0)))
    assert rep.converged
    assert rep.gradient_norm <= 1e-8


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.5, 6.0])
def test_solver_converges_across_p(p, n):
    g = unit_square(n)
    f = from_callable(g, lambda x, y: np.sin(3 * x) * np.cos(2 * y))
    h = from_callable(g, lambda x, y: x * y)
    rep = solve_p_poisson(PPoissonProblem(g, p, f, h))
    assert rep.converged
    assert rep.gradient_norm <= 1e-8


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_cg_iterations_per_newton_step_flat_in_n(n):
    """The scaled-Laplacian preconditioner keeps CG per Newton step bounded
    as the mesh is refined at p near 2."""
    g = Grid(2, (0.0, 0.3, 0.0, 0.3), n)
    f = from_callable(g, lambda x, y: 5 * np.sin(10 * x) * np.cos(20 * y / 3))
    h = from_callable(g, lambda x, y: 1 + x * y)
    rep = solve_p_poisson(PPoissonProblem(g, 2.2, f, h))
    assert rep.converged
    assert rep.fallbacks == 0
    assert 0 < rep.cg_iterations <= 30 * rep.iterations


def test_failed_cg_falls_back_to_steepest_descent(monkeypatch):
    def failing_cg(A, b, *, rtol, M, callback):
        return np.zeros_like(b), 1  # no iteration taken, no descent direction

    monkeypatch.setattr(plap, "cg", failing_cg)
    monkeypatch.setattr(plap, "MAX_ITER", 3)
    history = spy_energy_history(monkeypatch)
    g = unit_square(6)
    f = constant_field(g, 1.0)
    rep = solve_p_poisson(PPoissonProblem(g, 3.0, f, constant_field(g, 0.0)))
    assert rep.iterations == 3
    assert rep.fallbacks == 3
    assert rep.cg_iterations == 0
    assert np.all(np.diff(history) < 0.0)


def test_low_p_solve():
    g = unit_square(8)
    f = constant_field(g, 1.0)
    rep = solve_p_poisson(PPoissonProblem(g, 1.2, f, constant_field(g, 0.0)))
    assert rep.converged


def test_solution_attains_boundary_exactly():
    g = unit_square(6)
    h = from_callable(g, lambda x, y: x * x - y)
    f = constant_field(g, 1.0)
    rep = solve_p_poisson(PPoissonProblem(g, 2.5, f, h))
    assert np.array_equal(rep.solution.values[g.boundary], h.values[g.boundary])


# ---------------------------------------------------------------------------
# batches


REPORT_COUNTERS = (
    "iterations",
    "cg_iterations",
    "fallbacks",
    "stop_reason",
    "converged",
    "line_search_evals",
    "roundoff_steps",
)


def mixed_members(g, p, dims=2):
    """A zero source with zero data (converged at step 0), affine data
    without a source, and smooth sources of L^1.25 norm 0.3, 3 and 30 with
    the data 1 + x y; with dims = 1, data and sources of x alone: affine
    data 2 x + 1, sources x (1 - x) and the data 1 + x / 2."""
    zero = constant_field(g, 0.0)
    if dims == 1:
        affine = from_callable(g, lambda x, y: 2 * x + 1)
        h = from_callable(g, lambda x, y: 1 + 0.5 * x)
        w = from_callable(g, lambda x, y: x * (1 - x))  # 0 when n = 1
    else:
        affine = from_callable(g, lambda x, y: 2 * x + 3 * y)
        h = from_callable(g, lambda x, y: 1 + x * y)
        w = sample_smooth_field(g, np.random.default_rng(g.n))  # 0 when n = 1
    sources = [scale_to_norm(w, 1.25, a) for a in (0.3, 3.0, 30.0)]
    return [PPoissonProblem(g, p, zero, zero), PPoissonProblem(g, p, zero, affine)] + [
        PPoissonProblem(g, p, s, h) for s in sources
    ]


def batch_lift(problems):
    """The solutions U and the reports of solve_p_poisson_batch on the
    stacked sources and boundary data of problems on one grid at one p."""
    first = problems[0]
    F = np.stack([prob.f.values for prob in problems])
    H = np.stack([prob.h.values for prob in problems])
    return solve_p_poisson_batch(first.grid, first.p, F, H)


def assert_match_lone_lifts(problems, U, reports):
    """Each report of a batch equals that of its problem lifted alone, and
    each row of U that problem's solution."""
    assert len(reports) == len(problems) == len(U)
    for prob, row, rep in zip(problems, U, reports):
        lone = solve_p_poisson(prob)
        for name in REPORT_COUNTERS:
            assert getattr(rep, name) == getattr(lone, name), name
        scale = max(1.0, np.abs(lone.solution.values).max())
        assert np.abs(row - lone.solution.values).max() <= 1e-14 * scale


@pytest.mark.parametrize("p", [1.2, 2.2, 6.0])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("dims", [1, 2])
def test_batch_members_match_lone_lifts(dims, n, p):
    g = unit_square(n)
    problems = mixed_members(g, p, dims)
    U, reports = batch_lift(problems)
    assert_match_lone_lifts(problems, U, reports)
    assert reports[0].stop_reason == "converged" and reports[0].iterations == 0
    assert all(rep.converged for rep in reports)


@pytest.mark.parametrize("dims", [1, 2])
def test_batch_max_iter_stops_members_beside_converged_ones(dims, monkeypatch):
    monkeypatch.setattr(plap, "MAX_ITER", 1)
    g = unit_square(7)
    problems = mixed_members(g, 2.2, dims)
    U, reports = batch_lift(problems)
    assert_match_lone_lifts(problems, U, reports)
    reasons = [rep.stop_reason for rep in reports]
    assert reasons == ["converged", "converged", "max_iter", "max_iter", "max_iter"]
    assert [rep.iterations for rep in reports] == [0, 0, 1, 1, 1]


def test_batch_longer_than_a_chunk(monkeypatch):
    """Five members at two per chunk run as chunks of 2, 2 and 1, each
    member as it runs alone."""
    g = unit_square(7)
    monkeypatch.setattr(plap, "BATCH_NODES", 2 * g.n_nodes + 1)
    chunks = []
    real = plap.harmonic_extension

    def spy(grid, h, f):
        chunks.append(len(h))
        return real(grid, h, f)

    monkeypatch.setattr(plap, "harmonic_extension", spy)
    problems = mixed_members(g, 2.2)
    U, reports = batch_lift(problems)
    assert chunks == [2, 2, 1]
    assert_match_lone_lifts(problems, U, reports)


# element arrays (2 n^2 float64) per row that one lift may hold at once;
# the lift measures 9.2 (each row keeps a search direction and a copy of
# its evaluated point), and a step that kept the spent Hessian, all
# seven of its diagonals and two element passes' buffers measured 15.4
ELEMENT_ARRAYS_PER_ROW = 10


def test_lift_memory_per_row(monkeypatch):
    """One lift of 36 rows at n = 16, with the box, exponent and boundary
    data of certify-n16.cfg and smooth sources of unit L^1.25 norm, peaks
    under tracemalloc at most ELEMENT_ARRAYS_PER_ROW element arrays per
    row, U included, so a wider chunk costs memory in proportion."""
    g = Grid(2, (0.0, 0.3, 0.0, 0.3), 16)
    B = 36
    rng = np.random.default_rng(3)
    F = smooth_fields(g, rng.uniform(-1, 1, (B, SAMPLER_MODES, SAMPLER_MODES)))
    F /= lq_norms(g, F, 1.25)[:, None]
    H = np.ones_like(F)
    monkeypatch.setattr(plap, "BATCH_NODES", B * g.n_nodes)
    solve_p_poisson_batch(g, 2.2, F, H)  # the grid's caches, outside the trace
    tracemalloc.start()
    try:
        _, reports = solve_p_poisson_batch(g, 2.2, F, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.converged for rep in reports)
    element_array = 2 * g.n * g.n * 8
    assert peak <= ELEMENT_ARRAYS_PER_ROW * element_array * B


@pytest.mark.parametrize(
    "p, F_shape, H_shape, bad, match",
    [
        (1.0, (3, 25), (3, 25), None, "p must be > 1"),
        (0.5, (3, 25), (3, 25), None, "p must be > 1"),
        (2.2, (3, 25), (2, 25), None, "must be \\(B, 25\\)"),
        (2.2, (3, 24), (3, 24), None, "must be \\(B, 25\\)"),
        (2.2, (3, 25), (2, 3, 25), None, "must be \\(B, 25\\)"),
        (2.2, (3, 25), (3, 25), ("F", math.nan), "finite"),
        (2.2, (3, 25), (3, 25), ("F", math.inf), "finite"),
        (2.2, (3, 25), (3, 25), ("H", math.nan), "finite"),
        (2.2, (3, 25), (3, 25), ("H", -math.inf), "finite"),
        (2.2, (3, 25), (3, 1), None, "must be \\(B, 25\\)"),
        (2.2, (3, 25), (), None, "must be \\(B, 25\\)"),
    ],
)
def test_batch_rejects_bad_stacks_before_any_lift(monkeypatch, p, F_shape, H_shape, bad, match):
    """p <= 1, an H that does not broadcast to the shape of F, an F or H
    whose last axis is not the node count, and a non-finite value in F or
    in H each raise ValueError before any lift."""
    g = unit_square(4)  # 25 nodes
    F, H = np.ones(F_shape), np.ones(H_shape)
    if bad is not None:
        {"F": F, "H": H}[bad[0]][1, 7] = bad[1]

    def no_lift(*args):
        raise AssertionError("a lift ran")

    monkeypatch.setattr(plap, "harmonic_extension", no_lift)
    monkeypatch.setattr(plap, "_newton", no_lift)
    with pytest.raises(ValueError, match=match):
        solve_p_poisson_batch(g, p, F, H)


@pytest.mark.parametrize("n", [7, 16])
def test_stacked_lift_equals_the_flat_lift_of_tiled_rows(monkeypatch, n):
    """Sources (k, 2, n_nodes) lifted with one boundary pair (2, n_nodes),
    cold and from a start stack, give bit for bit the solutions and the
    reports of the flat lift of the 2k rows with the pair tiled, in C
    order, over chunks of 3 rows that split pairs."""
    g = Grid(2, (0.0, 0.3, 0.0, 0.3), n)
    monkeypatch.setattr(plap, "BATCH_NODES", 3 * g.n_nodes)
    k = 4
    rng = np.random.default_rng(n)
    F = smooth_fields(g, rng.uniform(-1, 1, (2 * k, SAMPLER_MODES, SAMPLER_MODES)))
    F *= (np.logspace(-1, 1, 2 * k) / lq_norms(g, F, 1.25))[:, None]
    x, y = g.coords[:, 0], g.coords[:, 1]
    hk = np.stack([1.0 + x * y, 2.0 - x])
    H = np.tile(hk, (k, 1))
    flat, flat_reports = solve_p_poisson_batch(g, 2.2, F, H)
    U, reports = solve_p_poisson_batch(g, 2.2, F.reshape(k, 2, g.n_nodes), hk)
    assert U.shape == (k, 2, g.n_nodes) and not U.flags.writeable
    assert np.array_equal(U.reshape(flat.shape), flat) and reports == flat_reports
    U0 = U + 0.01 * np.sin(7.0 * x)
    flat, flat_reports = solve_p_poisson_batch(g, 2.2, F, H, U0=U0.reshape(flat.shape))
    U, reports = solve_p_poisson_batch(g, 2.2, F.reshape(U.shape), hk, U0=U0)
    assert np.array_equal(U.reshape(flat.shape), flat) and reports == flat_reports
    assert all(rep.iterations > 0 for rep in reports)


@pytest.mark.parametrize(
    "U0_shape, bad",
    [((2, 25), None), ((3, 24), None), ((25,), None), ((3, 25), math.nan), ((3, 25), -math.inf)],
)
def test_batch_rejects_bad_start_before_any_lift(monkeypatch, U0_shape, bad):
    """A start stack U0 of another shape than F, or with a non-finite value,
    raises ValueError before any lift."""
    g = unit_square(4)  # 25 nodes
    F = H = np.ones((3, 25))
    U0 = np.ones(U0_shape)
    if bad is not None:
        U0[1, 7] = bad

    def no_lift(*args):
        raise AssertionError("a lift ran")

    monkeypatch.setattr(plap, "harmonic_extension", no_lift)
    monkeypatch.setattr(plap, "_newton", no_lift)
    with pytest.raises(ValueError, match="U0"):
        solve_p_poisson_batch(g, 2.2, F, H, U0=U0)


@pytest.mark.parametrize("boundary_shift", [0.0, 5.0])
@pytest.mark.parametrize("dims", [1, 2])
def test_batch_started_at_its_solution_takes_no_step(monkeypatch, dims, boundary_shift):
    """A stack started from its own converged solution stops after 0 Newton
    steps, with that solution and no harmonic extension: U0 gives the
    interior values only, so boundary values shifted in U0 are replaced by
    those of H."""
    g = unit_square(7)
    problems = mixed_members(g, 2.2, dims)
    F = np.stack([prob.f.values for prob in problems])
    H = np.stack([prob.h.values for prob in problems])
    U, _ = solve_p_poisson_batch(g, 2.2, F, H)
    U0 = U.copy()
    U0[:, g.boundary] += boundary_shift

    def no_extension(*args):
        raise AssertionError("a harmonic extension ran")

    monkeypatch.setattr(plap, "harmonic_extension", no_extension)
    warm, reports = solve_p_poisson_batch(g, 2.2, F, H, U0=U0)
    assert [(rep.stop_reason, rep.iterations, rep.cg_iterations) for rep in reports] == [
        ("converged", 0, 0)
    ] * len(F)
    assert np.array_equal(warm, U)


def test_batch_stack_contract():
    """tol must be positive; an empty stack gives an empty U and no
    reports; U is read-only."""
    g = unit_square(4)
    zero = np.zeros((1, g.n_nodes))
    with pytest.raises(ValueError, match="tol"):
        solve_p_poisson_batch(g, 2.2, zero, zero, tol=0.0)
    U, reports = solve_p_poisson_batch(g, 2.2, np.zeros((0, g.n_nodes)), np.zeros((0, g.n_nodes)))
    assert U.shape == (0, g.n_nodes) and reports == []
    problems = mixed_members(g, 2.2)
    F = np.stack([prob.f.values for prob in problems])
    H = np.stack([prob.h.values for prob in problems])
    U, reports = solve_p_poisson_batch(g, 2.2, F, H)
    assert U.shape == F.shape and len(reports) == len(F)
    assert not U.flags.writeable
    with pytest.raises(ValueError):
        U[0, 0] = 1.0


def test_batch_reports_hold_no_field_and_the_adapter_sets_its_solution():
    """A batch report holds counters and a stop reason only: its solution
    is None.  solve_p_poisson, the benchmark's adapter, sets its report's
    solution to the field of the row that the batch lift of its problem
    returns."""
    g = unit_square(4)
    problems = mixed_members(g, 2.2)
    _, reports = batch_lift(problems)
    assert all(rep.solution is None for rep in reports)
    for prob in problems:
        (row,), _ = solve_p_poisson_batch(g, 2.2, prob.f.values[None], prob.h.values[None])
        assert np.array_equal(solve_p_poisson(prob).solution.values, row)


def test_cg_rows_run_as_lone_solves():
    """Each row of a batched cg takes the operations and iterations of a
    one-row solve: a zero row returns 0 without iterating, and a row that
    exhausts maxiter beside converging rows is the one that took info
    iterations."""
    rng = np.random.default_rng(5)
    N = 8
    mats = []
    for k in range(4):
        A = np.diag(rng.uniform(1.0, 10.0 ** (2 * k), N))
        A[0, 1] = A[1, 0] = 0.5
        mats.append(A)
    b = rng.standard_normal((4, N))
    b[1] = 0.0
    counts = np.zeros(4, dtype=int)

    def count(rows):
        counts[rows] += 1

    def apply(z):
        return np.stack([A @ row for A, row in zip(mats, z)])

    x, info = plap.cg(apply, b, rtol=1e-10, M=lambda z: z.copy(), callback=count)
    assert info == 0
    for k in range(4):
        lone_counts = [0]

        def lone_count(rows):
            lone_counts[0] += 1

        lone, lone_info = plap.cg(
            lambda z: (mats[k] @ z[0])[None],
            b[k : k + 1],
            rtol=1e-10,
            M=lambda z: z.copy(),
            callback=lone_count,
        )
        assert lone_info == 0
        assert np.array_equal(x[k], lone[0])
        assert counts[k] == lone_counts[0]
    assert counts[1] == 0 and not x[1].any()

    # the ill-conditioned row 3 cannot reach 1e-300; the others stop at 0
    counts[:] = 0
    b[1] = 0.0
    x, info = plap.cg(apply, b, rtol=1e-300, M=lambda z: z.copy(), callback=count)
    assert info == 10 * N
    assert counts[3] == info and counts[1] == 0


def test_cg_freezes_an_exactly_converged_row():
    """A row whose residual is exactly 0 after one step (the identity, from
    which alpha = 1) freezes beside rows that go on: its ratios 0/0 are not
    formed, so no RuntimeWarning is raised, every row equals its lone
    solve bit for bit, and the callback lists the frozen row once."""
    rng = np.random.default_rng(11)
    N = 8
    mats = [np.eye(N)]
    for k in range(2):
        A = np.diag(rng.uniform(1.0, 100.0, N))
        A[0, 1] = A[1, 0] = 0.5
        mats.append(A)
    b = rng.standard_normal((3, N))
    listed = []

    def apply(z):
        return np.stack([A @ row for A, row in zip(mats, z)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, info = plap.cg(
            apply, b, rtol=1e-12, M=lambda z: z.copy(), callback=lambda rows: listed.append(rows)
        )
    assert info == 0
    assert np.array_equal(x[0], b[0])
    assert sum(0 in rows for rows in listed) == 1
    assert len(listed) > 1 and all(np.array_equal(rows, [1, 2]) for rows in listed[1:])
    for k in range(3):
        lone, lone_info = plap.cg(
            lambda z: (mats[k] @ z[0])[None], b[k : k + 1], rtol=1e-12, M=lambda z: z.copy()
        )
        assert lone_info == 0
        assert np.array_equal(x[k], lone[0])


def test_cg_per_row_rtol_matches_scipy_cg():
    """With one rtol per row, each row of a batched cg is, bit for bit,
    scipy's cg on that row's system alone with that row's rtol."""
    g = unit_square(16)
    rng = np.random.default_rng(7)
    U = rng.uniform(-1, 1, (3, g.n_nodes))
    rtols = np.array([1e-1, 1e-10, 1e-4])
    D = _newton_system(g, U, 2.5, 1e-8)
    offsets = _stencil_offsets(g)
    s = np.sqrt(D[0])
    b = rng.standard_normal((3, len(g.interior)))
    counts = np.zeros(3, dtype=int)

    def count(rows):
        counts[rows] += 1

    x, info = plap.cg(
        lambda z: _stencil_matvec(D, offsets, z),
        b,
        rtol=rtols,
        M=lambda z: g.laplace_solve(z / s) / s,
        callback=count,
    )
    assert info == 0
    for k in range(3):
        H, _, _ = _oracle_csr(g, U[k], 2.5, 1e-8)
        N = H.shape[0]
        M = LinearOperator((N, N), matvec=lambda z: g.laplace_solve(z / s[k]) / s[k], dtype=float)
        lone_count = [0]

        def lone_cb(_):
            lone_count[0] += 1

        want, want_info = scipy_cg(H, b[k], rtol=rtols[k], atol=0.0, M=M, callback=lone_cb)
        assert want_info == 0
        assert np.array_equal(x[k], want)
        assert counts[k] == lone_count[0]
    assert counts[0] < counts[2] < counts[1]


@pytest.mark.parametrize("p", [6.0, 1.2, 1.5, 2.2])
def test_report_counts_line_search_evals(p, monkeypatch):
    """A lift starts at the p = 2 minimizer with its own source, except for
    1.3 < p < 2, where it starts at the 2-harmonic extension of h; no
    Newton step precedes its own, and line_search_evals counts every
    energy evaluation but the initial one."""
    g = unit_square(8)
    f = from_callable(g, lambda x, y: np.sin(3 * x) * np.cos(2 * y))
    h = from_callable(g, lambda x, y: x * y)
    evaluated = []
    real = plap._energy_reg

    def spy(grid, u, *args):
        evaluated.extend(u.reshape(-1, u.shape[-1]).copy())
        return real(grid, u, *args)

    monkeypatch.setattr(plap, "_energy_reg", spy)
    rep = solve_p_poisson(PPoissonProblem(g, p, f, h))
    assert rep.converged
    assert rep.line_search_evals >= rep.iterations > 0
    assert len(evaluated) == 1 + rep.line_search_evals
    start = harmonic_extension(g, h.values, 0.0 if p == 1.5 else f.values)
    assert np.array_equal(evaluated[0], start)


def test_one_element_pass_per_evaluated_point(monkeypatch):
    """A lone p = 2.2 lift makes one element pass per point it evaluates,
    its start and each line-search trial, and one for the harmonic
    extension of its start: the energy, gradient and Hessian at a point
    share that point's pass."""
    calls = []
    real = plap.element_gradients

    def spy(grid, values):
        calls.append(len(values))
        return real(grid, values)

    monkeypatch.setattr(plap, "element_gradients", spy)
    g = unit_square(16)
    f = scale_to_norm(sample_smooth_field(g, np.random.default_rng(1)), 1.25, 3.0)
    rep = solve_p_poisson(PPoissonProblem(g, 2.2, f, constant_field(g, 1.0)))
    assert rep.converged and rep.iterations >= 3
    assert calls == [1] * (2 + rep.line_search_evals)


@pytest.mark.parametrize("n", [16, 32])
def test_flat_data_start_takes_full_newton_steps(n):
    """With h = 1 the 2-harmonic extension is flat, where the regularized
    weight reg^(p-2) makes the first Newton step far too long; the p = 2
    start with the source is not flat, so every Armijo search accepts its
    first trial, t = 1."""
    g = unit_square(n)
    w = sample_smooth_field(g, np.random.default_rng(1))
    h = constant_field(g, 1.0)
    problems = [PPoissonProblem(g, 2.2, scale_to_norm(w, 1.25, a), h) for a in (0.3, 3.0)]
    for rep in batch_lift(problems)[1]:
        assert rep.converged
        assert rep.line_search_evals == rep.iterations <= 4


def test_start_ignores_the_source_for_p_between_13_and_2():
    """At p = 1.5 the p = 2 minimizer with the source is a far worse start
    than the 2-harmonic extension (it ran to max_iter here), so the lift
    starts from the extension and converges within 10 Newton steps."""
    g = unit_square(64)
    f = scale_to_norm(sample_smooth_field(g, np.random.default_rng(1)), 1.25, 0.3)
    rep = solve_p_poisson(PPoissonProblem(g, 1.5, f, constant_field(g, 1.0)))
    assert rep.converged
    assert rep.iterations <= 10


# ---------------------------------------------------------------------------
# regression matrix of the inexact Newton solve


def matrix_problems(n, p, sizes):
    """The unit box with the data 1 + x y and the seed-1 smooth source
    scaled to each L^1.25 norm of `sizes`."""
    g = unit_square(n)
    h = from_callable(g, lambda x, y: 1 + x * y)
    w = sample_smooth_field(g, np.random.default_rng(1))
    return [PPoissonProblem(g, p, scale_to_norm(w, 1.25, a), h) for a in sizes]


MATRIX = [
    (p, n, (0.3, 3.0, 30.0)) for p in (1.2, 1.3, 1.5, 2.5, 4.0, 6.0) for n in (16, 32, 64)
] + [(1.1, n, (0.3, 3.0)) for n in (16, 32)]


@pytest.mark.parametrize("p, n, sizes", MATRIX)
def test_regression_matrix_converges(p, n, sizes):
    """Every case converges within 80 Newton steps, among them those where
    a solve on the energy's round-off floor used to run to max_iter
    ((1.2, 64, 30), (1.3, 64, 3) and (1.1, 32, 3)) or did with forcing but
    without the round-off branch of the Armijo search ((1.2, 64, 3),
    (1.3, 32, 3))."""
    for rep in batch_lift(matrix_problems(n, p, sizes))[1]:
        assert rep.converged and rep.gradient_norm <= plap.DEFAULT_TOL
        assert rep.iterations <= 80


def test_roundoff_steps_counts_the_branch(monkeypatch):
    """roundoff_steps counts the steps that the Armijo search accepted on
    the energy's round-off floor: (1.5, 16, 3) takes one."""
    steps = [0]
    real = plap._armijo

    def spy(*args):
        out = real(*args)
        steps[0] += int(out[-1].sum())
        return out

    monkeypatch.setattr(plap, "_armijo", spy)
    _, (rep,) = batch_lift(matrix_problems(16, 1.5, (3.0,)))
    assert rep.converged
    assert rep.roundoff_steps == steps[0] >= 1
