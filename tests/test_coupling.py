"""Coupling terms, the split bound of the homogeneous shift, and hypothesis checks."""

import numpy as np
import pytest

import plapsys.expr as ex
from plapsys.coupling import (
    GROWTH_TOL,
    STATE_SAMPLES,
    Coupling,
    check_monotone,
    coupling_values,
    growth_excess,
    nemytskii,
    power_family,
    split_bound,
)
from plapsys.field import Grid, ScalarField

from stack_reference import constant_field, from_callable


def unit_square(n):
    return Grid(2, (0.0, 1.0, 0.0, 1.0), n)


# the probes' sample lattice: the unit box and states in [-10, 10]
UNIT = ((0.0, 1.0, 0.0, 1.0), (-10.0, 10.0), (-10.0, 10.0))


def growth_violation(c, *probe):
    """The largest excess of growth_excess on the probe, clipped at 0."""
    return max(growth_excess(c, *probe)[0], 0.0)


def zero_coupling(p=2.0):
    return Coupling(ex.parse("0"), ex.parse("0"), 0.0, 0.0, 0.0, 0.0, p)


def test_coupling_validation():
    with pytest.raises(ValueError):
        Coupling(ex.parse("u"), ex.parse("v"), -1.0, 0.0, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        Coupling(ex.parse("u"), ex.parse("v"), 0.0, 0.0, 0.0, 0.0, 1.0)


def test_nemytskii_zero():
    g = unit_square(4)
    u = from_callable(g, lambda x, y: x + y)
    v = from_callable(g, lambda x, y: x - y)
    pf, sf = nemytskii(zero_coupling(), u, v)
    assert np.all(pf.values == 0.0)
    assert np.all(sf.values == 0.0)


def test_nemytskii_identity_component():
    g = unit_square(4)
    c = Coupling(ex.parse("odd_pow(u,1)"), ex.parse("0"), 1.0, 0.0, 0.0, 0.0, 2.0)
    u = constant_field(g, 3.0)
    v = from_callable(g, lambda x, y: y)
    pf, _ = nemytskii(c, u, v)
    assert np.all(pf.values == 3.0)


def test_nemytskii_spatial_dependence():
    g = unit_square(4)
    c = Coupling(ex.parse("x*u+y"), ex.parse("0"), 1.0, 0.0, 0.0, 0.0, 2.0)
    u = constant_field(g, 2.0)
    v = constant_field(g, 0.0)
    pf, _ = nemytskii(c, u, v)
    want = 2.0 * g.coords[:, 0] + g.coords[:, 1]
    assert pf.values == pytest.approx(want, rel=1e-15)


def test_nemytskii_locality():
    """Output at a node depends only on that node's (x, u, v)."""
    g = unit_square(5)
    c = Coupling(ex.parse("odd_pow(u,2)+v"), ex.parse("u*v"), 1, 1, 1, 1, 3.0)
    rng = np.random.default_rng(6)
    u1 = ScalarField(g, rng.uniform(-1, 1, g.n_nodes))
    v1 = ScalarField(g, rng.uniform(-1, 1, g.n_nodes))
    changed = u1.values.copy()
    changed[0] += 5.0
    u2 = ScalarField(g, changed)
    a, _ = nemytskii(c, u1, v1)
    b, _ = nemytskii(c, u2, v1)
    assert np.array_equal(a.values[1:], b.values[1:])
    assert a.values[0] != b.values[0]


def test_domain_error_names_node():
    g = unit_square(3)
    c = Coupling(ex.parse("1/u"), ex.parse("0"), 1, 0, 0, 0, 2.0)
    u = constant_field(g, 0.0)
    with pytest.raises(ex.EvaluationDomainError) as err:
        nemytskii(c, u, u)
    assert "node" in str(err.value) and "row" not in str(err.value)


def test_stacked_domain_error_names_row_and_node():
    """A domain error in a stack of trials names the row, numbered from
    first_row, and the node with its coordinates."""
    g = unit_square(3)
    c = Coupling(ex.parse("u"), ex.parse("1/v"), 1, 0, 0, 1, 2.0)
    u = np.ones((4, g.n_nodes))
    v = np.ones((4, g.n_nodes))
    v[2, 5] = 0.0
    for first, row in ((0, 2), (10, 12)):
        with pytest.raises(ex.EvaluationDomainError) as err:
            coupling_values(c, g, u, v, first_row=first)
        x, y = g.coords[5]
        assert f"at row {row}, node 5 ({x:.17g}, {y:.17g})" in str(err.value)


def test_coupling_values_rows_match_nemytskii():
    g = unit_square(5)
    c = Coupling(ex.parse("x*odd_pow(u,1.2)+v"), ex.parse("u*v-y"), 1, 1, 1, 1, 2.2)
    rng = np.random.default_rng(2)
    U = rng.uniform(-1, 1, (3, g.n_nodes))
    V = rng.uniform(-1, 1, (3, g.n_nodes))
    phi, psi = coupling_values(c, g, U, V)
    assert phi.shape == psi.shape == (3, g.n_nodes)
    for k in range(3):
        a, b = nemytskii(c, ScalarField(g, U[k]), ScalarField(g, V[k]))
        assert np.array_equal(a.values, phi[k]) and np.array_equal(b.values, psi[k])


def test_transform_prime_constants():
    """a_i' = a_i (1+eps)^(p-1) for every epsilon and p combination."""
    g = unit_square(4)
    h = constant_field(g, 0.0)
    k = constant_field(g, 0.0)
    for eps in (0.5, 1.0, 2.0):
        for p in (1.5, 2.0, 3.0):
            c = Coupling(ex.parse("u"), ex.parse("v"), 1.0, 2.0, 3.0, 4.0, p)
            growth, (cf, cpf) = split_bound(c, h.values, k.values, eps)
            factor = (1 + eps) ** (p - 1)
            for base in (c.a1, c.a2, c.b1, c.b2):
                assert growth * base == pytest.approx(base * factor, abs=1e-14)
            assert np.all(cf == 0.0)
            assert np.all(cpf == 0.0)


def test_transform_example_value():
    g = unit_square(3)
    c = Coupling(ex.parse("u"), ex.parse("v"), 1.0, 0.0, 0.0, 0.0, 3.0)
    growth, _ = split_bound(c, np.zeros(g.n_nodes), np.zeros(g.n_nodes), 1.0)
    assert growth * c.a1 == 4.0  # (1+1)^2


def test_transform_c_fields_formula():
    """c and c' against a direct evaluation of the shift-bound constants."""
    g = unit_square(5)
    h = from_callable(g, lambda x, y: 1 + x)
    k = from_callable(g, lambda x, y: 2 - y)
    a1, a2, b1, b2 = 0.7, 0.3, 1.1, 0.2
    for eps in (0.5, 1.0, 2.0):
        for p in (1.5, 2.0, 3.0):
            c = Coupling(ex.parse("u"), ex.parse("v"), a1, a2, b1, b2, p)
            _, (cf, cpf) = split_bound(c, h.values, k.values, eps)
            q = p - 1
            lead = (1 + 1 / eps) ** q
            want_c = lead * (a1 * np.abs(h.values) ** q + a2 * np.abs(k.values) ** q)
            want_cp = lead * (b1 * np.abs(k.values) ** q + b2 * np.abs(h.values) ** q)
            assert np.abs(cf - want_c).max() <= 1e-14
            assert np.abs(cpf - want_cp).max() <= 1e-14


def test_transform_all_zero():
    g = unit_square(3)
    c = zero_coupling(2.5)
    growth, (cf, cpf) = split_bound(
        c, constant_field(g, 1.0).values, constant_field(g, 2.0).values, 1.0
    )
    assert growth * max(c.a1, c.a2, c.b1, c.b2) == 0.0
    assert np.all(cf == 0.0)
    assert np.all(cpf == 0.0)


def test_transform_split_bounds_hold():
    """|phit| <= a1'|u|^q + a2'|v|^q + c(x) and |psit| <= b1'|v|^q + b2'|u|^q
    + c'(x) on a state lattice, with phit, psit the base pair at (u+h, v+k);
    h != k and b1 != b2, so a c' that pairs b1 with h instead of k fails."""
    g = unit_square(4)
    h = from_callable(g, lambda x, y: x)
    k = from_callable(g, lambda x, y: 2 - y)
    a1, a2, b1, b2 = 0.7, 0.3, 1.1, 0.2
    lattice = np.linspace(-3.0, 3.0, 13)
    for eps in (0.5, 1.0, 2.0):
        for p in (1.5, 2.0, 3.0):
            q = p - 1
            base = power_family(a1, a2, b1, b2, p)
            gf, (c, cp) = split_bound(base, h.values, k.values, eps)
            for s in lattice:
                for t in lattice:
                    phit, psit = nemytskii(
                        base, ScalarField(g, s + h.values), ScalarField(g, t + k.values)
                    )
                    bound_phi = gf * (a1 * abs(s) ** q + a2 * abs(t) ** q) + c
                    bound_psi = gf * (b1 * abs(t) ** q + b2 * abs(s) ** q) + cp
                    assert np.all(np.abs(phit.values) <= bound_phi * (1 + 1e-12))
                    assert np.all(np.abs(psit.values) <= bound_psi * (1 + 1e-12))


def test_transformed_at_zero_recovers_boundary_values():
    """At u = v = 0 the shifted pair is the base pair at the boundary values,
    (phit, psit)(x, 0, 0) = (phi, psi)(x, h, k), and the split bounds reduce
    to |phi(x, h, k)| <= c(x) and |psi(x, h, k)| <= c'(x).  With psi =
    odd_pow(v, 1.5), b1 = 1, b2 = 0, h = 0, k = 2 and eps = 1, psit(x, 0, 0)
    = 2^1.5 and c'(x) = 2^1.5 * 2^1.5; pairing b1 with h would give c' = 0."""
    g = unit_square(3)
    c = Coupling(ex.parse("odd_pow(u,1)"), ex.parse("odd_pow(v,1.5)"), 1.0, 0.0, 1.0, 0.0, 2.5)
    h, k = constant_field(g, 0.0), constant_field(g, 2.0)
    phit, psit = nemytskii(c, h, k)
    _, (cf, cpf) = split_bound(c, h.values, k.values, 1.0)
    assert np.all(phit.values == 0.0)
    assert np.allclose(psit.values, 2.0**1.5, rtol=1e-14)
    assert np.allclose(cpf, 8.0, rtol=1e-14)
    assert np.all(np.abs(phit.values) <= cf)
    assert np.all(np.abs(psit.values) <= cpf)


def test_growth_equality_case_passes():
    c = Coupling(ex.parse("odd_pow(u,1)"), ex.parse("0"), 1.0, 0.0, 0.0, 0.0, 2.0)
    assert growth_violation(c, *UNIT) <= GROWTH_TOL


def test_growth_rejects_cubic():
    """phi = u^3 claimed linear: worst violation 1000 - 10 at u = 10."""
    c = Coupling(ex.parse("u*u*u"), ex.parse("0"), 1.0, 0.0, 0.0, 0.0, 2.0)
    excess = growth_violation(c, *UNIT)
    assert excess > GROWTH_TOL
    assert excess == pytest.approx(990.0, rel=1e-12)


def test_growth_excess_names_function_and_sample_point():
    """psi = v^3 claimed linear in v: the worst excess, 1000 - 10, is that
    of psi at the largest |v| of the lattice, the first such sample of the
    box and of u; phi = u, within its bound, attains none."""
    c = Coupling(ex.parse("u"), ex.parse("v*v*v"), 1.0, 0.0, 1.0, 0.0, 2.0)
    excess, name, point = growth_excess(c, *UNIT)
    assert name == "psi"
    assert excess == pytest.approx(990.0, rel=1e-12) and excess == growth_violation(c, *UNIT)
    assert point == (0.0, 0.0, -10.0, -10.0)


def test_growth_zero_passes_any_constants():
    c = Coupling(ex.parse("0"), ex.parse("0"), 5.0, 1.0, 2.0, 3.0, 3.0)
    assert growth_violation(c, *UNIT) == 0.0


def test_monotone_passes_odd_powers():
    c = Coupling(
        ex.parse("odd_pow(u,2)+odd_pow(v,2)"), ex.parse("odd_pow(v,2)"), 1, 1, 1, 1, 3.0
    )
    assert check_monotone(c, *UNIT) == 0


def test_monotone_rejects_decreasing():
    """phi = -u decreases on every adjacent u-pair of the lattice, at each
    of the 64 sample points."""
    c = Coupling(ex.parse("0-u"), ex.parse("0"), 1, 0, 0, 0, 2.0)
    assert check_monotone(c, *UNIT) == 64 * (STATE_SAMPLES - 1) * STATE_SAMPLES


def test_monotone_rejects_sine():
    c = Coupling(ex.parse("sin(u)"), ex.parse("0"), 1, 0, 0, 0, 2.0)
    assert check_monotone(c, *UNIT) > 0


def test_power_family_satisfies_own_hypotheses():
    for p in (1.5, 2.0, 3.0, 4.0):
        c = power_family(0.5, 0.25, 1.0, 0.75, p)
        assert growth_violation(c, *UNIT) <= GROWTH_TOL
        assert check_monotone(c, *UNIT) == 0


def test_power_family_accepts_numpy_scalars():
    """Constants and p given as numpy scalars build the same coupling as
    python floats (numpy 2 writes np.float64(0.5) for their repr)."""
    want = power_family(0.5, 0.5, 0.5, 0.5, 2.2)
    got = power_family(*(np.float64(t) for t in (0.5, 0.5, 0.5, 0.5, 2.2)))
    assert (got.phi, got.psi) == (want.phi, want.psi)


@pytest.mark.parametrize(
    "phi, point",
    [
        ("1/u", "(0, 0, 0, -10)"),  # u = 0 is the 21st of 41 values in [-10, 10]
        ("1/(u-v)", "(0, 0, -10, -10)"),
        ("log(1-x)+u", "(1, 0, -10, -10)"),  # the 8th point of the 8 x 8 lattice
    ],
    ids=["u", "u-v", "x"],
)
def test_probe_domain_error_names_sample_point(phi, point):
    c = Coupling(ex.parse(phi), ex.parse("0"), 1, 0, 0, 0, 2.0)
    for check in (growth_excess, check_monotone):
        with pytest.raises(ex.EvaluationDomainError) as err:
            check(c, *UNIT)
        assert str(err.value).endswith(f"at sample point (x, y, u, v) = {point}")
        assert "entry" not in str(err.value)


def test_power_family_values():
    g = unit_square(3)
    c = power_family(2.0, 0.0, 0.0, 1.0, 3.0)
    u = constant_field(g, -2.0)
    v = constant_field(g, 3.0)
    pf, sf = nemytskii(c, u, v)
    assert pf.values == pytest.approx(np.full(g.n_nodes, -8.0), rel=1e-14)
    assert sf.values == pytest.approx(np.full(g.n_nodes, -4.0), rel=1e-14)
