"""Grid construction, P1 fields, norms, and CSV round trips."""

import math
import re

import numpy as np
import pytest

from plapsys.field import (
    Grid,
    ScalarField,
    element_gradients,
    load_field,
    lq_norm,
    lq_norms,
    save_field,
)

import p1_reference as ref
from stack_reference import constant_field, from_callable, pair_norm, save_field_rowwise


def unit_square(n):
    return Grid(2, (0.0, 1.0, 0.0, 1.0), n)


def test_counts_2d():
    g = unit_square(4)
    assert g.n_nodes == 25
    assert len(g.interior) == 9
    assert len(g.boundary) == 16
    assert len(g.elements) == 32
    assert g.measure == 1.0


def test_measure_rectangle():
    g = Grid(2, (0.0, 1.0, 0.0, 2.0), 8)
    assert g.measure == 2.0
    assert g.element_measure == pytest.approx((1 / 8) * (2 / 8) / 2, rel=1e-15)


def test_grid_validation():
    for d, box in ((1, (0.0, 1.0)), (3, (0.0, 1.0, 0.0, 1.0, 0.0, 1.0))):
        with pytest.raises(ValueError, match=f"grids are planar: d must be 2, got {d}"):
            Grid(d, box, 4)
    with pytest.raises(ValueError):
        Grid(2, (0.0, 1.0), 4)  # box length mismatch
    with pytest.raises(ValueError):
        Grid(2, (1.0, 0.0, 0.0, 1.0), 4)  # decreasing side
    with pytest.raises(ValueError):
        Grid(2, (0.0, 1.0, 0.0, 1.0), 0)
    for n in (4.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            Grid(2, (0.0, 1.0, 0.0, 1.0), n)
    # nan fails no side-length comparison, and inf makes every spacing inf
    for box in ((0.0, math.nan, 0.0, 0.3), (0.0, math.inf, 0.0, 0.3), (-math.inf, 1.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="box entries must be finite"):
            Grid(2, box, 4)


@pytest.mark.parametrize(
    "box, area",
    [((0.0, 1e200, 0.0, 1e200), "inf"), ((0.0, 1e-200, 0.0, 1e-200), "0.0"),
     ((0.0, 1e-154, 0.0, 1e-154), "5e-309")],
    ids=["overflow", "underflow", "subnormal"],
)
def test_grid_rejects_element_area_outside_normal_floats(box, area):
    """Finite sides whose element area hx hy / 2 overflows, underflows or
    is subnormal are rejected; the smallest normal area passes."""
    with pytest.raises(ValueError, match=rf"at n = 1 gives the element area {area}, not a positive normal float"):
        Grid(2, box, 1)
    tiny = np.finfo(float).tiny
    assert Grid(2, (0.0, 2.0 * tiny, 0.0, 1.0), 1).element_measure == tiny


def test_grid_integral_float_n_is_stored_as_int():
    box = (0.0, 1.0, 0.0, 2.0)
    g = Grid(2, box, 4.0)
    assert g == Grid(2, box, 4)
    assert type(g.n) is int
    assert np.array_equal(g.coords, Grid(2, box, 4).coords)
    assert np.array_equal(g.laplace_solve(np.ones(len(g.interior))),
                          Grid(2, box, 4).laplace_solve(np.ones(len(g.interior))))


@pytest.mark.parametrize("n", [2, 3, 7, 16, 32, 33, 64, 128, 255, 256, 512])
def test_sine_basis_equals_direct_sines(n):
    """The sine basis read from a table of 2n sines is, bit for bit, the
    one from (n-1)^2 sines of the reduced arguments k l mod 2n."""
    k = np.arange(1, n)
    direct = np.sqrt(2.0 / n) * np.sin(np.pi * (np.outer(k, k) % (2 * n)) / n)
    S, _ = Grid(2, (0.0, 1.0, 0.0, 1.0), n)._sine_basis
    assert np.array_equal(S, direct)


def test_interior_boundary_partition():
    g = unit_square(5)
    both = np.concatenate([g.interior, g.boundary])
    assert sorted(both) == list(range(g.n_nodes))
    x = g.coords[g.boundary, 0]
    y = g.coords[g.boundary, 1]
    on_edge = (x == 0) | (x == 1) | (y == 0) | (y == 1)
    assert on_edge.all()


def test_basis_gradients_sum_to_zero_exactly():
    # partition of unity: the three hat gradients cancel bitwise
    g = unit_square(7)
    assert np.all(ref.grad_phi(g).sum(axis=1) == 0.0)


def test_lumped_weights():
    g = unit_square(8)
    h2 = (1 / 8) ** 2
    assert g.lumped[g.interior] == pytest.approx(h2, rel=1e-14)
    assert g.lumped.sum() == pytest.approx(g.measure, abs=1e-14)


def test_affine_gradient_exact():
    g = unit_square(6)
    u = from_callable(g, lambda x, y: 2 * x + 3 * y)
    G, G2 = element_gradients(g, u.values)
    assert G.shape == (2, 2, 6, 6) and G2.shape == (2, 6, 6)
    assert np.allclose(G[0], 2.0, atol=1e-13)
    assert np.allclose(G[1], 3.0, atol=1e-13)
    assert np.allclose(G2, 13.0, atol=1e-12)


def test_constant_gradient_zero():
    g = unit_square(5)
    u = constant_field(g, 4.2)
    G, G2 = element_gradients(g, u.values)
    assert np.all(G == 0.0)
    assert np.all(G2 == 0.0)


def test_1d_quadratic_gradient_is_midpoint_slope():
    """For u = x^2 the x component of each element gradient is the chord
    slope 2*midpoint of its cell, and the y component is 0."""
    n = 100
    g = unit_square(n)
    u = from_callable(g, lambda x, y: x * x)
    G, _ = element_gradients(g, u.values)
    mids = (np.arange(n) + 0.5) / n
    assert G[0] == pytest.approx(np.broadcast_to(2 * mids, G[0].shape), rel=1e-12)
    assert np.all(G[1] == 0.0)


@pytest.mark.parametrize("side", [1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
@pytest.mark.parametrize("dims", [1, 2])
def test_element_gradients_match_gather(dims, n, side):
    """The lattice-slice gradients are those of the element-major gather
    through Grid.elements, to rounding, on a box with hx != hy, and the
    same bits on every call; values of x alone (dims = 1) have y
    components exactly 0."""
    g = Grid(2, (0.0, 1.0, 0.0, side), n)
    u = ref.random_nodes(g, np.random.default_rng(n), dims)
    G, G2 = element_gradients(g, u)
    if dims == 1:
        assert np.all(G[1] == 0.0)
    want, want2 = ref.gathered_gradients(g, u)
    assert ref.element_order(g, G).T.shape == want.shape
    assert np.abs(ref.element_order(g, G).T - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(ref.element_order(g, G2) - want2).max() <= 1e-12 * want2.max()
    again = element_gradients(g, u)
    assert np.array_equal(again[0], G) and np.array_equal(again[1], G2)


def test_element_means_affine():
    """The quadrature averages each element's vertex values, and the mean
    of an affine function over a triangle is its centroid value: so for a
    positive affine field the L^1 norm is the exact integral, and every
    row of a stack sums the centroid values' powers."""
    g = unit_square(4)
    cx = g.coords[g.elements, 0].mean(axis=1)
    cy = g.coords[g.elements, 1].mean(axis=1)
    for a in (1.0, 2.0, 0.5):
        u = from_callable(g, lambda x, y: a * (x + y) + 0.25)
        assert lq_norm(u, 1.0) == pytest.approx(a + 0.25, rel=1e-13)
    stack = np.stack([g.coords[:, 0] + g.coords[:, 1], 2.0 * g.coords[:, 0] - g.coords[:, 1]])
    for q in (1.0, 1.5, 3.0):
        want = [
            (np.sum(np.abs(c) ** q) * g.element_measure) ** (1.0 / q)
            for c in (cx + cy, 2.0 * cx - cy)
        ]
        assert lq_norms(g, stack, q) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("dims, n", [(1, 7), (1, 16), (2, 3), (2, 7), (2, 16), (2, 33), (2, 64)])
def test_lq_norms_match_lq_norm_row_by_row(dims, n):
    """The stacked kernel agrees with lq_norm of each row alone within
    1e-14 (rows of a stacked reduction need not agree bit for bit), on
    rows of x alone (dims = 1) and of both coordinates."""
    g = Grid(2, (0.0, 0.3, 0.0, 0.7), n)
    rng = np.random.default_rng(n)
    stack = np.stack([ref.random_nodes(g, rng, dims) for _ in range(13)])
    for q in (1.0, 1.25, 2.0, 3.3):
        got = lq_norms(g, stack, q)
        want = np.array([lq_norm(ScalarField(g, w), q) for w in stack])
        assert got.shape == (13,)
        assert np.abs(got - want).max() <= 1e-14 * want.max()
    with pytest.raises(ValueError):
        lq_norms(g, stack, 0.9)


def test_lq_norm_constants():
    g = unit_square(6)
    assert lq_norm(constant_field(g, 1.0), 2.0) == pytest.approx(1.0, rel=1e-14)
    assert lq_norm(constant_field(g, 0.0), 3.7) == 0.0


def test_lq_norms_rows_whose_power_sum_underflows_or_overflows():
    """At q = 612, the L^s exponent at r = 1.36 for d = 3, p = 2.2, the
    powers of vertex means near 1e-3 underflow to 0 and those near 10
    overflow; such rows take the homogeneous form, so ||c w|| = c ||w||
    still holds, against w itself, whose means near 1 do neither."""
    g = unit_square(8)
    w = np.random.default_rng(5).uniform(0.9, 1.1, g.n_nodes)
    q = 612.0
    (plain,) = lq_norms(g, w[None], q)
    scales = np.array([1e-3, 2e-3, 10.0, 12.0, 0.0])
    got = lq_norms(g, scales[:, None] * w, q)
    assert got == pytest.approx(scales * plain, rel=1e-13)
    assert np.all(got[:-1] > 0.0) and got[-1] == 0.0
    assert lq_norm(ScalarField(g, -1e-3 * w), q) == pytest.approx(1e-3 * plain, rel=1e-13)


def test_lq_norm_1d_linear_closed_form():
    """w = x on the unit square: the squared centroid values x_i + h/3 and
    x_i + 2h/3 of the two triangles of each cell sum to 1/3 - h^2/18."""
    for n in (16, 64):
        w = from_callable(unit_square(n), lambda x, y: x)
        h = 1.0 / n
        assert lq_norm(w, 2.0) == pytest.approx(math.sqrt(1 / 3 - h * h / 18), rel=1e-14)
    w = from_callable(unit_square(256), lambda x, y: x)
    assert abs(lq_norm(w, 2.0) - math.sqrt(1 / 3)) <= 1e-3


def test_lq_norm_rejects_q_below_one():
    g = unit_square(4)
    with pytest.raises(ValueError):
        lq_norm(constant_field(g, 1.0), 0.9)


def test_lq_norm_homogeneity_and_triangle():
    g = unit_square(8)
    rng = np.random.default_rng(3)
    for q in (1.0, 1.3, 2.0, 4.0):
        w = ScalarField(g, rng.uniform(-1, 1, g.n_nodes))
        z = ScalarField(g, rng.uniform(-1, 1, g.n_nodes))
        assert lq_norm(ScalarField(g, 2.5 * w.values), q) == pytest.approx(
            2.5 * lq_norm(w, q), rel=1e-13
        )
        s = ScalarField(g, w.values + z.values)
        assert lq_norm(s, q) <= lq_norm(w, q) + lq_norm(z, q) + 1e-13


def test_lq_norm_monotone_in_q_on_unit_measure():
    # Jensen: on a measure-1 box the L^q norms increase with q
    g = unit_square(8)
    rng = np.random.default_rng(5)
    w = ScalarField(g, rng.uniform(-2, 2, g.n_nodes))
    n1, n2, n4 = (lq_norm(w, q) for q in (1.0, 2.0, 4.0))
    assert n1 <= n2 + 1e-14
    assert n2 <= n4 + 1e-14


def test_pair_norm():
    g = unit_square(4)
    zero = constant_field(g, 0.0)
    one = constant_field(g, 1.0)
    two = constant_field(g, 2.0)
    w = from_callable(g, lambda x, y: x - y)
    assert pair_norm(zero, zero, 1.5) == 0.0
    assert pair_norm(w, zero, 2.0) == lq_norm(w, 2.0)
    assert pair_norm(one, two, 2.0) == pytest.approx(2.0, rel=1e-14)


def test_field_validation():
    g = unit_square(4)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(7))
    with pytest.raises(ValueError):
        ScalarField(g, np.full(g.n_nodes, np.nan))
    with pytest.raises(ValueError):
        ScalarField(g, np.full(g.n_nodes, np.inf))


def test_csv_round_trip_2d(tmp_path):
    g = unit_square(5)
    rng = np.random.default_rng(9)
    w = ScalarField(g, rng.uniform(-1e3, 1e3, g.n_nodes))
    path = tmp_path / "w.csv"
    save_field(path, g, w.values)
    back = load_field(path, g)
    assert np.array_equal(back, w.values)
    assert back.shape == (g.n_nodes,) and not back.flags.writeable
    text = path.read_bytes()
    assert b"\r" not in text
    assert text.startswith(b"x,y,value\n")


def test_csv_row_count_mismatch(tmp_path):
    g = unit_square(4)
    path = tmp_path / "w.csv"
    save_field(path, g, constant_field(g, 1.0).values)
    with pytest.raises(ValueError):
        load_field(path, unit_square(5))


def test_csv_column_mismatch(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("x,value\n" + "".join(f"{i / 2},1\n" for i in range(9)))
    with pytest.raises(ValueError, match="expected 3 columns"):
        load_field(path, unit_square(2))  # 9 nodes, but no y column


def test_csv_on_another_box_names_file_and_first_bad_row(tmp_path):
    """A file written on the 0.3 box does not load into the unit box with the
    same n: node 0 agrees, node 1 (line 3) is the first that does not."""
    path = tmp_path / "w.csv"
    save_field(path, Grid(2, (0.0, 0.3, 0.0, 0.3), 6), np.ones(49))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: coordinates"):
        load_field(path, unit_square(6))


def test_csv_y_column_is_checked(tmp_path):
    """Same x lattice, y stretched by 2: the first bad row is node n + 1,
    the first node off y = 0."""
    path = tmp_path / "w.csv"
    save_field(path, unit_square(4), np.ones(25))
    want = r"w\.csv: line 7: coordinates \(0, 0\.25\) are not those of grid node 5 \(0\.0, 0\.5\)$"
    with pytest.raises(ValueError, match=want):
        load_field(path, Grid(2, (0.0, 1.0, 0.0, 2.0), 4))


def test_csv_coordinates_match_within_a_millionth_of_a_cell(tmp_path):
    """Coordinates written with 6 digits load; off by 1e-5 of a cell they do not."""
    g = Grid(2, (0.0, 0.3, 0.0, 0.3), 3)  # nodes at 0, 0.1, 0.2, 0.3 (not exact in binary)
    ticks = ["0", "0.1", "0.2", "0.3"]
    rows = [f"{x},{y},{j * 4 + i}" for j, y in enumerate(ticks) for i, x in enumerate(ticks)]
    path = tmp_path / "w.csv"
    path.write_text("\n".join(["x,y,value"] + rows) + "\n")
    assert np.array_equal(load_field(path, g), np.arange(16.0))
    rows[1] = "0.100001,0,1"
    path.write_text("\n".join(["x,y,value"] + rows) + "\n")
    with pytest.raises(ValueError, match=r"line 3: coordinates \(0\.100001, 0\) "):
        load_field(path, g)


@pytest.mark.parametrize(
    "cell, message",
    [
        ("abc", r"line 5: not a number in '0,1,abc'"),
        ("nan", r"line 5: value nan is not finite"),
        ("-inf", r"line 5: value -inf is not finite"),
    ],
    ids=["abc", "nan", "-inf"],
)
def test_csv_bad_value_names_file_and_line(tmp_path, cell, message):
    """The blank line 3 is skipped, and counted."""
    path = tmp_path / "w.csv"
    path.write_text(f"x,y,value\n0,0,1\n\n1,0,2\n0,1,{cell}\n1,1,3\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
        load_field(path, unit_square(1))


def test_save_field_matches_rowwise_formatting(tmp_path):
    """save_field writes the bytes of formatting each coordinate and value
    alone with `{:.17g}`, -0.0, huge, tiny and subnormal values included."""
    g = Grid(2, (-1.0, 1e-3, 0.0, 3e5), 5)
    rng = np.random.default_rng(2)
    vals = rng.uniform(-1.0, 1.0, g.n_nodes) * 10.0 ** rng.integers(-300, 300, g.n_nodes)
    vals[:6] = [-0.0, 0.0, 1.7976931348623157e308, -5e-324, 2.2250738585072014e-308, 1.0 / 3.0]
    save_field(tmp_path / "fast.csv", g, vals)
    save_field_rowwise(tmp_path / "rowwise.csv", g, vals)
    text = (tmp_path / "fast.csv").read_bytes()
    assert text == (tmp_path / "rowwise.csv").read_bytes()
    assert b"\n-0," in text or b",-0\n" in text
    assert np.array_equal(load_field(tmp_path / "fast.csv", g), vals)
