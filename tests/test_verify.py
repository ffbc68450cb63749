"""Classification verdicts, the shift test, and convergence studies."""

import math
import os

import numpy as np
import pytest

import plapsys.expr as ex
from plapsys.cli import study
from plapsys.config import build_setup, load_setup
from plapsys.coupling import Coupling
from plapsys.field import Grid
from plapsys.plap import residual_vector
from plapsys.verify import (
    classify,
    convergence_study,
    shift_test,
    system_residuals,
    weak_residuals,
)

from stack_reference import constant_field, from_callable, pair


def zero_coupling(p=2.0):
    return Coupling(ex.parse("0"), ex.parse("0"), 0.0, 0.0, 0.0, 0.0, p)


def unit_square(n):
    return Grid(2, (0.0, 1.0, 0.0, 1.0), n)


def quad_down(g):
    # -Delta(-x^2 - y^2) = 4: a strict supersolution of -Delta u = 0
    return from_callable(g, lambda x, y: -x * x - y * y)


def quad_up(g):
    return from_callable(g, lambda x, y: x * x + y * y)


def test_supersolution_quadratic_exact_residual():
    """The 5-point stencil is exact on quadratics: R1 = 4 hx hy per hat."""
    n = 8
    g = unit_square(n)
    u = quad_down(g)
    v = constant_field(g, 0.0)
    cls = weak_residuals(g, pair(u, v), zero_coupling(), 2.0)
    assert cls.verdict == "supersolution"
    hx = (g.box[1] - g.box[0]) / n
    hy = (g.box[3] - g.box[2]) / n
    assert np.abs(cls.R[0] - 4.0 * hx * hy).max() <= 1e-12
    assert np.abs(cls.R[1]).max() == 0.0
    assert len(cls.offending_hats()) == len(g.interior)


def test_subsolution_quadratic():
    g = unit_square(8)
    cls = weak_residuals(g, pair(quad_up(g), constant_field(g, 0.0)), zero_coupling(), 2.0)
    assert cls.verdict == "subsolution"
    assert cls.R[0].max() <= 0.0
    assert cls.max_abs_residual == pytest.approx(4.0 / 64.0, abs=1e-12)


def test_solution_affine_any_p():
    g = unit_square(8)
    u = from_callable(g, lambda x, y: 2 * x + 3 * y)
    cls = weak_residuals(g, pair(u, u), zero_coupling(2.5), 2.5)
    assert cls.verdict == "solution"
    assert cls.max_abs_residual <= 1e-12
    assert cls.offending_hats() == []


def test_neither_verdict():
    g = unit_square(10)
    u = from_callable(g, lambda x, y: np.cos(2 * np.pi * x))
    cls = weak_residuals(g, pair(u, constant_field(g, 0.0)), zero_coupling(), 2.0)
    assert cls.verdict == "neither"
    assert cls.R[0].min() < -1e-3 and cls.R[0].max() > 1e-3


def test_reaction_term_moves_verdict():
    """With u = v = 0 the residual is exactly the lumped reaction."""
    g = unit_square(8)
    z = constant_field(g, 0.0)
    pos = Coupling(ex.parse("1"), ex.parse("0"), 1, 0, 0, 0, 2.0)
    neg = Coupling(ex.parse("0-1"), ex.parse("0"), 1, 0, 0, 0, 2.0)
    assert weak_residuals(g, pair(z, z), pos, 2.0).verdict == "supersolution"
    assert weak_residuals(g, pair(z, z), neg, 2.0).verdict == "subsolution"
    cls = weak_residuals(g, pair(z, z), pos, 2.0)
    assert np.abs(cls.R[0] - g.lumped[g.interior]).max() <= 1e-15


def test_tol_validation():
    g = unit_square(4)
    z = constant_field(g, 0.0)
    with pytest.raises(ValueError, match="tol"):
        weak_residuals(g, pair(z, z), zero_coupling(), 2.0, tol=0.0)


@pytest.mark.parametrize("shape", [(2, 24), (2, 26), (25,), (1, 25), (3, 25), (1, 2, 25)])
def test_pair_shape_rejected(shape):
    """A pair is one (2, n_nodes) stack; any other shape is a ValueError
    from weak_residuals and shift_test alike, before any evaluation."""
    g = unit_square(4)  # 25 nodes
    base = weak_residuals(g, np.zeros((2, 25)), zero_coupling(), 2.0)
    w = np.zeros(shape)
    with pytest.raises(ValueError, match=r"w must be a \(2, 25\) stack"):
        weak_residuals(g, w, zero_coupling(), 2.0)
    with pytest.raises(ValueError, match=r"w must be a \(2, 25\) stack"):
        shift_test(g, w, base, zero_coupling(), 2.0, alpha=1.0, beta=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pair_nonfinite_rejected(bad):
    """A pair with a value that is not finite is a ValueError, not a pair
    whose nan residuals classify as neither."""
    g = unit_square(4)
    base = weak_residuals(g, np.zeros((2, 25)), zero_coupling(), 2.0)
    w = np.zeros((2, 25))
    w[1, 12] = bad
    with pytest.raises(ValueError, match="the values of the pair w must be finite"):
        weak_residuals(g, w, zero_coupling(), 2.0)
    with pytest.raises(ValueError, match="the values of the pair w must be finite"):
        shift_test(g, w, base, zero_coupling(), 2.0, alpha=1.0, beta=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_nonfinite_tol_rejected(tol):
    """nan fails every comparison, so it would classify any rows as
    neither, and inf would classify any pair as a solution."""
    g = unit_square(4)
    z = constant_field(g, 0.0)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        classify(g, np.zeros((2, len(g.interior))), tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        weak_residuals(g, pair(quad_up(g), z), zero_coupling(), 2.0, tol=tol)


def test_classification_csv():
    g = unit_square(4)
    z = constant_field(g, 0.0)
    cls = weak_residuals(g, pair(z, z), zero_coupling(), 2.0)
    lines = cls.csv_lines()
    assert lines[0] == "hat_index,R1,R2"
    assert len(lines) == 1 + len(g.interior)
    first = lines[1].split(",")
    assert int(first[0]) == int(g.interior[0])


# ---------------------------------------------------------------------------
# shift test


def test_shift_preserves_supersolution_zero_coupling():
    """Constant shifts leave the gradient term alone; with no reaction the
    residuals are bitwise unchanged."""
    g = unit_square(8)
    u = quad_down(g)
    v = constant_field(g, 0.0)
    base = weak_residuals(g, pair(u, v), zero_coupling(), 2.0)
    assert base.verdict == "supersolution"
    rep = shift_test(g, pair(u, v), base, zero_coupling(), 2.0, alpha=1.0, beta=0.0)
    assert rep.precondition_ok
    assert rep.shifted_verdicts == [("up", "supersolution")]
    assert rep.passed is True


def test_shift_subsolution_goes_down():
    g = unit_square(8)
    u, v = quad_up(g), constant_field(g, 0.0)
    base = weak_residuals(g, pair(u, v), zero_coupling(), 2.0)
    assert base.verdict == "subsolution"
    rep = shift_test(g, pair(u, v), base, zero_coupling(), 2.0, alpha=0.5, beta=0.25)
    assert rep.shifted_verdicts == [("down", "subsolution")]
    assert rep.passed is True


def test_shift_solution_both_directions():
    g = unit_square(6)
    u = from_callable(g, lambda x, y: x - y)
    base = weak_residuals(g, pair(u, u), zero_coupling(), 2.0)
    assert base.verdict == "solution"
    rep = shift_test(g, pair(u, u), base, zero_coupling(), 2.0, alpha=1.0, beta=1.0)
    assert [d for d, _ in rep.shifted_verdicts] == ["up", "down"]
    assert rep.passed is True


def test_shift_with_monotone_coupling():
    """phi = u on a strict supersolution: shifting up only raises phi."""
    g = unit_square(8)
    u = quad_down(g)  # phi(u) in [-2, 0), residual h^2 (4 + u) stays > 0
    v = constant_field(g, 0.0)
    c = Coupling(ex.parse("odd_pow(u,1)"), ex.parse("0"), 1, 0, 0, 0, 2.0)
    base = weak_residuals(g, pair(u, v), c, 2.0)
    assert base.verdict == "supersolution"
    rep = shift_test(g, pair(u, v), base, c, 2.0, alpha=1.0, beta=0.0)
    assert rep.precondition_ok
    assert rep.passed is True


def test_shift_nonmonotone_precondition_failure():
    g = unit_square(8)
    u = quad_down(g)
    v = constant_field(g, 0.0)
    c = Coupling(ex.parse("0-u"), ex.parse("0"), 1, 0, 0, 0, 2.0)
    base = weak_residuals(g, pair(u, v), c, 2.0)
    assert base.verdict == "supersolution"
    rep = shift_test(g, pair(u, v), base, c, 2.0, alpha=1.0, beta=0.0)
    assert not rep.precondition_ok
    # phi = -u decreases on each of the 40 adjacent u-pairs of the 41 x 41
    # state lattice at each of the 64 sample points
    assert rep.reason == (
        "coupling is not monotone on the sampled range (104960 violating pairs)"
    )
    assert rep.passed is None
    assert rep.shifted_verdicts == []


def test_shift_neither_precondition_failure():
    g = unit_square(10)
    u = from_callable(g, lambda x, y: np.cos(2 * np.pi * x))
    v = constant_field(g, 0.0)
    base = weak_residuals(g, pair(u, v), zero_coupling(), 2.0)
    rep = shift_test(g, pair(u, v), base, zero_coupling(), 2.0, 1.0, 0.0)
    assert not rep.precondition_ok
    assert "neither" in rep.reason
    assert rep.passed is None


def test_shift_parameter_validation():
    g = unit_square(4)
    z = constant_field(g, 0.0)
    base = weak_residuals(g, pair(z, z), zero_coupling(), 2.0)
    with pytest.raises(ValueError, match="alpha"):
        shift_test(g, pair(z, z), base, zero_coupling(), 2.0, alpha=0.0, beta=0.0)
    with pytest.raises(ValueError, match="beta"):
        shift_test(g, pair(z, z), base, zero_coupling(), 2.0, alpha=1.0, beta=-0.5)


# ---------------------------------------------------------------------------
# convergence studies


EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples")


def example(name):
    return load_setup(os.path.join(EXAMPLES, f"study-{name}.cfg"))


def test_study_sinsin_second_order():
    rep = study(example("sinsin"), [8, 16, 32])
    assert not rep.exact
    assert rep.fitted_order >= 1.7
    assert math.isnan(rep.rows[0].order)
    assert rep.rows[1].order > 1.5
    assert rep.rows[-1].error_max < rep.rows[0].error_max


def test_study_affine_exact():
    rep = study(example("affine"), [4, 8, 12])
    assert rep.exact
    assert math.isnan(rep.fitted_order)
    for row in rep.rows:
        assert row.error_max <= 1e-8


def test_study_p3_1d_first_order():
    """The solution of x alone, posed on the unit square, keeps the errors
    of the 1-D lattice within 3 %: the rows y = 0, 1 hold exact values, so
    the discrete solution depends on y near them."""
    rep = study(example("p3-1d"), [16, 32, 64])
    assert not rep.exact
    assert rep.fitted_order >= 0.9
    one_d = [8.363e-4, 3.076e-4, 1.117e-4]  # the 1-D lattice at n = 16, 32, 64
    for row, want in zip(rep.rows, one_d, strict=True):
        assert abs(row.error_max - want) <= 0.03 * want


def test_study_csv_format():
    rep = study(example("sinsin"), [4, 8, 16])
    lines = rep.csv_lines()
    assert lines[0] == "n,error_max,error_l2,order"
    assert len(lines) == 4
    assert lines[1].startswith("4,")


def test_study_validation():
    """The resolutions are checked before any error is measured."""

    def unmeasured(n):
        raise AssertionError(f"measured at n={n} before the resolutions were checked")

    with pytest.raises(ValueError, match="at least 3"):
        convergence_study([4, 8], unmeasured)
    with pytest.raises(ValueError, match="strictly increasing"):
        convergence_study([8, 8, 16], unmeasured)
    with pytest.raises(ValueError, match="strictly increasing"):
        convergence_study([16, 8, 32], unmeasured)
    with pytest.raises(ValueError, match="no interior node"):
        convergence_study([1, 2, 4], unmeasured)


def test_study_reports_inner_nonconvergence():
    setup = example("sinsin")
    # 1e-300 is positive but unreachable in floating point
    setup = build_setup({**setup.config, "solver.tol": "1e-300"})
    with pytest.raises(RuntimeError, match="n = 4"):
        study(setup, [4, 8, 16])


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_system_residuals_equal_single_row_calls(n):
    """The rows (R1, R2) come from one residual_vector call on the stacked
    pair, bit for bit the two single-row calls, with a flat patch (weight 0)
    and p below and above 2."""
    g = Grid(2, (0.0, 1.0, 0.0, 2.0), n)
    rng = np.random.default_rng(n)
    w, reactions = rng.uniform(-1, 1, (2, 2, g.n_nodes))
    w[0, : g.n_nodes // 3] = 0.5
    for p in (1.5, 2.2, 4.0):
        R = system_residuals(g, w, reactions, p)
        assert R.shape == (2, len(g.interior))
        for row, u, f in zip(R, w, reactions, strict=True):
            assert np.array_equal(row, residual_vector(g, u, p, f, 0.0)[g.interior])
