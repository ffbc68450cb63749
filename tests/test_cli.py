"""End-to-end CLI behavior: artifacts, exit codes, reproducibility."""

import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import plapsys
import plapsys.plap as plap
from plapsys.cli import main
from plapsys.config import load_setup
from plapsys.field import Grid, load_field, save_field
from plapsys.fixpoint import admissible_r_range
from plapsys.verify import weak_residuals

BASE = {
    "grid.n": "8",
    "grid.box": "0, 0.3, 0, 0.3",
    "exponents.d": "3",
    "exponents.p": "2.2",
    "exponents.r": "1.25",
    "coupling.family": "power",
    "coupling.a1": "0.5",
    "coupling.a2": "0.5",
    "coupling.b1": "0.5",
    "coupling.b2": "0.5",
    "boundary.h": "1",
    "boundary.k": "1",
    "calibration.samples": "10",
    "certificate.trials": "10",
}


def cfg_file(tmp_path, overrides=None, drop=(), name="run.cfg"):
    cfg = dict(BASE)
    if overrides:
        cfg.update(overrides)
    for key in drop:
        cfg.pop(key, None)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return str(path)


BENCH_CONFIGS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "configs"
)


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_artifacts(tmp_path):
    cfg = cfg_file(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    for name in ("u.csv", "v.csv", "trace.csv", "report.txt"):
        assert (out / name).exists()
    report = (out / "report.txt").read_text()
    assert "command = solve" in report
    assert "picard_converged = true" in report
    assert "verdict = solution" in report
    assert "valid = true" in report
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,norm_f,norm_g,delta,weak_residual,newton_u,newton_v,cg_u,cg_v,inner_tol"
    assert len(trace) >= 3


def test_solve_reruns_are_byte_identical(tmp_path):
    cfg = cfg_file(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("u.csv", "v.csv", "trace.csv", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_seed_flag_recorded(tmp_path):
    cfg = cfg_file(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
    assert "seed = 7" in (out / "report.txt").read_text()


def test_solve_exhausted_iterations_exit_3(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"picard.max_iter": "1"})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert "did not converge" in capsys.readouterr().err
    # artifacts are still written for post-mortem inspection
    assert (out / "trace.csv").exists()
    report = (out / "report.txt").read_text().splitlines()
    assert "picard_stop_reason = max_iter" in report
    assert "picard_restarts = 0" in report


def test_solve_diverging_coupling_exit_3(tmp_path, capsys):
    """The perfbench solve-picard problem with a = 80: the Picard iteration
    diverges, and solve says so, with the iteration and delta, instead of
    blaming an inner lift."""
    consts = dict.fromkeys(("coupling.a1", "coupling.a2", "coupling.b1", "coupling.b2"), "80")
    cfg = cfg_file(
        tmp_path,
        {"grid.n": "32", "grid.box": "0, 1, 0, 1", "calibration.samples": "16", **consts},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.search(r"picard iteration diverged at iteration 7: delta grew to \S+ from ", err)
    assert re.search(r"; certificate invalid \(lambda = \S+ >= 1\)\n$", err)
    assert "solver failure" not in err and "Warning" not in err
    report = (out / "report.txt").read_text().splitlines()
    assert "picard_stop_reason = diverged" in report


# the calibrated lambda of this problem at n = 16 is about 1 (1.002 at seed 0)
def test_solve_picard_problem_few_iterations(tmp_path, capsys):
    """The perfbench solve-picard problem (power coupling a = 8 on the unit
    box) at n = 16: the Anderson-accelerated loop needs at most 12 Picard
    iterations, where plain Picard took 48.  With an invalid certificate
    the outcome line says so, and nothing goes to stderr."""
    consts = dict.fromkeys(("coupling.a1", "coupling.a2", "coupling.b1", "coupling.b2"), "8")
    cfg = cfg_file(
        tmp_path,
        {"grid.n": "16", "grid.box": "0, 1, 0, 1", "calibration.samples": "16", **consts},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = dict(
        line.split(" = ", 1) for line in (out / "report.txt").read_text().splitlines()
        if " = " in line and not line.startswith("#")
    )
    assert report["verdict"] == "solution"
    assert report["picard_stop_reason"] == "converged"
    assert 1 <= int(report["iterations"]) <= 12
    assert report["picard_restarts"] == "0"
    captured = capsys.readouterr()
    assert captured.err == ""
    if report["valid"] == "false":
        shown = re.search(r"; certificate invalid \(lambda = (\S+) >= 1\)\n$", captured.out)
        assert float(shown[1]) == float(report["lambda"])


def test_solve_classification_is_that_of_the_written_pair(tmp_path):
    """solve classifies the weak residual rows of its last Picard lift: the
    verdict and the largest residual it writes are, bit for bit, those of
    weak_residuals on the u and v it writes."""
    cfg = cfg_file(tmp_path, {"boundary.h": "1 + x*y", "boundary.k": "0.5 - x"})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    setup = load_setup(cfg)
    w = np.stack([load_field(str(out / name), setup.grid) for name in ("u.csv", "v.csv")])
    cls = weak_residuals(setup.grid, w, setup.coupling, setup.exponents.p, setup.verify_tol)
    report = dict(
        line.split(" = ", 1) for line in (out / "report.txt").read_text().splitlines()
        if " = " in line and not line.startswith("#")
    )
    assert report["verdict"] == cls.verdict
    assert report["max_abs_residual"] == f"{cls.max_abs_residual:.17g}"


def test_inner_solver_failure_exit_3(tmp_path, capsys):
    # tol = 1e-300 is unreachable, so the first calibration lift aborts
    cfg = cfg_file(tmp_path, {"solver.tol": "1e-300", "grid.n": "4"})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "solver failure: inner solve for the calibration component did not converge" in err
    assert "(max_iter at p = 2.2, n = 4, gradient norm" in err


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_coupling_undefined_on_iterate_exit_2(tmp_path, capsys, command):
    """phi = 1/(u-1) is undefined at u = 1, a state of the growth probe
    (and of every lift, since h = 1), so the probe that solve and certify
    run before they calibrate hits a domain error: an input error naming
    the sample point, not a bug with a traceback."""
    cfg = cfg_file(
        tmp_path,
        {"coupling.phi": "1/(u-1)", "coupling.psi": "0.5*v", "grid.n": "7"},
        drop=("coupling.family",),
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "input error: quotient is not finite at sample point (x, y, u, v) = (0, 0, 1, -1)\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_understated_growth_exit_2(tmp_path, capsys, command):
    """phi = u^5 with a1 = a2 = 0.5 at p = 2.2: |phi| = 1 exceeds the
    declared bound 0.5 |u|^1.2 + 0.5 |v|^1.2 by 0.5 at u = -1, v = 0, so
    the growth probe stops solve and certify before they calibrate,
    naming the constants, the excess and the sample point."""
    cfg = cfg_file(
        tmp_path,
        {"coupling.phi": "u*u*u*u*u", "coupling.psi": "v"},
        drop=("coupling.family",),
    )
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: coupling.a1 and coupling.a2 understate the growth of coupling.phi: "
        "|phi| exceeds its bound by 0.5 at the sample point (x, y, u, v) = (0, 0, -1, 0)\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# config errors


def test_unknown_key_exit_2(tmp_path, capsys):
    """A misspelt key, and the Picard damping, calibration seed and output
    directory, which are no settings (Picard sets its own damping, --seed
    the seed and --out the directory)."""
    path = tmp_path / "bad.cfg"
    for line in ("grid.m = 8", "picard.theta = 0.5", "calibration.seed = 1", "output.dir = out"):
        path.write_text(line + "\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert f"unknown key {line.split(' = ')[0]!r}" in capsys.readouterr().err


def test_missing_key_exit_2(tmp_path, capsys):
    cfg = cfg_file(tmp_path, drop=("boundary.k",))
    assert main(["solve", "--config", cfg]) == 2
    assert "boundary.k" in capsys.readouterr().err


def test_picard_max_iter_zero_exit_2(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"picard.max_iter": "0"})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "picard.max_iter" in err


@pytest.mark.parametrize("value", ["9", "0"])
def test_calibration_samples_below_minimum_exit_2(tmp_path, capsys, value):
    cfg = cfg_file(tmp_path, {"calibration.samples": value})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: calibration.samples: must be >= 10, got {value}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_certificate_trials_nonpositive_exit_2(tmp_path, capsys, value):
    """Rejected with the config, before calibration runs, whatever the
    certificate would be: `valid = false` on the unit box with a = 8."""
    strong = {f"coupling.{k}": "8" for k in ("a1", "a2", "b1", "b2")}
    for overrides in ({}, {"grid.box": "0, 1, 0, 1", **strong}):
        cfg = cfg_file(tmp_path, {"certificate.trials": value, **overrides})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: certificate.trials: must be >= 1, got {value}" in err
        assert not (tmp_path / "out").exists()


# values outside their key's range; a grid with n = 1 has no interior node
TOLERANCE_CASES = [
    (value, key)
    for key in ("solver.tol", "picard.tol", "verify.tol")
    for value in ("0", "-1e-8", "nan", "inf")
] + [(value, "study.min_order") for value in ("nan", "inf", "-inf")] + [
    ("1", "grid.n"), ("0", "coupling.eps"), ("nan", "coupling.eps")
]


@pytest.mark.parametrize("value, key", TOLERANCE_CASES)
def test_nonpositive_tolerance_exit_2(tmp_path, capsys, key, value):
    cfg = cfg_file(tmp_path, {key: value})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}" in err


@pytest.mark.parametrize("command", ["certify", "solve"])
@pytest.mark.parametrize("eps", ["1e-300", "1e300"])
def test_eps_whose_split_factors_overflow_exit_2(tmp_path, capsys, command, eps):
    """A positive, finite coupling.eps with (1 + 1/eps)^(p-1) or
    (1 + eps)^(p-1) beyond the floats is a config error naming the key,
    before any lift or output, not an OverflowError traceback after the
    calibration."""
    cfg = cfg_file(tmp_path, {"coupling.eps": eps})
    lifts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plap, "_newton", lambda *args: lifts.append(args))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: coupling.eps: eps must be positive, with (1 + eps)^(p-1) and "
        f"(1 + 1/eps)^(p-1) finite, got {float(eps)!r} at p = 2.2\n"
    )
    assert lifts == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["certify", "solve"])
@pytest.mark.parametrize(
    "box, area", [("0, 1e200, 0, 1e200", "inf"), ("0, 1e-200, 0, 1e-200", "0.0")]
)
def test_box_whose_element_area_is_not_normal_exit_2(tmp_path, capsys, command, box, area):
    """Finite box sides whose element area overflows (once numpy warnings,
    then exit 3 with a nan gradient norm) or underflows (once exit 2 with
    "calibration sources must be nonzero") are a config error naming the
    box, before any lift or output."""
    cfg = cfg_file(tmp_path, {"grid.box": box})
    lifts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plap, "_newton", lambda *args: lifts.append(args))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid: box (0.0, ")
    assert err.endswith(f"at n = 8 gives the element area {area}, not a positive normal float\n")
    assert err.count("\n") == 1
    assert lifts == [] and not (tmp_path / "out").exists()


def test_negative_seed_exit_2(tmp_path, capsys):
    """Rejected with the config, naming the flag, before numpy sees it."""
    cfg = cfg_file(tmp_path)
    argv = ["certify", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "config error: --seed: must be a non-negative integer, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("box", ["0, nan, 0, 0.3", "0, inf, 0, 0.3"])
def test_nonfinite_box_exit_2(tmp_path, capsys, box):
    """A box entry nan or inf is rejected with the config, before any lift
    sees the grid it would give."""
    cfg = cfg_file(tmp_path, {"grid.box": box})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid: box entries must be finite")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["a1", "a2", "b1", "b2"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_power_constant_exit_2(tmp_path, capsys, name, value):
    """The constants are checked before the power family turns them into an
    expression, so `nan` is not parsed as an identifier."""
    cfg = cfg_file(tmp_path, {f"coupling.{name}": value})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: coupling.{name}: must be finite, got '{value}'" in err
    assert "Traceback" not in err


def test_unexpected_exception_prints_traceback(tmp_path, capsys, monkeypatch):
    """A bug (here a KeyError) still exits 2 but is not dressed up as an
    input error: its traceback goes to stderr."""
    import plapsys.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("missing-internal-key")

    monkeypatch.setattr(cli, "load_setup", broken)
    cfg = cfg_file(tmp_path)
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "KeyError" in err
    assert "missing-internal-key" in err
    assert "input error" not in err


def test_boundary_domain_error_names_node_exit_2(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"boundary.h": "log(x)"})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: boundary.h: log is not finite" in err
    assert "at node 0 (0, 0)" in err


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"boundary.h": "1e999"}, "boundary.h"),
        ({"coupling.family": "", "coupling.phi": "u+1e999", "coupling.psi": "v"}, "coupling.phi"),
    ],
)
def test_nonfinite_literal_names_key_exit_2(tmp_path, capsys, overrides, key):
    cfg = cfg_file(tmp_path, overrides)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}: number 1e999 is not finite" in err


def test_syntax_error_prints_its_position_once(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"boundary.h": "1e999"})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "config error: boundary.h: number 1e999 is not finite (offset 0)"


def test_inadmissible_exponents_exit_2(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"exponents.p": "2.0", "exponents.r": "1.5"})
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "exponents" in err and "admissible" in err


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_duplicate_key_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.cfg"
    path.write_text("grid.n = 8\ngrid.n = 16\n")
    assert main(["solve", "--config", str(path)]) == 2
    assert "duplicate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certify


def test_certify_valid_certificate(tmp_path, capsys):
    cfg = cfg_file(tmp_path)
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "certificate.txt").read_text()
    assert text.startswith("# seed = 0\n")
    assert "valid = true" in text
    assert "# ball_trials = 10" in text
    assert "# ball_violations = 0" in text
    assert "certificate valid" in capsys.readouterr().out


def test_certify_zero_coupling(tmp_path):
    cfg = cfg_file(
        tmp_path,
        {"coupling.family": "zero", "boundary.h": "0", "boundary.k": "0"},
        drop=("coupling.a1", "coupling.a2", "coupling.b1", "coupling.b2"),
    )
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "certificate.txt").read_text()
    assert "lambda = 0" in text
    assert "M0 = 0" in text


def test_certify_invalid_lambda_is_measurement(tmp_path, capsys):
    over = {k: "1000000.0" for k in ("coupling.a1", "coupling.a2", "coupling.b1", "coupling.b2")}
    cfg = cfg_file(tmp_path, over)
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "certificate.txt").read_text()
    assert "valid = false" in text
    assert "M0 = nan" in text
    assert "ball_trials" not in text
    assert "not a failure" in capsys.readouterr().out


def test_certify_reruns_byte_identical(tmp_path):
    cfg = cfg_file(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["certify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["certify", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "certificate.txt").read_bytes() == (out2 / "certificate.txt").read_bytes()


@pytest.mark.parametrize(
    "command, cfg, files",
    [
        ("certify", "certify-n16.cfg", ("certificate.txt",)),
        ("solve", "solve-picard.cfg", ("u.csv", "v.csv", "trace.csv", "report.txt")),
    ],
)
def test_artifacts_do_not_depend_on_the_chunk_width(tmp_path, monkeypatch, command, cfg, files):
    """Every lift row is that row lifted alone, so the benchmark's configs
    write the same files, byte for byte, at the chunk width 3500 (12 rows
    at n = 16, 3 at n = 32) and at the current one."""
    written = []
    for width in (3500, plap.BATCH_NODES):
        monkeypatch.setattr(plap, "BATCH_NODES", width)
        out = tmp_path / str(width)
        args = [command, "--config", os.path.join(BENCH_CONFIGS, cfg), "--seed", "0"]
        assert main(args + ["--out", str(out)]) == 0
        written.append([(out / name).read_bytes() for name in files])
    assert written[0] == written[1]


@pytest.mark.parametrize("command", ["certify", "solve"])
def test_top_of_the_r_interval_exits_0(tmp_path, capsys, command):
    """certify-n16.cfg at r = 1.36, where s = 612: the L^s norms of the
    calibration lifts underflowed to 0 and certify and solve exited 2 with
    "C must be positive and finite, got 0.0"."""
    with open(os.path.join(BENCH_CONFIGS, "certify-n16.cfg"), encoding="utf-8") as fh:
        text = fh.read().replace("exponents.r = 1.25", "exponents.r = 1.36")
    cfg = tmp_path / "r136.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "lambda = 0.00569449" in captured.out


SWEEP_DP = [(2, 1.2), (2, 1.5), (2, 1.9), (3, 1.2), (3, 1.5), (3, 2.2), (3, 2.8), (4, 3.5)]


def _sweep_coupling(name, p):
    if name.startswith("power"):
        a = name.split("-")[1]
        return {"coupling.family": "power", **{f"coupling.{c}": a for c in ("a1", "a2", "b1", "b2")}}
    q = repr(p - 1.0)
    return {
        "coupling.phi": f"2*odd_pow(u,{q}) - odd_pow(v,{q})",
        "coupling.psi": f"2*odd_pow(v,{q}) - odd_pow(u,{q})",
        "coupling.a1": "2", "coupling.a2": "1", "coupling.b1": "2", "coupling.b2": "1",
    }


@pytest.mark.parametrize("command", ["certify", "solve"])
@pytest.mark.parametrize("coupling", ["power-0.5", "power-8", "competitive"])
@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("d, p", SWEEP_DP)
def test_admissible_budget_sweep(tmp_path, capsys, d, p, end, coupling, command):
    """certify and solve on the unit box at n = 16 with h = 1 + xy and
    k = 2 - x, at both ends of the admissible r-interval (its lower end and
    0.999 d/p) and for three couplings: none exits 2, nothing shows a
    traceback or a warning, and each exit 3 or 4 gives its reason.

    Two sets of cases are known failures of the solver, not of the input:
    at p = 1.2, Picard exhausts max_iter under the power coupling a = 8
    (200 iterations took about 4 s, so they run with max_iter 5), and the
    lifts of the power coupling a = 0.5 end in a supersolution."""
    lo, hi = admissible_r_range(d, p)
    cfg = {
        "grid.n": "16",
        "grid.box": "0, 1, 0, 1",
        "exponents.d": str(d),
        "exponents.p": repr(p),
        "exponents.r": repr(lo if end == "lo" else 0.999 * hi),
        "boundary.h": "1 + x*y",
        "boundary.k": "2 - x",
        **_sweep_coupling(coupling, p),
    }
    expected = 0
    if command == "solve" and p == 1.2 and coupling == "power-8":
        cfg["picard.max_iter"] = "5"
        expected = 3
    elif command == "solve" and p == 1.2 and coupling == "power-0.5":
        expected = 4
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert caught == []
    assert "Traceback" not in err and "Warning" not in err
    assert code == expected, err
    if expected == 3:
        assert "picard iteration did not converge in 5 iterations" in err
    elif expected == 4:
        assert "result classified 'supersolution', not a solution" in err
    else:
        assert err == ""


# ---------------------------------------------------------------------------
# verify


def test_verify_roundtrip_solution(tmp_path, capsys):
    cfg = cfg_file(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    code = main([
        "verify", "--config", cfg, "--out", str(out),
        str(out / "u.csv"), str(out / "v.csv"),
    ])
    assert code == 0
    assert (out / "classification.csv").exists()
    assert "verdict: solution" in capsys.readouterr().out


def test_verify_perturbed_field_exit_4(tmp_path, capsys):
    cfg = cfg_file(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    g = Grid(2, (0.0, 0.3, 0.0, 0.3), 8)
    vals = load_field(str(out / "u.csv"), g).copy()
    vals[g.interior[len(g.interior) // 2]] += 0.1
    save_field(str(out / "u_bad.csv"), g, vals)
    code = main([
        "verify", "--config", cfg, "--out", str(out),
        str(out / "u_bad.csv"), str(out / "v.csv"),
    ])
    assert code == 4
    assert "offending hats" in capsys.readouterr().out


def zero_cfg(tmp_path):
    return cfg_file(
        tmp_path,
        {
            "grid.box": "0, 1, 0, 1",
            "exponents.p": "2.0",
            "exponents.r": "1.3",
            "coupling.family": "zero",
            "boundary.h": "0",
            "boundary.k": "0",
        },
        drop=("coupling.a1", "coupling.a2", "coupling.b1", "coupling.b2"),
        name="zero.cfg",
    )


def write_quadratic_pair(tmp_path):
    g = Grid(2, (0.0, 1.0, 0.0, 1.0), 8)
    x, y = g.coords.T
    save_field(str(tmp_path / "uq.csv"), g, -x * x - y * y)
    save_field(str(tmp_path / "vq.csv"), g, np.zeros(g.n_nodes))
    return str(tmp_path / "uq.csv"), str(tmp_path / "vq.csv")


def test_verify_supersolution_without_shift_exit_4(tmp_path, capsys):
    cfg = zero_cfg(tmp_path)
    u_csv, v_csv = write_quadratic_pair(tmp_path)
    code = main(["verify", "--config", cfg, "--out", str(tmp_path), u_csv, v_csv])
    assert code == 4
    assert "verdict: supersolution" in capsys.readouterr().out


def test_verify_shift_test_passes(tmp_path, capsys):
    cfg = zero_cfg(tmp_path)
    u_csv, v_csv = write_quadratic_pair(tmp_path)
    code = main([
        "verify", "--config", cfg, "--out", str(tmp_path),
        u_csv, v_csv, "--alpha", "1.0",
    ])
    assert code == 0
    assert "up: supersolution" in capsys.readouterr().out


def test_verify_shift_precondition_failure_exit_4(tmp_path, capsys):
    cfg = cfg_file(
        tmp_path,
        {
            "grid.box": "0, 1, 0, 1",
            "exponents.p": "2.0",
            "exponents.r": "1.3",
            "coupling.family": "",
            "coupling.phi": "0-u",
            "coupling.psi": "0",
            "coupling.a1": "1",
            "coupling.a2": "0",
            "coupling.b1": "0",
            "coupling.b2": "0",
            "boundary.h": "0",
            "boundary.k": "0",
        },
        name="nonmono.cfg",
    )
    u_csv, v_csv = write_quadratic_pair(tmp_path)
    code = main([
        "verify", "--config", cfg, "--out", str(tmp_path),
        u_csv, v_csv, "--alpha", "1.0",
    ])
    assert code == 4
    assert "precondition" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--alpha", "nan"), ("--alpha", "inf"), ("--beta", "nan"), ("--beta", "inf")]
)
def test_shift_test_nonfinite_alpha_beta_exit_2(tmp_path, capsys, flag, value):
    cfg = zero_cfg(tmp_path)
    u_csv, v_csv = write_quadratic_pair(tmp_path)
    shift = {"--alpha": "1.0", "--beta": "0.0", flag: value}
    code = main([
        "verify", "--config", cfg, "--out", str(tmp_path), u_csv, v_csv,
        "--alpha", shift["--alpha"], "--beta", shift["--beta"],
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"input error: {flag} must be" in err
    assert value in err
    assert "Traceback" not in err


def test_verify_beta_without_alpha_exit_2(tmp_path, capsys):
    """--beta only shifts v in the shift test: without --alpha it is an
    input error that names it, not a plain classification."""
    cfg = zero_cfg(tmp_path)
    u_csv, v_csv = write_quadratic_pair(tmp_path)
    out = tmp_path / "out"
    code = main(["verify", "--config", cfg, "--out", str(out), u_csv, v_csv, "--beta", "0.05"])
    assert code == 2
    captured = capsys.readouterr()
    assert "input error: --beta" in captured.err and "--alpha" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("flag, value", [("--alpha", "0"), ("--alpha", "-1"), ("--beta", "-1")])
def test_verify_bad_shift_flag_exits_before_classifying(tmp_path, capsys, flag, value):
    """A bad --alpha or --beta is rejected, naming the flag, before any
    field is read: no classification.csv and no verdict."""
    cfg = zero_cfg(tmp_path)
    u_csv, v_csv = write_quadratic_pair(tmp_path)
    out = tmp_path / "out"
    shift = {"--alpha": "0.1", "--beta": "0.05", flag: value}
    code = main([
        "verify", "--config", cfg, "--out", str(out), u_csv, v_csv,
        "--alpha", shift["--alpha"], "--beta", shift["--beta"],
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert f"input error: {flag} must be" in captured.err
    assert captured.out == "" and not out.exists()


def test_verify_malformed_field_exit_2(tmp_path, capsys):
    """A short file, an unparsable value and a nan value: each error names
    the file, and a bad value its line."""
    cfg = cfg_file(tmp_path)
    bad = tmp_path / "short.csv"
    bad.write_text("x,y,value\n0,0,1\n")
    assert main(["verify", "--config", cfg, str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert str(bad) in err
    good = tmp_path / "good.csv"
    g = Grid(2, (0.0, 0.3, 0.0, 0.3), 8)
    save_field(good, g, 1 + g.coords[:, 0] * g.coords[:, 1])
    lines = good.read_text().splitlines()
    for cell, message in (
        ("abc", r"line 5: not a number in '0\.11249999999999999,0,abc'"),
        ("nan", r"line 5: value nan is not finite"),
    ):
        bad = tmp_path / f"{cell}.csv"
        bad.write_text("\n".join(lines[:4] + [lines[4].rsplit(",", 1)[0] + "," + cell] + lines[5:]))
        assert main(["verify", "--config", cfg, str(bad), str(good)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"input error: {re.escape(str(bad))}: {message}\n", err)


def test_verify_pair_from_another_box_exit_2(tmp_path, capsys):
    """u.csv and v.csv written on the 0.3 box do not verify against a config
    on the unit box with the same n; the error names u.csv and its line 3."""
    out = tmp_path / "out"
    small = cfg_file(tmp_path, {"grid.n": "6"}, name="small.cfg")
    assert main(["solve", "--config", small, "--out", str(out)]) == 0
    unit = cfg_file(tmp_path, {"grid.n": "6", "grid.box": "0, 1, 0, 1"}, name="unit.cfg")
    code = main(["verify", "--config", unit, "--out", str(tmp_path / "v"),
                 str(out / "u.csv"), str(out / "v.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"input error: {out / 'u.csv'}: line 3: coordinates (0.04999" in err
    assert "are not those of grid node 1 (0.16666666666666666, 0.0)" in err
    assert not (tmp_path / "v").exists()


def test_verify_missing_field_file_exit_2(tmp_path, capsys):
    cfg = cfg_file(tmp_path)
    missing = str(tmp_path / "nope.csv")
    assert main(["verify", "--config", cfg, missing, missing]) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# study


def test_study_sinsin_exit_0(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"study.case": "sinsin"})
    out = tmp_path / "out"
    code = main(["study", "--config", cfg, "--out", str(out), "--resolutions", "8,16,32"])
    assert code == 0
    assert "fitted order" in capsys.readouterr().out
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[0] == "n,error_max,error_l2,order"
    assert len(lines) == 4
    assert lines[1].startswith("8,")


def test_study_affine_exact(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"study.case": "affine"})
    code = main(["study", "--config", cfg, "--out", str(tmp_path), "--resolutions", "4,8,12"])
    assert code == 0
    assert "reproduced exactly" in capsys.readouterr().out


def test_study_below_threshold_exit_4(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"study.case": "sinsin", "study.min_order": "3.0"})
    code = main(["study", "--config", cfg, "--out", str(tmp_path), "--resolutions", "8,16,32"])
    assert code == 4
    assert "below threshold" in capsys.readouterr().err


def test_study_requires_case(tmp_path, capsys):
    cfg = cfg_file(tmp_path)
    code = main(["study", "--config", cfg, "--out", str(tmp_path), "--resolutions", "8,16,32"])
    assert code == 2
    assert "study.case" in capsys.readouterr().err


def test_study_bad_resolutions_exit_2(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"study.case": "sinsin"})
    code = main(["study", "--config", cfg, "--out", str(tmp_path), "--resolutions", "8,x"])
    assert code == 2
    assert "comma-separated integers" in capsys.readouterr().err
    code = main(["study", "--config", cfg, "--out", str(tmp_path), "--resolutions", "1,2,4"])
    assert code == 2
    assert "input error: resolutions must be >= 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry points


def test_module_help_lists_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "plapsys", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("solve", "certify", "verify", "study"):
        assert name in proc.stdout


def test_cli_import_loads_no_scipy():
    """The runtime is numpy-only: scipy is a test dependency."""
    code = (
        "import sys, plapsys.cli; "
        "bad = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "sys.exit(f'plapsys.cli loads {bad}' if bad else 0)"
    )
    src = os.path.dirname(os.path.dirname(plapsys.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
