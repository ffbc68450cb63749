"""Command-line driver: solve / certify / verify / study.

Every command reads one flat key-value config (see config module), writes
its artifacts into the output directory, prints a one-line outcome, and
exits with 0 (success), 2 (config or input error, such as a coupling that
is undefined on an iterate), 3 (a solver failed to converge, or the Picard
iteration diverged), or 4 (a
verification check failed).  Any other exception is a
bug: its traceback goes to stderr before the `error:` line, and it exits 2.
All CSV output uses `,` separators, `.` decimals, LF line endings, and 17
significant digits, so identical config and seed reproduce files byte for
byte.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import traceback

import numpy as np

from .config import ConfigError, Setup, load_setup
from .coupling import GROWTH_TOL, growth_excess
from .expr import EvaluationError
from .field import load_field, save_field
from .fixpoint import (
    calibrate_C,
    certify,
    check_ball_invariance,
    picard_solve,
)
from .verify import classify, convergence_study, shift_test, weak_residuals


def _write_text(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_path(setup: Setup, name: str) -> str:
    os.makedirs(setup.out_dir, exist_ok=True)
    return os.path.join(setup.out_dir, name)


def _probe_growth(setup: Setup) -> None:
    """Probe the declared growth constants of an explicit coupling on the
    box and the states in [-m, m], m the largest of 1 and the magnitudes of
    the boundary values, which every lift attains: an excess above
    GROWTH_TOL is a config error naming the constants, the excess and the
    sample point.  The power family attains its bound with equality and is
    not probed."""
    if not setup.explicit_coupling:
        return
    B = setup.grid.boundary
    m = max(1.0, *(float(np.abs(w.values[B]).max()) for w in (setup.problem.h, setup.problem.k)))
    excess, name, point = growth_excess(setup.coupling, setup.grid.box, (-m, m), (-m, m))
    if excess > GROWTH_TOL:
        consts = "coupling.a1 and coupling.a2" if name == "phi" else "coupling.b1 and coupling.b2"
        where = ", ".join(f"{c:.17g}" for c in point)
        raise ConfigError(
            f"{consts} understate the growth of coupling.{name}: |{name}| exceeds its "
            f"bound by {excess:.6g} at the sample point (x, y, u, v) = ({where})"
        )


def _calibrated_certificate(setup: Setup):
    _probe_growth(setup)
    cal_ss, ball_ss = np.random.SeedSequence(setup.seed).spawn(2)
    C = calibrate_C(
        setup.grid, setup.exponents, setup.calib_samples, cal_ss, setup.solver_tol
    )
    return certify(setup.problem, C, setup.calib_samples), ball_ss


def cmd_solve(args) -> int:
    setup = load_setup(args.config, args.seed, args.out)
    cert, _ = _calibrated_certificate(setup)
    w, trace = picard_solve(
        setup.problem,
        tol=setup.picard_tol,
        max_iter=setup.picard_max_iter,
        solver_tol=setup.solver_tol,
    )
    cls = classify(setup.grid, trace.residuals, setup.verify_tol)

    save_field(_out_path(setup, "u.csv"), setup.grid, w[0])
    save_field(_out_path(setup, "v.csv"), setup.grid, w[1])
    _write_text(_out_path(setup, "trace.csv"), trace.csv_lines())
    report = [
        "command = solve",
        f"seed = {setup.seed}",
        f"iterations = {trace.iterations}",
        f"picard_converged = {'true' if trace.converged else 'false'}",
        f"picard_stop_reason = {trace.stop_reason}",
        f"picard_restarts = {trace.restarts}",
        f"verdict = {cls.verdict}",
        f"max_abs_residual = {cls.max_abs_residual:.17g}",
    ]
    _write_text(_out_path(setup, "report.txt"), report + cert.to_text().splitlines())

    # the iteration runs without a smallness guarantee when the certificate
    # is invalid; every outcome line says so
    invalid = "" if cert.valid else f"; certificate invalid (lambda = {float(cert.lam)!r} >= 1)"
    if trace.stop_reason == "diverged":
        first, last = trace.rows[0], trace.rows[-2]
        print(
            f"picard iteration diverged at iteration {last.index}: delta grew to "
            f"{last.delta:.3e} from {first.delta:.3e} at iteration {first.index}{invalid}",
            file=sys.stderr,
        )
        return 3
    if not trace.converged:
        print(
            f"picard iteration did not converge in {setup.picard_max_iter} iterations "
            f"(last delta {trace.rows[-1].delta:.3e}){invalid}",
            file=sys.stderr,
        )
        return 3
    if cls.verdict != "solution":
        bad = cls.offending_hats()
        print(
            f"result classified {cls.verdict!r}, not a solution at tol "
            f"{setup.verify_tol:g}; offending hats {bad[:10]}"
            + ("..." if len(bad) > 10 else "") + invalid,
            file=sys.stderr,
        )
        return 4
    print(
        f"solution in {trace.iterations} iterations; max residual {cls.max_abs_residual:.3e}"
        + (invalid or f"; lambda = {cert.lam:.6g}")
    )
    return 0


def cmd_certify(args) -> int:
    setup = load_setup(args.config, args.seed, args.out)
    cert, ball_ss = _calibrated_certificate(setup)
    lines = [f"# seed = {setup.seed}"] + cert.to_text().splitlines()
    ball = None
    if cert.valid:
        ball = check_ball_invariance(
            setup.problem, cert, cert.M0, setup.ball_trials, ball_ss, setup.solver_tol
        )
        lines += [
            f"# ball_trials = {ball.trials}",
            f"# ball_max_output_norm = {ball.max_output_norm:.17g}",
            f"# ball_violations = {len(ball.violations)}",
        ]
    _write_text(_out_path(setup, "certificate.txt"), lines)

    if not cert.valid:
        print(
            f"certificate recorded invalid: lambda = {float(cert.lam)!r} >= 1 "
            f"(measurement, not a failure)"
        )
        return 0
    if not ball.passed:
        print(
            f"ball invariance failed: {len(ball.violations)} of {ball.trials} "
            f"trials exceeded M0 = {cert.M0:.6g}",
            file=sys.stderr,
        )
        return 4
    print(
        f"certificate valid: lambda = {cert.lam:.6g}, M0 = {cert.M0:.6g}; "
        f"{ball.trials} ball trials passed"
    )
    return 0


def _shift_flags(args) -> tuple[float, float] | None:
    """(alpha, beta) of the shift test, or None without --alpha; checked
    before any field is read, each error naming its flag."""
    if args.alpha is None:
        if args.beta is not None:
            raise ValueError("--beta sets the shift test's v shift and needs --alpha")
        return None
    beta = 0.0 if args.beta is None else args.beta
    if not (math.isfinite(args.alpha) and args.alpha > 0.0):
        raise ValueError(f"--alpha must be positive and finite, got {args.alpha}")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"--beta must be nonnegative and finite, got {beta}")
    return args.alpha, beta


def cmd_verify(args) -> int:
    shift = _shift_flags(args)
    setup = load_setup(args.config, args.seed, args.out)
    w = np.stack([load_field(path, setup.grid) for path in (args.u_csv, args.v_csv)])
    cls = weak_residuals(setup.grid, w, setup.coupling, setup.exponents.p, setup.verify_tol)
    _write_text(_out_path(setup, "classification.csv"), cls.csv_lines())
    print(f"verdict: {cls.verdict} (max residual {cls.max_abs_residual:.3e})")
    if cls.verdict != "solution":
        bad = cls.offending_hats()
        print(f"offending hats: {bad[:10]}" + ("..." if len(bad) > 10 else ""))

    if shift is None:
        return 0 if cls.verdict == "solution" else 4
    alpha, beta = shift
    rep = shift_test(setup.grid, w, cls, setup.coupling, setup.exponents.p, alpha, beta)
    if not rep.precondition_ok:
        print(f"shift test precondition failed: {rep.reason}", file=sys.stderr)
        return 4
    outcome = ", ".join(f"{d}: {verdict}" for d, verdict in rep.shifted_verdicts)
    print(f"shift test (alpha={alpha}, beta={beta}): {outcome}")
    return 0 if rep.passed else 4


def cmd_study(args) -> int:
    setup = load_setup(args.config, args.seed, args.out)
    if not setup.study_case:
        raise ConfigError("study.case is required for the study command")
    try:
        resolutions = [int(s) for s in args.resolutions.split(",")]
    except ValueError:
        raise ConfigError(
            f"--resolutions: expected comma-separated integers, got {args.resolutions!r}"
        ) from None
    rep = convergence_study(setup.study_case, resolutions, setup.solver_tol)
    _write_text(_out_path(setup, "study.csv"), rep.csv_lines())
    if rep.exact:
        print(f"case {rep.case}: reproduced exactly at all resolutions")
        return 0
    print(f"case {rep.case}: fitted order {rep.fitted_order:.3f}")
    if rep.fitted_order < setup.study_min_order:
        print(
            f"fitted order {rep.fitted_order:.3f} below threshold "
            f"{setup.study_min_order:g}",
            file=sys.stderr,
        )
        return 4
    return 0


@functools.cache  # built at the first main call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapsys",
        description="Coupled p-Laplacian Dirichlet systems: solve, certify, verify, study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key-value config file")
        p.add_argument("--out", default=".", help="output directory (default: the current one)")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed override")

    p_solve = sub.add_parser("solve", help="run the fixed-point solver")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("certify", help="calibrate and check the smallness certificate")
    common(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_verify = sub.add_parser("verify", help="classify a saved pair of fields")
    common(p_verify)
    p_verify.add_argument("u_csv", help="u field CSV")
    p_verify.add_argument("v_csv", help="v field CSV")
    p_verify.add_argument("--alpha", type=float, default=None, help="run the shift test with this alpha > 0")
    p_verify.add_argument("--beta", type=float, default=None, help="shift of v (needs --alpha; default 0)")
    p_verify.set_defaults(func=cmd_verify)

    p_study = sub.add_parser("study", help="convergence study on a built-in case")
    common(p_study)
    p_study.add_argument("--resolutions", required=True, help="comma-separated grid sizes, e.g. 16,32,64")
    p_study.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, EvaluationError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:  # SolverAbort included
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # the exit-code contract is total; a bug shows its traceback
        traceback.print_exc()
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
