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
import os
import sys
import traceback

import numpy as np

from .config import ConfigError, Setup, load_setup
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


def _calibrated_certificate(setup: Setup):
    cal_ss, ball_ss = np.random.SeedSequence(setup.seed).spawn(2)
    C = calibrate_C(
        setup.grid, setup.exponents, setup.calib_samples, cal_ss, setup.solver_tol
    )
    return certify(setup.problem, C, setup.calib_samples), ball_ss


def cmd_solve(args) -> int:
    setup = load_setup(args.config, args.seed, args.out)
    cert, _ = _calibrated_certificate(setup)
    u, v, trace = picard_solve(
        setup.problem,
        cert,
        theta=setup.picard_theta,
        tol=setup.picard_tol,
        max_iter=setup.picard_max_iter,
        solver_tol=setup.solver_tol,
    )
    cls = classify(setup.grid, trace.residuals, setup.verify_tol)

    save_field(_out_path(setup, "u.csv"), u)
    save_field(_out_path(setup, "v.csv"), v)
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

    if trace.stop_reason == "diverged":
        first, last = trace.rows[0], trace.rows[-2]
        print(
            f"picard iteration diverged at iteration {last.index}: delta grew to "
            f"{last.delta:.3e} from {first.delta:.3e} at iteration {first.index}",
            file=sys.stderr,
        )
        return 3
    if not trace.converged:
        print(
            f"picard iteration did not converge in {setup.picard_max_iter} iterations "
            f"(last delta {trace.rows[-1].delta:.3e})",
            file=sys.stderr,
        )
        return 3
    if cls.verdict != "solution":
        bad = cls.offending_hats()
        print(
            f"result classified {cls.verdict!r}, not a solution at tol "
            f"{setup.verify_tol:g}; offending hats {bad[:10]}"
            + ("..." if len(bad) > 10 else ""),
            file=sys.stderr,
        )
        return 4
    print(
        f"solution in {trace.iterations} iterations; "
        f"max residual {cls.max_abs_residual:.3e}; lambda = {cert.lam:.6g}"
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


def cmd_verify(args) -> int:
    setup = load_setup(args.config, args.seed, args.out)
    u = load_field(args.u_csv, setup.grid)
    v = load_field(args.v_csv, setup.grid)
    cls = weak_residuals(u, v, setup.coupling, setup.exponents.p, setup.verify_tol)
    _write_text(_out_path(setup, "classification.csv"), cls.csv_lines())
    print(f"verdict: {cls.verdict} (max residual {cls.max_abs_residual:.3e})")
    if cls.verdict != "solution":
        bad = cls.offending_hats()
        print(f"offending hats: {bad[:10]}" + ("..." if len(bad) > 10 else ""))

    if args.alpha is None:
        return 0 if cls.verdict == "solution" else 4
    rep = shift_test(
        u, v, setup.coupling, setup.exponents.p, args.alpha, args.beta,
        setup.verify_tol,
    )
    if not rep.precondition_ok:
        print(f"shift test precondition failed: {rep.reason}", file=sys.stderr)
        return 4
    outcome = ", ".join(f"{d}: {verdict}" for d, verdict in rep.shifted_verdicts)
    print(f"shift test (alpha={args.alpha}, beta={args.beta}): {outcome}")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapsys",
        description="Coupled p-Laplacian Dirichlet systems: solve, certify, verify, study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key-value config file")
        p.add_argument("--out", default=None, help="output directory (default from config)")
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
    p_verify.add_argument("--beta", type=float, default=0.0, help="shift for v (default 0)")
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
