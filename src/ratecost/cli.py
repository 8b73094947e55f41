"""Command-line surface: solve, synth, lqg, and rd pipelines.

Outputs are written atomically (temp file then rename).  Exit codes:
0 success, 2 spec error or invalid option, 3 infeasible budget, 4 solver
non-convergence, 5 verification failure (an exactly checked invariant on
any command, or a simulated round trip).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import tempfile

from .lqg import CurveDomainError, RiccatiError, ScalarLqgSpec, rate_cost_curve, \
    riccati_solve
from .coder import CodingError
from .scheme import (
    DecodeMismatchError,
    SchemeOptions,
    check_trial_count,
    run_trials,
    synthesize,
    verify_sandwich,
)
from .timeshare import InfeasibleBarycenterError
from .solver import (
    InfeasibleCostError,
    RateCostCurve,
    SolverOptions,
    cost_floor_point,
    solve_rate_cost,
    sweep_curve,
)
from .specio import SpecFileError, load_spec
from .system import (
    BudgetExceededError,
    DimensionMismatchError,
    InvariantError,
    NormalizationError,
)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VERIFY = 5


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ratecost-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_out(out_dir: str) -> None:
    """Refuse, by stat alone and before any work, an ``--out`` that is a file
    or lies under one: the nearest of ``out_dir`` and its parents that
    exists must be a directory.  What only the write can find, such as
    permissions or a full disk, is left to ``_write_outputs``."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)    # the root exists, so this ends
    if not os.path.isdir(path):
        reason = errno.EEXIST if path == os.path.abspath(out_dir) else errno.ENOTDIR
        raise ValueError(f"--out {out_dir}: {os.strerror(reason)}")


def _write_outputs(out_dir: str, files: dict[str, str]) -> None:
    """Write each named text into ``out_dir``, made if missing.  A directory
    that cannot be made or written is an invalid ``--out`` (exit 2)."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in files.items():
            _write_atomic(os.path.join(out_dir, name), text)
    except OSError as err:
        raise ValueError(f"--out {out_dir}: {err.strerror or err}") from err


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _json_float(x: float):
    """JSON value of a float that may be non-finite (the cost-floor anchor's
    infinite multiplier, the gap of a point no solver produced): null."""
    return x if math.isfinite(x) else None


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as err:
        raise ValueError(f"grid '{text}' is not a comma-separated float list") \
            from err


def _solver_options(args) -> SolverOptions:
    return SolverOptions(seed=args.seed, restarts=args.restarts)


def _solver_record(point) -> dict:
    """Multiplier and convergence record of one operating point."""
    return {"mu": _json_float(point.multiplier), "converged": point.converged,
            "iterations": point.iterations, "gap": _json_float(point.gap)}


def _curve_rows(curve: RateCostCurve) -> list[str]:
    rows = ["D,rate_bits,mu"]
    for p in curve.points:
        rows.append(f"{p.cost!r},{p.rate!r},{p.multiplier!r}")
    return rows


def cmd_solve(args, require_source: bool) -> int:
    spec = load_spec(args.spec)
    if require_source and not spec.source_mode:
        raise SpecFileError(
            "the rd command needs a source-mode spec (kernel ignoring actions)"
        )
    grid = _parse_grid(args.d_grid) if args.d_grid else []
    if args.budget is not None:
        grid.append(args.budget)
    anchor = cost_floor_point(spec) if grid else None
    for d in grid:
        # refused before the sweep, not after it by the first budget solve
        if not math.isfinite(d):
            raise ValueError(f"cost budget must be finite, got {d!r}")
        if d < anchor.cost:
            raise InfeasibleCostError(d, anchor.cost)
    prefix = "rd" if require_source else "solve"
    opts = _solver_options(args)
    curve, raw = sweep_curve(spec, opts)
    requested = []
    for d in grid:
        point = solve_rate_cost(spec, d, opts, sweep=raw, anchor=anchor)
        requested.append({
            "D": d,
            "rate_bits": point.rate,
            "rate_lower_bits": point.rate_lower,
            "achieved_cost": point.cost,
            **_solver_record(point),
        })
    payload = {
        "schema_version": 2,
        "spec_path": os.path.abspath(args.spec),
        "seed": args.seed,
        "curve": [{"D": p.cost, "rate_bits": p.rate, **_solver_record(p)}
                  for p in curve.points],
        "requested": requested,
    }
    _write_outputs(args.out, {f"{prefix}_curve.csv": "\n".join(_curve_rows(curve)) + "\n",
                              f"{prefix}.json": _json_text(payload)})
    # the answer is the requested points, or the curve when none was asked for
    answer = requested or payload["curve"]
    if not all(p["converged"] for p in answer):
        print("warning: solver failed to converge on some points", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = load_spec(args.spec)
    if args.budget is None:
        raise ValueError("synth requires --D")
    check_trial_count(args.trials, spec.budget, "--trials")
    options = SchemeOptions(
        epsilon=args.eps, seed=args.seed,
        cloud_size=args.cloud_size, solver=_solver_options(args),
    )
    bundle = synthesize(spec, args.budget, options)
    report = run_trials(bundle, args.trials, seed=args.seed,
                        keep_per_trial=args.trials_csv)
    ledger = verify_sandwich(bundle, report)
    payload = {
        "schema_version": 6,
        "spec_path": os.path.abspath(args.spec),
        "budget_cost": args.budget,
        "epsilon": bundle.epsilon,
        "seeds": report.seeds,
        "solver_point": {
            "rate_bits": bundle.solution.rate,
            "cost": bundle.solution.cost,
            "mu": _json_float(bundle.solution.multiplier),
            "converged": bundle.solution.converged,
        },
        "selector": {
            "realization0": bundle.selector.index0,
            "realization1": bundle.selector.index1,
            "weight": bundle.selector.weight,
            "mix_rate": bundle.selector.mix_rate,
            "mix_cost": bundle.selector.mix_cost,
            "case": bundle.selector.case,
        },
        "entropies": {
            "conditional_bits": bundle.cond_entropy_bits,
            "unconditional_bits": bundle.uncond_entropy_bits,
        },
        "exact": {"rate_bits": bundle.exact_rate, "cost": bundle.exact_cost},
        "bounds": {
            "info_rate_lower_bits": bundle.solution.rate_lower,
            "rate_budget_bits": bundle.rate_budget_value,
        },
        "simulation": report.as_dict(),
        "sandwich": ledger.as_dict(),
    }
    files = {"result_bundle.json": _json_text(payload)}
    if args.trials_csv:
        rows = ["trial,bits_per_stage,cost_per_stage"]
        for i, (b, c) in enumerate(zip(report.per_trial_bits,
                                       report.per_trial_costs)):
            rows.append(f"{i},{b!r},{c!r}")
        files["trials.csv"] = "\n".join(rows) + "\n"
    _write_outputs(args.out, files)
    for line, ok in (("converse", ledger.converse_ok),
                     ("achievability", ledger.achievability_ok),
                     ("cost", ledger.cost_ok)):
        print(f"{line}: {'pass' if ok else 'FAIL'}")
    if not bundle.solution.converged:
        print(f"warning: solver failed to converge at the budget (certified gap "
              f"{bundle.solution.gap!r})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    if not ledger.passed:
        print("verification failed: the sandwich ledger did not pass",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_lqg(args) -> int:
    spec = ScalarLqgSpec(a=args.a, b=args.b, noise_var=args.sigma2,
                         state_weight=args.q, input_weight=args.r)
    grid = _parse_grid(args.d_grid)
    if not grid:
        raise ValueError(f"--d-grid {args.d_grid!r} holds no cost level")
    derived = riccati_solve(spec)
    points = rate_cost_curve(spec, derived, grid)
    rows = [
        f"# s={derived.s!r}, m={derived.sensitivity!r}, "
        f"D_min={derived.cost_floor!r}",
        "D,rate_bits",
    ]
    rows += [f"{d!r},{rate!r}" for d, rate in points]
    _write_outputs(args.out, {"lqg_curve.csv": "\n".join(rows) + "\n"})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratecost",
        description="rate-cost bounds and constructive schemes for "
                    "finite-alphabet rate-limited control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="path to a JSON system spec")
        p.add_argument("--D", dest="budget", type=float, help="average cost budget")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--restarts", type=int, default=SolverOptions.restarts)

    for name, help_text in (("solve", "trace the rate-cost curve"),
                            ("rd", "sequential source-coding mode")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--d-grid", help="comma-separated cost budgets")

    p = sub.add_parser("synth", help="synthesize and simulate a full scheme")
    common(p)
    p.add_argument("--eps", type=float, default=SchemeOptions.epsilon)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--cloud-size", type=int, default=SchemeOptions.cloud_size)
    p.add_argument("--trials-csv", action="store_true",
                   help="also write per-trial bits and costs")

    p = sub.add_parser("lqg", help="scalar LQG closed-form curve")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--d-grid", required=True,
                   help="comma-separated cost levels, all above D_min")
    p.add_argument("--out", default=".")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        if args.command == "solve":
            return cmd_solve(args, require_source=False)
        if args.command == "rd":
            return cmd_solve(args, require_source=True)
        if args.command == "synth":
            return cmd_synth(args)
        return cmd_lqg(args)    # the subparsers are required: lqg is left
    except (InfeasibleCostError, InfeasibleBarycenterError) as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InvariantError, DecodeMismatchError, CodingError) as err:
        # CodingError is a ValueError: caught here, before invalid options
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except (SpecFileError, DimensionMismatchError, NormalizationError,
            BudgetExceededError, CurveDomainError, RiccatiError) as err:
        print(f"spec error: {err}", file=sys.stderr)
        return EXIT_SPEC
    except ValueError as err:
        print(f"invalid option: {err}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
