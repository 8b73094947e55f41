#!/usr/bin/env python3
"""Synthesize and simulate the full scheme on a shipped instance and print
the bound ledger.

Usage:
  python scripts/run_sandwich_demo.py [--instance drive|noisy|sticky]
      [--horizon 2] [--D 0.4] [--trials 20000] [--seed 0]

Without --D the budget is the middle of the curve, from the cost floor to
the best open-loop cost; that search evaluates the trajectory law of every
action sequence, so long horizons need an explicit --D.
"""

import argparse
import json

from ratecost.instances import (
    drive_to_zero,
    min_open_loop_cost,
    noisy_actuator,
    sticky_tracking,
)
from ratecost.scheme import SchemeOptions, run_trials, synthesize, verify_sandwich
from ratecost.solver import SolverOptions, min_expected_cost

INSTANCES = {
    "drive": drive_to_zero,
    "noisy": noisy_actuator,
    "sticky": sticky_tracking,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instance", choices=sorted(INSTANCES), default="drive")
    ap.add_argument("--horizon", type=int, default=2)
    ap.add_argument("--D", type=float, default=None,
                    help="cost budget; defaults to the middle of the curve")
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--gamma", type=float, default=0.25)
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = INSTANCES[args.instance](args.horizon)
    dmin = min_expected_cost(spec)
    print(f"instance={args.instance} horizon={args.horizon}")
    print(f"cost floor={dmin:.6f}")
    budget = args.D
    if budget is None:
        d_open, seq = min_open_loop_cost(spec)
        print(f"best open loop={d_open:.6f} (sequence {seq})")
        budget = dmin + 0.5 * (d_open - dmin)
    print(f"budget D={budget:.6f}")

    bundle = synthesize(spec, budget, SchemeOptions(
        epsilon=args.eps, gamma=args.gamma, seed=args.seed,
        solver=SolverOptions(seed=args.seed)))
    print(f"\nsolver: info rate {bundle.info_rate:.6f} bits/stage at cost "
          f"{bundle.solution.cost:.6f} (mu={bundle.solution.multiplier:.4g})")
    print(f"selector: realizations ({bundle.selector.index0}, "
          f"{bundle.selector.index1}) weight {bundle.selector.weight:.4f} "
          f"case {bundle.selector.case}")
    print(f"exact scheme: rate {bundle.exact_rate:.6f} bits/stage, "
          f"cost {bundle.exact_cost:.6f}")
    print(f"rate budget: {bundle.rate_budget_value:.6f} "
          f"(eps condition ok: {bundle.eps_ok})")

    report = run_trials(bundle, args.trials, seed=args.seed)
    print(f"\n{args.trials} trials: rate {report.empirical_rate:.4f} "
          f"+/- {report.empirical_rate_se:.4f}, cost "
          f"{report.empirical_cost:.4f} +/- {report.empirical_cost_se:.4f}")
    ledger = verify_sandwich(report)
    print("\nsandwich ledger:")
    print(json.dumps(ledger.as_dict(), indent=2, sort_keys=True))
    return 0 if ledger.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
