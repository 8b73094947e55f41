#!/usr/bin/env python3
"""Run cost-budget queries over a panel of specs and record what each cost.

The panel is eight shipped instances at eight budget shares plus the first
``--random`` specs of ``random_markov_panel`` at three shares; share s puts
the budget at floor + s * (open-loop cost - floor).  Each spec is swept
once over the full multiplier grid and every query reads that sweep; with
``--cut`` each query sweeps for itself, down to its budget.  One CSV row
per query: the spec, the share, the outcome (``ok`` or ``infeasible``, a
budget below the floor's exact cost), the answer's multiplier, the solves
and Blahut-Arimoto maps the query ran, the answer's rate, cost and
certified ``rate_lower``, and whether it converged.  A summary line
follows on stdout.

Usage:
  python scripts/run_query_panel.py [--random 100] [--restarts 1] [--cut]
                                    [--out query_panel.csv]
"""

import argparse
import csv

import ratecost.solver
from ratecost.instances import (
    bernoulli_source,
    drive_to_zero,
    min_open_loop_cost,
    noisy_actuator,
    random_markov_panel,
    sticky_tracking,
)
from ratecost.solver import (
    InfeasibleCostError,
    SolverOptions,
    min_expected_cost,
    solve_rate_cost,
    sweep_curve,
)

SHIPPED = {
    "drive2": lambda: drive_to_zero(2),
    "drive3": lambda: drive_to_zero(3),
    "noisy3": lambda: noisy_actuator(3),
    "noisy4": lambda: noisy_actuator(4),
    "noisy6": lambda: noisy_actuator(6),
    "sticky4": lambda: sticky_tracking(4),
    "sticky5": lambda: sticky_tracking(5),
    "bernoulli3": lambda: bernoulli_source(3, 0.3),
}
SHIPPED_SHARES = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5)
RANDOM_SHARES = (0.0, 0.5, 1.0)
COLUMNS = ("spec", "share", "outcome", "mu", "solves", "maps", "rate", "cost",
           "rate_lower", "converged")


def panel(random_count: int):
    """(name, spec, shares) for every spec of the panel."""
    for name, make in SHIPPED.items():
        yield name, make(), SHIPPED_SHARES
    for i, spec in enumerate(random_markov_panel(random_count)):
        yield f"random{i}", spec, RANDOM_SHARES


def counted_query(spec, budget, opts, sweep):
    """The query's answer (or its ``InfeasibleCostError``) and the solves it
    ran, counted by wrapping ``solver.solve_lagrangian``."""
    solves = []
    solve = ratecost.solver.solve_lagrangian

    def counted(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    ratecost.solver.solve_lagrangian = counted
    try:
        return solve_rate_cost(spec, budget, opts, sweep=sweep), solves
    except InfeasibleCostError as err:
        return err, solves
    finally:
        ratecost.solver.solve_lagrangian = solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--random", type=int, default=100)
    ap.add_argument("--restarts", type=int, default=1)
    ap.add_argument("--cut", action="store_true",
                    help="each query sweeps down to its own budget")
    ap.add_argument("--out", default="query_panel.csv")
    args = ap.parse_args()

    opts = SolverOptions(restarts=args.restarts)
    rows, totals = [], dict(queries=0, infeasible=0, unconverged=0, solves=0, maps=0)
    for name, spec, shares in panel(args.random):
        floor, open_loop = min_expected_cost(spec), min_open_loop_cost(spec)[0]
        sweep = None if args.cut else sweep_curve(spec, opts)[1]
        for share in shares:
            answer, solves = counted_query(spec, floor + share * (open_loop - floor),
                                           opts, sweep)
            maps = sum(p.iterations for p in solves)
            totals["queries"] += 1
            totals["solves"] += len(solves)
            totals["maps"] += maps
            if isinstance(answer, InfeasibleCostError):
                totals["infeasible"] += 1
                rows.append((name, share, "infeasible", "", len(solves), maps,
                             "", "", "", ""))
                continue
            totals["unconverged"] += not answer.converged
            rows.append((name, share, "ok", repr(answer.multiplier), len(solves), maps,
                         repr(answer.rate), repr(answer.cost), repr(answer.rate_lower),
                         answer.converged))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)
    print(" ".join(f"{key} {value}" for key, value in totals.items()))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
