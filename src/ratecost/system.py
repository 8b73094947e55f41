"""Finite-alphabet stochastic control systems and exact information accounting.

A system is a horizon-n sequence of state kernels over a finite state
alphabet plus a nonnegative per-stage cost table.  A causal policy assigns
one conditional pmf over actions to every observable history
(x_1..x_t, u_1..u_{t-1}), stored on rows (action context, plant row).
Together they induce a joint law over trajectories.  Its exact average
cost and causally conditioned information flow from states to actions
(the directed information) come from one forward pass over the policy
rows, ``Rows.operating_point``.

Trajectory indexing is stage-major big-endian: the flat index of
(x_1,u_1,...,x_n,u_n) is built by repeated ``idx = (idx*X + x_t)*U + u_t``,
so the length-t prefix of a trajectory is ``idx // (X*U)**(n-t)``.
Full-history kernels live on these flat (history, state) rows; a Markov
spec holds only its (initial, transition) pair, and ``stage_kernel``
derives its flat rows on demand.  State keys (x_1..x_t) and action
contexts (u_1..u_{t-1}) are big-endian over X and U; policies live on
(context, plant row) rows, the plant row being the state key mod P_t.

``Rows`` holds the layout of the policy rows and the exact passes over
them; ``SystemSpec.rows`` builds it once per spec object, on first use.

All probabilities are 64-bit floats, all logarithms are base 2, and
entropy terms use the convention 0*log(0) = 0.  Everything here is a pure
function of immutable inputs and is safe to call concurrently; two first
uses of ``SystemSpec.rows`` (or ``Rows.floor``) that race build equal
values, and either is kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

KERNEL_ROW_TOL = 1e-12
MASS_TOL = 1e-10
DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(ValueError):
    """An array would exceed the spec's entry budget."""


def count_text(count: int) -> str:
    """An entry count for a message: in full up to 15 digits, beyond that as
    ``~10**k`` (Python refuses to print an int of over 4300 digits)."""
    return str(count) if count < 10 ** 15 else f"~10**{math.log10(count):.0f}"


class DimensionMismatchError(ValueError):
    """Policy and system disagree on horizon or alphabet sizes."""


class NormalizationError(ValueError):
    """A probability row or table does not sum to one within tolerance."""


class InvariantError(RuntimeError):
    """An exactly checked property of a computed quantity does not hold."""


def entropy_bits(p) -> float:
    """Shannon entropy of a pmf (any shape) in bits, with 0*log(0) = 0."""
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0.0]
    if nz.size == 0:
        return 0.0
    return float(-(nz * np.log2(nz)).sum())


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _check_rows(rows: np.ndarray, what: str) -> None:
    if np.any(rows < -1e-15) or not np.all(np.isfinite(rows)):
        raise NormalizationError(f"{what} has negative or non-finite entries")
    sums = rows.reshape(-1, rows.shape[-1]).sum(axis=1)
    worst = float(np.max(np.abs(sums - 1.0))) if sums.size else 0.0
    if worst > KERNEL_ROW_TOL:
        raise NormalizationError(
            f"{what} rows deviate from 1 by {worst:.3e} (tolerance {KERNEL_ROW_TOL})"
        )


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A finite-alphabet controlled system over a fixed horizon.

    A Markov spec (``from_markov``) holds only ``markov`` = (initial,
    transition), shapes (X,) and (X, U, X).  Otherwise ``kernels[t-1]`` is
    the stage-t state kernel over flat history indices, shape
    ((X*U)**(t-1), X), stage 1's one row the initial distribution;
    ``stage_kernel`` gives either kind's kernels on these rows.  ``budget``
    caps the entries of the arrays the computations on the spec allocate,
    each checked before it is allocated (README, spec files).
    """

    horizon: int
    num_states: int
    num_actions: int
    cost: np.ndarray
    kernels: tuple[np.ndarray, ...]
    budget: int = DEFAULT_BUDGET
    markov: tuple[np.ndarray, np.ndarray] | None = None
    source_mode: bool = False

    def __post_init__(self):
        n, X, U = self.horizon, self.num_states, self.num_actions
        if n < 1 or X < 1 or U < 1:
            raise ValueError("horizon and alphabet sizes must be positive")
        cost = _frozen(self.cost)
        if cost.shape != (X, U):
            raise DimensionMismatchError(f"cost table must be shape {(X, U)}")
        if np.any(cost < 0) or not np.all(np.isfinite(cost)):
            raise ValueError("cost entries must be nonnegative and finite")
        object.__setattr__(self, "cost", cost)
        if self.markov is not None:
            if self.kernels:
                raise DimensionMismatchError("a Markov spec holds no flat kernels")
            checks = [("initial distribution", self.markov[0], (X,)),
                      ("transition", self.markov[1], (X, U, X))]
        elif len(self.kernels) != n:
            raise DimensionMismatchError("need one state kernel per stage")
        else:
            checks = [(f"stage-{t} kernel", k, ((X * U) ** (t - 1), X))
                      for t, k in enumerate(self.kernels, start=1)]
        frozen = []
        for what, k, want in checks:
            k = _frozen(k)
            if k.shape != want:
                raise DimensionMismatchError(
                    f"{what} must be shape {want}, got {k.shape}")
            _check_rows(k, what)
            frozen.append(k)
        object.__setattr__(self, "kernels" if self.markov is None else "markov",
                           tuple(frozen))

    @classmethod
    def from_markov(cls, initial, transition, cost, horizon,
                    budget=DEFAULT_BUDGET, source_mode=False) -> "SystemSpec":
        """Build a spec whose stage-t kernel depends only on (x_{t-1}, u_{t-1})."""
        transition = np.asarray(transition, dtype=float)
        if transition.ndim != 3:
            raise DimensionMismatchError("transition must be shape (X, U, X)")
        return cls(horizon=horizon, num_states=transition.shape[0],
                   num_actions=transition.shape[1], cost=np.asarray(cost, dtype=float),
                   kernels=(), budget=budget, markov=(initial, transition),
                   source_mode=source_mode)

    @classmethod
    def from_source(cls, initial, transition_states, cost, horizon, num_actions,
                    budget=DEFAULT_BUDGET) -> "SystemSpec":
        """Uncontrolled source: the state kernel ignores past actions."""
        tx = np.asarray(transition_states, dtype=float)
        X = np.asarray(initial).shape[0]
        if tx.shape != (X, X):
            raise DimensionMismatchError("source transition must be shape (X, X)")
        transition = np.repeat(tx[:, None, :], num_actions, axis=1)
        return cls.from_markov(initial, transition, cost, horizon,
                               budget=budget, source_mode=True)

    def stage_kernel(self, t: int) -> np.ndarray:
        """State kernel at stage t (1-indexed), rows over flat histories; a
        Markov spec's are derived on each call, row h reading the transition
        row of its last pair (x_{t-1}, u_{t-1}), h mod X*U."""
        if self.markov is None:
            return self.kernels[t - 1]
        initial, transition = self.markov
        XU = self.num_states * self.num_actions
        return initial[None] if t == 1 else \
            np.tile(transition.reshape(XU, -1), (XU ** (t - 2), 1))

    @functools.cached_property
    def rows(self) -> Rows:
        """The spec's ``Rows``, built on first use and kept."""
        return Rows(self)


class Rows:
    """A spec's policy rows and the exact passes that read only them.

    Stage s (0-based) has rows (u^s, p): U**s action contexts times P_s =
    ``plants[s]`` plant states, X for a Markov spec (p = x_{s+1}) and
    X**(s+1) otherwise (p = x^{s+1}): the rows of ``CausalPolicy`` tables.
    Arrays on them are batched over B chains or policies, (B, U**s, P_s,
    U), and marginals q_s, (B, U**s, U), broadcast as (B, U**s, 1, U);
    stacked over the stages they are (B, ``contexts``, U), stage s in rows
    ``slices[s]``.  ``steps[s]``, (1 or U**s, P_s, U, X), is the law of
    x_{s+2} given a stage-s row and action.  A Markov forward pass sums the
    plant-state axis out of the next state's law (``push``), and a backward
    pass broadcasts the next stage's values over it (``expect``).  Plant
    row p grows into the next stage's as p * ``grow`` + x_{s+2} (``grow``
    X on state-history rows, 0 on Markov rows); ``stage_costs[s]``, (P_s,
    U), is the stage cost on the stage-s rows.  ``width`` counts the entries
    of the largest array a map or the row pass makes per chain or policy;
    ``check`` refuses a batch over the spec's budget, as the rows do one
    before they build anything, and ``block`` sizes the row pass's
    batches.  Their arrays are read-only; ``floor`` is filled once, on
    first use.  Every per-stage reduction calls the ufunc's ``reduce``
    directly: at these sizes a pass costs its numpy calls, not its
    arithmetic.
    """

    def __init__(self, spec: SystemSpec):
        n, X, U = self.n, self.X, self.U = (spec.horizon, spec.num_states,
                                            spec.num_actions)
        self.markov, self.budget = spec.markov is not None, spec.budget
        self.grow = 0 if self.markov else X
        self.plants = [X if self.markov else X ** (s + 1) for s in range(n)]
        # the last stage's (row, action) entries, or the (row, action, next
        # state) entries of the stage before, X / U times more on Markov rows
        self.width = U ** (n - 1) * max(U * self.plants[-1],
                                        X * self.plants[-2] if n > 1 else 0)
        self.check(1)
        self.initial = spec.stage_kernel(1)[None]
        # a full-history kernel's rows (x_1, u_1, ..., x_{s+1}, u_{s+1}) as
        # (u^{s+1}, x^{s+1}), then the action u_{s+1} moved past x^{s+1}
        self.steps = [spec.markov[1][None] if self.markov else
                      spec.stage_kernel(s + 2).reshape((X, U) * (s + 1) + (X,))
                      .transpose(*range(1, 2 * s + 2, 2), *range(0, 2 * s + 3, 2))
                      .reshape(U ** s, U, X ** (s + 1), X).swapaxes(1, 2)
                      for s in range(n - 1)]
        self.stage_costs = [spec.cost[np.arange(P) % X] for P in self.plants]
        for shared in self.steps + self.stage_costs:
            shared.setflags(write=False)
        bounds = np.cumsum([0] + [U ** s for s in range(n)])
        self.slices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.contexts = int(bounds[-1])
        self.floor = None   # the cost floor on these rows, kept by ``solver``

    def check(self, restarts: int) -> None:
        """Refuse ``restarts`` chains of ``width`` entries over the budget."""
        if restarts * self.width > self.budget:
            raise BudgetExceededError(f"solver working set {restarts} restarts "
                                      f"(--restarts) x {count_text(self.width)} "
                                      f"entries exceeds budget {self.budget}")

    def block(self, tables: int) -> int:
        """Policies per row pass within the budget, each with ``tables``
        entries of tables.  Beyond them the pass keeps at most 4.6 arrays of
        ``width`` entries alive per policy (tracemalloc; sticky_tracking(9),
        dense tables), counted as 5."""
        return max(1, self.budget // (tables + 5 * self.width))

    def expect(self, s: int, v: np.ndarray) -> np.ndarray:
        """E v(next row) for every stage-s row and action, (B, U**s, P_s, U),
        of values ``v`` on the stage-(s+1) rows, (B, U**(s+1), P_{s+1})."""
        after = v.reshape(v.shape[0], self.U ** s, self.U, -1, self.X)
        return np.add.reduce(self.steps[s] * after.swapaxes(2, 3), axis=4)

    def push(self, s: int, w: np.ndarray) -> np.ndarray:
        """Weights ``w`` on the stage-s (row, action) entries, (B, U**s, P_s,
        U), carried onto the stage-(s+1) rows, (B, U**(s+1), P_{s+1})."""
        nxt = w[..., None] * self.steps[s]
        if self.markov:
            nxt = np.add.reduce(nxt, axis=2, keepdims=True)
        return nxt.swapaxes(2, 3).reshape(w.shape[0], self.U ** (s + 1), -1)

    def forward(self, pis):
        """Stacked marginals q'_s(u | ctx) induced by the policies; rows of
        contexts the policies never reach are zero."""
        B = pis[0].shape[0]
        cond = self.initial     # law of the plant state given the context
        out = np.empty((B, self.contexts, self.U))
        for s in range(self.n):
            joint = cond[..., None] * pis[s]
            q = np.add.reduce(joint, axis=2, out=out[:, self.slices[s]])
            if s + 1 < self.n:
                mass = q[:, :, None, :]
                given = np.divide(joint, mass, out=np.zeros(joint.shape), where=mass > 0.0)
                cond = self.push(s, given)
        return out

    def operating_point(self, tables):
        """Exact rates and costs per stage of B policies, ``tables[s]`` of
        shape (B, U**s, P_s, U) on the rows.

        One forward pass carries the mass P(u^s, p) of each stage-s row.
        With J = P(u^s, p, u) the stage cost is sum J c and the stage
        information sum_{J>0} J log2 pi P(u^s) / P(u^s, u), its three logs
        taken apart so that nothing underflows (``solver`` module
        docstring): each on its whole array, summed in place, the summands
        zeroed where J = 0; a stage drops its arrays before the next builds
        its own (``block``).  Returns the rates and costs, (B,) each, and
        the last stage's pair mass P(u^{n-1}, u_n), (B, U**(n-1), U): the
        action law.  Every reduction runs along one policy's entries, so a
        policy's numbers do not depend on the batch it is evaluated in.
        Raises ``NormalizationError`` when a policy's total mass is off 1
        by more than ``MASS_TOL`` and ``InvariantError`` when a stage term
        is below -1e-9; a term in (-1e-9, 0) counts as 0.
        """
        B = tables[0].shape[0]
        mass = self.initial
        rate, cost = np.zeros(B), np.zeros(B)
        with np.errstate(divide="ignore", invalid="ignore"):
            for s, pi in enumerate(tables):
                joint = mass[..., None] * pi
                del mass
                cost += np.add.reduce((joint * self.stage_costs[s]).reshape(B, -1), axis=1)
                pair = np.add.reduce(joint, axis=2, keepdims=True)       # P(u^s, u)
                context = np.add.reduce(pair, axis=3, keepdims=True)     # P(u^s)
                summands = np.log2(pi)
                summands += np.log2(context)
                summands -= np.log2(pair)
                summands *= joint
                np.copyto(summands, 0.0, where=~(joint > 0.0))
                term = np.add.reduce(summands.reshape(B, -1), axis=1)
                del summands
                low = float(np.minimum.reduce(term))
                if low < -1e-9:
                    raise InvariantError(f"stage information term {low} below -1e-9")
                rate += np.maximum(term, 0.0)
                if s + 1 < self.n:
                    mass = self.push(s, joint)
                    del joint, pair
        total = np.add.reduce(joint.reshape(B, -1), axis=1)
        worst = float(total[np.abs(total - 1.0).argmax()])
        if abs(worst - 1.0) > MASS_TOL:
            raise NormalizationError(f"trajectory mass {worst!r} is not 1 within {MASS_TOL}")
        return rate / self.n, cost / self.n, pair[:, :, 0]


@dataclass(frozen=True, eq=False)
class CausalPolicy:
    """Per-stage conditional action pmfs over observable histories.

    ``tables[t-1]`` has shape (U**(t-1), P_t, U): the action context
    (u_1..u_{t-1}), the plant row, and the action.  The plant row is x_t
    (P_t = X, a Markov policy) or the state history x^t (P_t = X**t); the
    history (x_1..x_t) reads row key(x_1..x_t) mod P_t, so both shapes are
    looked up the same way.
    """

    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.tables:
            raise ValueError("policy needs at least one stage")
        X, U = self.tables[0].shape[1:]
        frozen = []
        for t, tab in enumerate(self.tables, start=1):
            tab = _frozen(tab)
            if (tab.ndim != 3 or tab.shape[::2] != (U ** (t - 1), U)
                    or tab.shape[1] not in (X, X ** t)):
                raise DimensionMismatchError(
                    f"stage-{t} policy table must be shape ({U ** (t - 1)}, "
                    f"{X} or {X ** t}, {U}), got {tab.shape}"
                )
            _check_rows(tab, f"stage-{t} policy")
            frozen.append(tab)
        object.__setattr__(self, "tables", tuple(frozen))

    @classmethod
    def _from_normalized(cls, tables) -> "CausalPolicy":
        """Read-only copies of tables whose rows the caller has just
        normalized, without the shape and row checks of the constructor."""
        policy = object.__new__(cls)
        object.__setattr__(policy, "tables", tuple(_frozen(tab) for tab in tables))
        return policy

    @property
    def horizon(self) -> int:
        return len(self.tables)

    @property
    def num_states(self) -> int:
        return self.tables[0].shape[1]

    @property
    def num_actions(self) -> int:
        return self.tables[0].shape[2]

    @classmethod
    def uniform(cls, spec: SystemSpec) -> "CausalPolicy":
        X, U = spec.num_states, spec.num_actions
        return cls(tuple(np.full((U ** (t - 1), X, U), 1.0 / U)
                         for t in range(1, spec.horizon + 1)))
