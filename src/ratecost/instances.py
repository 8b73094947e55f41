"""Shipped desk-scale example systems used by tests, scripts, and docs."""

from __future__ import annotations

import numpy as np

from .system import CausalPolicy, SystemSpec, average_cost, evaluate_joint


def drive_to_zero(horizon: int, flip: float = 0.9, initial_one: float = 0.5) -> SystemSpec:
    """Binary plant x' = x XOR u with actuation reliability ``flip``.

    Cost 1 is charged whenever the state is 1, so informed control can
    steer toward 0 while an uninformed controller cannot tell which action
    flips the state.
    """
    transition = np.zeros((2, 2, 2))
    for x in range(2):
        for u in range(2):
            target = x ^ u
            transition[x, u, target] = flip
            transition[x, u, 1 - target] = 1.0 - flip
    initial = np.array([1.0 - initial_one, initial_one])
    cost = np.array([[0.0, 0.0], [1.0, 1.0]])
    return SystemSpec.from_markov(initial, transition, cost, horizon)


def noisy_actuator(horizon: int, hold: float = 0.85) -> SystemSpec:
    """Binary plant that moves to the commanded action with probability ``hold``.

    Asymmetric costs penalize being in state 1 and, mildly, using action 1.
    """
    transition = np.zeros((2, 2, 2))
    for x in range(2):
        for u in range(2):
            transition[x, u, u] = hold
            transition[x, u, 1 - u] = 1.0 - hold
    initial = np.array([0.5, 0.5])
    cost = np.array([[0.0, 0.3], [1.0, 0.7]])
    return SystemSpec.from_markov(initial, transition, cost, horizon)


def sticky_tracking(horizon: int, stay: float = 0.8, initial_one: float = 0.5) -> SystemSpec:
    """Uncontrolled sticky binary source with Hamming tracking cost.

    Actions are reproductions of the state; the kernel ignores them, so
    this is the sequential source-coding specialization.
    """
    tx = np.array([[stay, 1.0 - stay], [1.0 - stay, stay]])
    initial = np.array([1.0 - initial_one, initial_one])
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    return SystemSpec.from_source(initial, tx, cost, horizon, num_actions=2)


def bernoulli_source(horizon: int, p: float) -> SystemSpec:
    """Memoryless Bernoulli(p) source with Hamming cost (reproduction actions)."""
    tx = np.array([[1.0 - p, p], [1.0 - p, p]])
    initial = np.array([1.0 - p, p])
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    return SystemSpec.from_source(initial, tx, cost, horizon, num_actions=2)


def product_bernoulli_source(horizon: int, p: float, k: int) -> SystemSpec:
    """k independent Bernoulli(p) coordinates with per-coordinate Hamming cost.

    States and actions are k-bit words; the cost is the average number of
    coordinate mismatches, so one unit of cost equals one coordinate error.
    """
    size = 2 ** k
    marg = np.ones(size)
    for i in range(size):
        ones = bin(i).count("1")
        marg[i] = (p ** ones) * ((1.0 - p) ** (k - ones))
    tx = np.tile(marg, (size, 1))
    cost = np.zeros((size, size))
    for x in range(size):
        for u in range(size):
            cost[x, u] = bin(x ^ u).count("1") / k
    return SystemSpec.from_source(marg, tx, cost, horizon, num_actions=size)


def random_markov_panel(count: int = 300) -> list[SystemSpec]:
    """The first ``count`` random 2x2 Markov specs of ``default_rng(0)``.
    Spec i, counting from 0, draws in order: n = integers(1, 4), the
    initial law dirichlet(ones(2)), the transition dirichlet(ones(2),
    size=(2, 2)) and the cost uniform(0, 1, (2, 2))."""
    rng = np.random.default_rng(0)
    specs = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        specs.append(SystemSpec.from_markov(rng.dirichlet(np.ones(2)),
                                            rng.dirichlet(np.ones(2), size=(2, 2)),
                                            rng.uniform(0, 1, (2, 2)), n))
    return specs


def min_open_loop_cost(spec: SystemSpec) -> tuple[float, tuple[int, ...]]:
    """Best average cost over deterministic open-loop action sequences.

    Rate-zero policies are exactly the state-ignoring ones, and among those
    the expected cost is minimized at a deterministic sequence.
    """
    best = (np.inf, ())
    U = spec.num_actions
    for seq in np.ndindex(*([U] * spec.horizon)):
        policy = CausalPolicy.constant_action(spec, seq)
        c = average_cost(evaluate_joint(spec, policy), spec)
        if c < best[0] - 1e-15:
            best = (c, tuple(int(u) for u in seq))
    return best
