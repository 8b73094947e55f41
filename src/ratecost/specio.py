"""JSON system-spec files: the document check, normalization policy, loading.

``parse_spec`` checks a document in one pass and refuses it with a
``SpecFileError`` whose message starts with the offending key: a missing or
unknown top-level key; a ``horizon``, ``budget``, ``states`` or ``actions``
that is not an integer >= 1 (the alphabets may also list their symbols),
where an integral number such as ``2.0`` counts and a boolean does not; a
``name``, ``mode`` or ``kernel`` entry of the wrong type or value; and an
array that is not a rectangular nested list of numbers of the right shape.

Probability rows that sum to one within ``system.KERNEL_ROW_TOL`` (1e-12),
the tolerance ``SystemSpec`` itself enforces, are accepted as-is; rows off
by up to ``RENORM_TOL`` (1e-6) are renormalized with a warning; anything
worse is rejected.  ``mode: "source"`` declares an uncontrolled kernel: a (X, X)
transition is broadcast over actions, and a (X, U, X) transition or a
full-history stage kernel must not depend on any past action.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .system import DEFAULT_BUDGET, KERNEL_ROW_TOL, SystemSpec

RENORM_TOL = 1e-6

_REQUIRED = ("horizon", "states", "actions", "kernel", "cost")
_KEYS = _REQUIRED + ("name", "mode", "budget")


class SpecFileError(ValueError):
    """Malformed spec file; the message names the offending key."""


def _count(value, key: str, alphabet: bool = False) -> int:
    """An integer >= 1: an int or an integral float, never a boolean.  An
    alphabet may instead be the non-empty list of its symbols."""
    if alphabet and isinstance(value, list) and value:
        return len(value)
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value >= 1 and (isinstance(value, int) or value.is_integer())):
        return int(value)
    kind = " or a non-empty list" if alphabet else ""
    raise SpecFileError(f"{key}: expected an integer >= 1{kind}, got {value!r}")


def _array(value, key: str) -> np.ndarray:
    """``value`` as a float array, refused under ``key`` unless it is a
    rectangular nested list of numbers."""
    if isinstance(value, list):
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):
            pass
    raise SpecFileError(f"{key}: expected a rectangular array of numbers")


def _check_rows(rows: np.ndarray, key: str) -> np.ndarray:
    if np.any(rows < 0) or not np.all(np.isfinite(rows)):
        raise SpecFileError(f"{key}: negative or non-finite probability entries")
    sums = rows.sum(axis=-1)
    dev = float(np.max(np.abs(sums - 1.0)))
    if dev <= KERNEL_ROW_TOL:
        return rows
    if dev <= RENORM_TOL:
        warnings.warn(
            f"{key}: rows off normalization by {dev:.2e}; renormalizing",
            stacklevel=3,
        )
        return rows / sums[..., None]
    raise SpecFileError(
        f"{key}: rows deviate from normalization by {dev:.2e} (limit {RENORM_TOL})"
    )


def _check_source(kernel: np.ndarray, key: str, k: int, X: int, U: int) -> None:
    """Refuse a source-mode kernel whose rows, over the histories (x_1, u_1,
    ..., x_k, u_k), change with any of the actions."""
    rows = kernel.reshape((X, U) * k + (X,))
    if not np.allclose(rows, rows[(slice(None), slice(0, 1)) * k], atol=1e-12):
        raise SpecFileError(f"{key}: source mode requires action-independent rows")


def parse_spec(doc: dict) -> SystemSpec:
    """Check a parsed JSON document and build the system spec."""
    for key in _REQUIRED:
        if key not in doc:
            raise SpecFileError(f"{key}: required key missing")
    for key in doc:
        if key not in _KEYS:
            raise SpecFileError(f"{key}: unknown key")
    if not isinstance(doc.get("name", ""), str):
        raise SpecFileError("name: expected a string")
    if doc.get("mode", "controlled") not in ("source", "controlled"):
        raise SpecFileError('mode: expected "source" or "controlled"')
    n = _count(doc["horizon"], "horizon")
    X = _count(doc["states"], "states", alphabet=True)
    U = _count(doc["actions"], "actions", alphabet=True)
    budget = _count(doc.get("budget", DEFAULT_BUDGET), "budget")
    source = doc.get("mode") == "source"
    kernel = doc["kernel"]
    if not isinstance(kernel, dict):
        raise SpecFileError("kernel: expected an object")
    mode = kernel.get("mode")
    if mode not in ("markov", "full-history"):
        raise SpecFileError('kernel.mode: expected "markov" or "full-history"')
    for key in ("initial", "transition", "stages"):
        if not isinstance(kernel.get(key, []), list):
            raise SpecFileError(f"kernel.{key}: expected an array")
    cost = _array(doc["cost"], "cost")
    if cost.shape != (X, U):
        raise SpecFileError(f"cost: expected shape {(X, U)}, got {cost.shape}")
    if np.any(cost < 0) or not np.all(np.isfinite(cost)):
        raise SpecFileError("cost: entries must be nonnegative and finite")
    if mode == "markov":
        if "initial" not in kernel or "transition" not in kernel:
            raise SpecFileError("kernel: markov mode needs 'initial' and 'transition'")
        initial = _check_rows(_array(kernel["initial"], "kernel.initial")[None, :],
                              "kernel.initial")[0]
        if initial.shape != (X,):
            raise SpecFileError(f"kernel.initial: expected length {X}")
        transition = _array(kernel["transition"], "kernel.transition")
        if source and transition.shape == (X, X):
            transition = np.repeat(transition[:, None, :], U, axis=1)
        if transition.shape != (X, U, X):
            raise SpecFileError(
                f"kernel.transition: expected shape {(X, U, X)} "
                f"(or {(X, X)} in source mode), got {transition.shape}"
            )
        if source:
            _check_source(transition, "kernel.transition", 1, X, U)
        transition = _check_rows(transition, "kernel.transition")
        return SystemSpec.from_markov(initial, transition, cost, n,
                                      budget=budget, source_mode=source)
    if "stages" not in kernel:
        raise SpecFileError("kernel: full-history mode needs 'stages'")
    stages = kernel["stages"]
    if len(stages) != n:
        raise SpecFileError(f"kernel.stages: expected {n} stages, got {len(stages)}")
    kernels = []
    for t, stage in enumerate(stages, start=1):
        key = f"kernel.stages[{t - 1}]"
        arr = _array(stage, key)
        want = ((X * U) ** (t - 1), X)
        if arr.shape != want:
            raise SpecFileError(f"{key}: expected shape {want}, got {arr.shape}")
        if source:
            _check_source(arr, key, t - 1, X, U)
        kernels.append(_check_rows(arr, key))
    return SystemSpec(horizon=n, num_states=X, num_actions=U, cost=cost,
                      kernels=tuple(kernels), budget=budget, source_mode=source)


def load_spec(path: str) -> SystemSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise SpecFileError(f"cannot read spec file {path}: {err}") from err
    except (ValueError, RecursionError) as err:
        # bad syntax (the message gives line and column), text that is not
        # UTF-8, an integer of over 4300 digits, arrays nested past recursion
        raise SpecFileError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise SpecFileError(f"{path}: top level must be a JSON object")
    return parse_spec(doc)


def spec_document(spec: SystemSpec, name: str | None = None) -> dict:
    """Serialize a spec back to the JSON document format."""
    doc: dict = {
        "horizon": spec.horizon,
        "states": spec.num_states,
        "actions": spec.num_actions,
        "cost": spec.cost.tolist(),
    }
    if name:
        doc["name"] = name
    if spec.source_mode:
        doc["mode"] = "source"
    if spec.markov is not None:
        initial, transition = spec.markov
        doc["kernel"] = {
            "mode": "markov",
            "initial": initial.tolist(),
            "transition": transition.tolist(),
        }
    else:
        doc["kernel"] = {
            "mode": "full-history",
            "stages": [k.tolist() for k in spec.kernels],
        }
    return doc
