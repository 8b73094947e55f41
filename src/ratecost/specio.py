"""JSON system-spec files: schema validation, normalization policy, loading.

Probability rows that sum to one within ``system.KERNEL_ROW_TOL`` (1e-12),
the tolerance ``SystemSpec`` itself enforces, are accepted as-is; rows off
by up to ``RENORM_TOL`` (1e-6) are renormalized with a warning; anything
worse is rejected.  ``mode: "source"`` declares an uncontrolled kernel: a (X, X)
transition is broadcast over actions, and a (X, U, X) transition must not
depend on the action column.
"""

from __future__ import annotations

import functools
import json
import warnings

import jsonschema
import numpy as np

from .system import DEFAULT_BUDGET, KERNEL_ROW_TOL, SystemSpec

RENORM_TOL = 1e-6

SPEC_SCHEMA = {
    "type": "object",
    "required": ["horizon", "states", "actions", "kernel", "cost"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "horizon": {"type": "integer", "minimum": 1},
        "states": {
            "anyOf": [{"type": "integer", "minimum": 1},
                      {"type": "array", "minItems": 1}],
        },
        "actions": {
            "anyOf": [{"type": "integer", "minimum": 1},
                      {"type": "array", "minItems": 1}],
        },
        "mode": {"enum": ["source", "controlled"]},
        "budget": {"type": "integer", "minimum": 1},
        "kernel": {
            "type": "object",
            "required": ["mode"],
            "properties": {
                "mode": {"enum": ["markov", "full-history"]},
                "initial": {"type": "array"},
                "transition": {"type": "array"},
                "stages": {"type": "array"},
            },
        },
        "cost": {"type": "array"},
    },
}


@functools.cache
def _validator():
    """The spec validator, built on first use and kept: ``jsonschema.validate``
    checks the schema against its meta-schema on every call, which is most
    of the cost of a load.  Built lazily so that importing costs nothing."""
    cls = jsonschema.validators.validator_for(SPEC_SCHEMA)
    cls.check_schema(SPEC_SCHEMA)
    return cls(SPEC_SCHEMA)


class SpecFileError(ValueError):
    """Malformed spec file; the message names the offending key."""


def _alphabet_size(value, key: str) -> int:
    if isinstance(value, int):
        return value
    return len(value)


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


def parse_spec(doc: dict) -> SystemSpec:
    """Validate a parsed JSON document and build the system spec."""
    err = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if err is not None:
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise SpecFileError(f"{path}: {err.message}") from err
    n = doc["horizon"]
    X = _alphabet_size(doc["states"], "states")
    U = _alphabet_size(doc["actions"], "actions")
    source = doc.get("mode") == "source"
    budget = doc.get("budget", DEFAULT_BUDGET)
    cost = np.asarray(doc["cost"], dtype=float)
    if cost.shape != (X, U):
        raise SpecFileError(f"cost: expected shape {(X, U)}, got {cost.shape}")
    if np.any(cost < 0) or not np.all(np.isfinite(cost)):
        raise SpecFileError("cost: entries must be nonnegative and finite")
    kernel = doc["kernel"]
    mode = kernel["mode"]
    if mode == "markov":
        if "initial" not in kernel or "transition" not in kernel:
            raise SpecFileError("kernel: markov mode needs 'initial' and 'transition'")
        initial = _check_rows(np.asarray(kernel["initial"], dtype=float)[None, :],
                              "kernel.initial")[0]
        if initial.shape != (X,):
            raise SpecFileError(f"kernel.initial: expected length {X}")
        transition = np.asarray(kernel["transition"], dtype=float)
        if source and transition.shape == (X, X):
            transition = np.repeat(transition[:, None, :], U, axis=1)
        if transition.shape != (X, U, X):
            raise SpecFileError(
                f"kernel.transition: expected shape {(X, U, X)} "
                f"(or {(X, X)} in source mode), got {transition.shape}"
            )
        if source and not np.allclose(
                transition, transition[:, :1, :], atol=1e-12):
            raise SpecFileError(
                "kernel.transition: source mode requires action-independent rows"
            )
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
        arr = np.asarray(stage, dtype=float)
        want = ((X * U) ** (t - 1), X)
        if arr.shape != want:
            raise SpecFileError(
                f"kernel.stages[{t - 1}]: expected shape {want}, got {arr.shape}"
            )
        kernels.append(_check_rows(arr, f"kernel.stages[{t - 1}]"))
    return SystemSpec(horizon=n, num_states=X, num_actions=U, cost=cost,
                      kernels=tuple(kernels), budget=budget, source_mode=source)


def load_spec(path: str) -> SystemSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise SpecFileError(f"cannot read spec file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SpecFileError(f"{path}: invalid JSON at line {err.lineno} "
                            f"column {err.colno}: {err.msg}") from err
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
