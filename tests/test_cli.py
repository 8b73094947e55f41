"""CLI: spec files, exit codes, output formats, determinism."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratecost.cli
import ratecost.coder
import ratecost.scheme
import ratecost.solver
import ratecost.system
from ratecost import SystemSpec
from ratecost.cli import (
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SPEC,
    EXIT_VERIFY,
    build_parser,
    main,
)
from ratecost.coder import CodingError, ContextCode
from ratecost.instances import (
    bernoulli_source,
    drive_to_zero,
    min_open_loop_cost,
    noisy_actuator,
    sticky_tracking,
)
from ratecost.scheme import TRIAL_BLOCK, DecodeMismatchError, SchemeOptions
from ratecost.solver import RateCostCurve, SolverOptions
from ratecost.specio import SpecFileError, load_spec, parse_spec, spec_document

from oracles import SPEC_SCHEMA, binary_entropy, random_markov_panel, without_markov


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def bernoulli_doc(p=0.2, horizon=2):
    return {
        "name": "bernoulli-source",
        "horizon": horizon,
        "states": 2,
        "actions": 2,
        "mode": "source",
        "kernel": {
            "mode": "markov",
            "initial": [1.0 - p, p],
            "transition": [[1.0 - p, p], [1.0 - p, p]],
        },
        "cost": [[0.0, 1.0], [1.0, 0.0]],
    }


def controlled_doc():
    return spec_document(drive_to_zero(2), name="drive-to-zero")


class TestSpecIO:
    def test_roundtrip_document(self):
        spec = load_spec_from_doc(controlled_doc())
        assert spec.horizon == 2
        assert spec.num_states == spec.num_actions == 2

    def test_source_mode_broadcasts_transition(self):
        spec = parse_spec(bernoulli_doc())
        assert spec.source_mode
        k2 = spec.stage_kernel(2).reshape(-1, 2, 2)
        np.testing.assert_allclose(k2[:, 0, :], k2[:, 1, :])

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecFileError) as err:
            load_spec(str(path))
        assert "line" in str(err.value)

    @pytest.mark.parametrize("text, reason", [
        (b'{"horizon": ' + b"1" * 5000 + b"}", "4300 digits"),
        (b'{"cost": ' + b"[" * 100000 + b"]" * 100000 + b"}", "recursion"),
        (b"\xff{}", "utf-8"),
    ], ids=["long-integer", "deep-nesting", "not-utf8"])
    def test_unreadable_json_rejected(self, tmp_path, text, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(SpecFileError) as err:
            load_spec(str(path))
        assert str(err.value).startswith(f"{path}: invalid JSON: ")
        assert reason in str(err.value) and "\n" not in str(err.value)

    def test_schema_violation_names_key(self):
        doc = bernoulli_doc()
        doc["horizon"] = 0
        with pytest.raises(SpecFileError) as err:
            parse_spec(doc)
        assert "horizon" in str(err.value)

    def test_mild_denormalization_warns_and_renormalizes(self):
        # 5e-10 lies between the kernel tolerance and the renormalization limit
        for excess in (2e-7, 5e-10):
            doc = bernoulli_doc()
            doc["kernel"]["initial"] = [0.8 + excess, 0.2]
            with pytest.warns(UserWarning, match="renormalizing"):
                spec = parse_spec(doc)
            assert spec.stage_kernel(1).sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_normalization_rejected(self):
        doc = bernoulli_doc()
        doc["kernel"]["initial"] = [0.7, 0.2]
        with pytest.raises(SpecFileError, match="initial"):
            parse_spec(doc)

    def test_source_mode_with_controlled_kernel_rejected(self):
        markov = bernoulli_doc()
        markov["kernel"]["transition"] = [
            [[0.8, 0.2], [0.5, 0.5]],
            [[0.8, 0.2], [0.5, 0.5]],
        ]
        # its full-history twin reads u_1 at stage 2: x_2 = u_1
        history = {**bernoulli_doc(), "kernel": {
            "mode": "full-history",
            "stages": [[[0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]]}}
        for doc, key in ((markov, "kernel.transition"), (history, r"kernel.stages\[1\]")):
            with pytest.raises(SpecFileError,
                               match=f"^{key}: source mode requires action-independent rows$"):
                parse_spec(doc)

    def test_full_history_mode(self):
        doc = {
            "horizon": 2,
            "states": 2,
            "actions": 2,
            "kernel": {
                "mode": "full-history",
                "stages": [
                    [[0.5, 0.5]],
                    [[1.0, 0.0]] * 4,
                ],
            },
            "cost": [[0.0, 1.0], [1.0, 0.0]],
        }
        spec = parse_spec(doc)
        assert spec.stage_kernel(2).shape == (4, 2)


def load_spec_from_doc(doc):
    return parse_spec(doc)


# the spec files of scripts/make_example_specs.py, Markov and full-history
SHIPPED_SPECS = [drive_to_zero(2), noisy_actuator(3), sticky_tracking(4),
                 bernoulli_source(2, 0.2)]
SHIPPED_DOCS = [spec_document(s, "shipped") for s in SHIPPED_SPECS] + \
    [spec_document(without_markov(s)) for s in SHIPPED_SPECS]

SCHEMA = jsonschema.validators.validator_for(SPEC_SCHEMA)(SPEC_SCHEMA)

# (command, flags) runs small enough for a test at the drive-to-zero budget
RUNS = [["solve", "--D", "0.4", "--restarts", "1"],
        ["synth", "--D", "0.4", "--restarts", "1", "--trials", "100",
         "--cloud-size", "10"]]


def run_cli(tmp_path, doc, run, tag):
    """Run ``run`` on ``doc``: exit code, stderr lines, output directory."""
    spec_path = write_spec(tmp_path, doc, f"{tag}.json")
    out = tmp_path / tag
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([run[0], "--spec", spec_path, "--out", str(out), *run[1:]])
    return code, err.getvalue().strip().splitlines(), out


def output_without_spec_path(out):
    (name,) = [p for p in os.listdir(out) if p.endswith(".json")]
    doc = json.loads((out / name).read_text())
    del doc["spec_path"]
    return doc


# a value of each JSON type, on and off each count's and mode's boundaries
EDGE_VALUES = [0, 1, 2, 2.0, 2.5, 1e7, -1, float("inf"), float("nan"), True,
               False, None, "a", "2", "source", "controlled", "markov",
               "full-history", [], [1], {}, {"mode": "markov"}]


def json_values(near):
    """JSON values, often a boundary case or a wrong-type twin of ``near``."""
    edges = st.sampled_from(EDGE_VALUES + [[near], str(near)])
    leaves = (st.none() | st.booleans() | st.integers(-3, 10 ** 20)
              | st.floats() | st.text(max_size=3))
    return edges | st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=6)


def slots(node):
    """Every (container, key or index) pair below ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from slots(child)


@st.composite
def mutated_docs(draw):
    """A shipped document with one to three slots dropped, added to, set to
    a JSON value, wrapped in a list or unwrapped."""
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        deep = list(slots(doc))
        if not deep:
            break
        # the top level and the kernel's keys as often as any array entry
        shallow = [(node, key) for node, key in deep
                   if node is doc or node is doc.get("kernel")]
        node, key = draw(st.sampled_from(shallow or deep) | st.sampled_from(deep))
        op = draw(st.sampled_from(["drop", "add", "set", "wrap", "unwrap"]))
        if op == "drop":
            del node[key]
        elif op == "add" and isinstance(node, dict):
            name = draw(st.sampled_from(["name", "mode", "budget", "stages",
                                         "initial", "extra"]) | st.text(max_size=3))
            node[name] = draw(json_values(node[key]))
        elif op == "add":
            node.insert(key, draw(json_values(node[key])))
        elif op == "set":
            node[key] = draw(json_values(node[key]))
        elif op == "wrap":
            node[key] = [node[key]]
        elif isinstance(node[key], list) and node[key]:
            node[key] = node[key][0]
    return doc


class TestSpecCheck:
    """``parse_spec`` is the one check of a spec document; ``SPEC_SCHEMA``
    is the oracle for the structure it accepts."""

    @pytest.mark.parametrize("spec", SHIPPED_SPECS,
                             ids=["drive2", "noisy3", "sticky4", "bernoulli2"])
    @pytest.mark.parametrize("markov", [True, False], ids=["markov", "full-history"])
    def test_shipped_documents_load_field_for_field(self, spec, markov):
        spec = spec if markov else without_markov(spec)
        doc = json.loads(json.dumps(spec_document(spec, "shipped")))
        assert SCHEMA.is_valid(doc)
        got = parse_spec(doc)
        for field in dataclasses.fields(spec):
            want, have = getattr(spec, field.name), getattr(got, field.name)
            if isinstance(want, tuple):
                assert len(have) == len(want), field.name
                for a, b in zip(have, want):
                    np.testing.assert_array_equal(a, b, strict=True)
            elif isinstance(want, np.ndarray):
                np.testing.assert_array_equal(have, want, strict=True)
            else:
                assert have == want and type(have) is type(want), field.name

    @pytest.mark.parametrize("run", RUNS, ids=lambda r: r[0])
    @pytest.mark.parametrize("key, value, twin", [
        ("horizon", 2.0, 2), ("states", 2.0, 2), ("actions", 2.0, 2),
        ("budget", 1e7, 10 ** 7),
    ])
    def test_integral_number_runs_as_its_integer_twin(self, tmp_path, run, key,
                                                      value, twin):
        code, err, out = run_cli(tmp_path, {**controlled_doc(), key: value}, run,
                                 "float")
        assert (code, err) == (EXIT_OK, [])
        code, err, want = run_cli(tmp_path, {**controlled_doc(), key: twin}, run,
                                  "int")
        assert (code, err) == (EXIT_OK, [])
        assert output_without_spec_path(out) == output_without_spec_path(want)

    @pytest.mark.parametrize("run", RUNS, ids=lambda r: r[0])
    @pytest.mark.parametrize("change, key", [
        pytest.param({"cost": [[{}, 0], [0, 0]]}, "cost", id="cost-object"),
        pytest.param({"cost": [["a", 0], [0, 0]]}, "cost", id="cost-string"),
        pytest.param({"kernel": {**controlled_doc()["kernel"], "transition":
                                 [[[0.1, 0.9], [0.9, 0.1]], [[1.0, 0.0]]]}},
                     "kernel.transition", id="ragged-transition"),
        pytest.param({"kernel": {"mode": "full-history", "stages": None}},
                     "kernel.stages", id="null-stages"),
        pytest.param({"kernel": {**controlled_doc()["kernel"], "initial": "ab"}},
                     "kernel.initial", id="string-initial"),
        pytest.param({"horizon": 0}, "horizon", id="horizon-0"),
        pytest.param({"states": "two"}, "states", id="string-states"),
        pytest.param({"kernel": {"mode": "dense"}, "extra": 1}, "extra",
                     id="unknown-key-and-mode"),
    ])
    def test_malformed_document_exits_with_one_line(self, tmp_path, run, change,
                                                    key):
        code, err, out = run_cli(tmp_path, {**controlled_doc(), **change}, run, "o")
        assert code == EXIT_SPEC
        assert len(err) == 1 and err[0].startswith(f"spec error: {key}: "), err
        assert not out.exists()

    def test_each_key_at_each_edge_value_agrees_with_schema(self):
        for base in SHIPPED_DOCS:
            for key in (*base, "mode", "budget", "name", "extra", "kernel.mode",
                        "kernel.initial", "kernel.transition", "kernel.stages",
                        "kernel.extra"):
                *parent, last = key.split(".")
                for value in [*EDGE_VALUES, "drop"]:
                    doc = copy.deepcopy(base)
                    node = doc[parent[0]] if parent else doc
                    if value == "drop":
                        node.pop(last, None)
                    else:
                        node[last] = value
                    self.check_against_schema(doc)

    @given(doc=mutated_docs())
    @settings(max_examples=400, deadline=None)
    def test_mutated_documents_load_or_raise_spec_error(self, doc):
        self.check_against_schema(doc)

    @staticmethod
    def check_against_schema(doc):
        # the schema's refusals are refused; parse_spec's own checks (shapes,
        # normalization) may refuse more; nothing else is ever raised
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parse_spec(doc)
        except SpecFileError:
            return
        assert SCHEMA.is_valid(doc), doc

    def test_cli_import_leaves_jsonschema_out(self):
        package_root = os.path.dirname(os.path.dirname(ratecost.cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", "import sys, ratecost.cli; "
             "print('jsonschema' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestSolveCommand:
    @pytest.mark.parametrize("run", RUNS, ids=lambda r: r[0])
    def test_budget_refusal_prints_at_any_horizon(self, tmp_path, run):
        # at n = 20000 the working set's entry count has over 6000 digits,
        # more than Python converts an int to
        code, err, out = run_cli(tmp_path, spec_document(noisy_actuator(20000)),
                                 run, "o")
        assert code == EXIT_SPEC
        assert len(err) == 1 and err[0].startswith("spec error: solver working set")
        assert "entries exceeds budget" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--d-grid", "0.4,nan"], ["--D", "inf"], ["--d-grid", "0.4", "--D", "nan"],
    ], ids=["grid-nan", "D-inf", "D-nan"])
    def test_non_finite_budget_refused_before_any_solve(self, tmp_path, monkeypatch,
                                                        flags):
        solve = ratecost.solver.solve_lagrangian
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(ratecost.solver, "solve_lagrangian", counted)
        code, err, out = run_cli(tmp_path, controlled_doc(),
                                 ["solve", "--restarts", "1", *flags], "o")
        assert (code, len(calls)) == (EXIT_SPEC, 0)
        assert len(err) == 1
        assert err[0].startswith("invalid option: cost budget must be finite, got ")
        assert not out.exists()

    def test_source_curve_matches_analytic(self, tmp_path):
        spec_path = write_spec(tmp_path, bernoulli_doc(0.2))
        out = tmp_path / "out"
        code = main(["rd", "--spec", spec_path, "--out", str(out),
                     "--d-grid", "0.05,0.1,0.15", "--restarts", "4",
                     "--seed", "0"])
        assert code == EXIT_OK
        doc = json.loads((out / "rd.json").read_text())
        for entry in doc["requested"]:
            want = binary_entropy(0.2) - binary_entropy(entry["D"])
            assert entry["rate_bits"] == pytest.approx(want, abs=2e-3)
        csv = (out / "rd_curve.csv").read_text().splitlines()
        assert csv[0] == "D,rate_bits,mu"

    def test_zero_cost_spec_curve_identically_zero(self, tmp_path):
        doc = bernoulli_doc(0.3)
        doc["cost"] = [[0.0, 0.0], [0.0, 0.0]]
        spec_path = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["solve", "--spec", spec_path, "--out", str(out),
                     "--d-grid", "0.0,0.5", "--restarts", "2"])
        assert code == EXIT_OK
        doc = json.loads((out / "solve.json").read_text())
        assert all(abs(e["rate_bits"]) <= 1e-9 for e in doc["requested"])

    def test_malformed_spec_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"horizon": "two"}')
        assert main(["solve", "--spec", str(path)]) == EXIT_SPEC

    def test_rd_rejects_controlled_spec(self, tmp_path):
        spec_path = write_spec(tmp_path, controlled_doc())
        assert main(["rd", "--spec", spec_path, "--out", str(tmp_path)]) == EXIT_SPEC

    def test_infeasible_budget_exit_code(self, tmp_path):
        spec_path = write_spec(tmp_path, controlled_doc())
        code = main(["solve", "--spec", spec_path, "--out", str(tmp_path),
                     "--D", "0.01", "--restarts", "2"])
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize("argv, doc", [
        (["solve", "--D", "0.01"], controlled_doc),
        (["solve", "--d-grid", "0.4,0.01"], controlled_doc),
        (["rd", "--d-grid", "0.1,-0.5"], bernoulli_doc),
    ], ids=["solve-D", "solve-grid", "rd-grid"])
    def test_infeasible_budget_refused_before_any_solve(self, tmp_path, monkeypatch,
                                                        capsys, argv, doc):
        def reached(*args, **kwargs):
            raise AssertionError("a solve began before the budget was checked")

        for name in ("sweep_curve", "solve_rate_cost"):
            monkeypatch.setattr(ratecost.cli, name, reached)
        spec_path = write_spec(tmp_path, doc())
        out = tmp_path / "o"
        code = main([*argv, "--spec", spec_path, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_INFEASIBLE
        assert len(err) == 1 and err[0].startswith(
            f"infeasible: cost budget {argv[-1].split(',')[-1]} infeasible; ")
        assert not out.exists()

    def test_unrequested_unconverged_point_keeps_exit_zero(self, tmp_path,
                                                            monkeypatch):
        # mark the zero-rate sweep point (mu = 0, never the answer to a budget
        # below its cost) unconverged: only an unconverged answer exits 4
        sweep_curve = ratecost.cli.sweep_curve

        def flagged_sweep(spec, opts):
            _, raw = sweep_curve(spec, opts)
            raw = [dataclasses.replace(p, converged=False) if p.multiplier == 0.0
                   else p for p in raw]
            return RateCostCurve.from_points(raw), raw

        monkeypatch.setattr(ratecost.cli, "sweep_curve", flagged_sweep)
        spec_path = write_spec(tmp_path, controlled_doc())
        code = main(["solve", "--spec", spec_path, "--out", str(tmp_path / "a"),
                     "--D", "0.4", "--restarts", "1"])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "a" / "solve.json").read_text())
        assert doc["requested"][0]["converged"] is True
        assert not all(p["converged"] for p in doc["curve"])
        # without a requested budget the curve is the answer
        code = main(["solve", "--spec", spec_path, "--out", str(tmp_path / "b"),
                     "--restarts", "1"])
        assert code == EXIT_NO_CONVERGENCE

    def test_points_report_iterations_and_gap(self, tmp_path):
        spec_path = write_spec(tmp_path, controlled_doc())
        code = main(["solve", "--spec", spec_path, "--out", str(tmp_path),
                     "--D", "0.4", "--restarts", "1"])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "solve.json").read_text())
        for entry in doc["curve"] + doc["requested"]:
            assert entry["iterations"] >= 1
            assert -1e-12 <= entry["gap"] <= 1e-9
        assert doc["schema_version"] == 2
        entry = doc["requested"][0]
        assert 0.0 <= entry["rate_lower_bits"] <= entry["rate_bits"]
        assert entry["rate_bits"] - entry["rate_lower_bits"] < 1e-3
        assert all("rate_lower_bits" not in p for p in doc["curve"])

    def test_cost_floor_evaluated_once_for_every_budget(self, tmp_path, monkeypatch):
        cost_dp = ratecost.solver._cost_dp
        calls = []

        def counted(spec):
            calls.append(spec)
            return cost_dp(spec)

        monkeypatch.setattr(ratecost.solver, "_cost_dp", counted)
        spec_path = write_spec(tmp_path, controlled_doc())
        code = main(["solve", "--spec", spec_path, "--out", str(tmp_path),
                     "--d-grid", "0.35,0.4,0.45", "--restarts", "1"])
        assert code == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["solve", "rd"])
    def test_invariant_failure_exit_code(self, tmp_path, capsys, monkeypatch,
                                         command):
        # the row pass's own check fails: a first stage scaled to total 1/4
        # has term (I_1 - 2) / 4 < 0, since I_1 <= log2 |U| = 1
        exact = ratecost.system.Rows.operating_point

        def quartered_first_stage(chains, tables):
            return exact(chains, (tables[0] / 4.0,) + tuple(tables[1:]))

        monkeypatch.setattr(ratecost.system.Rows, "operating_point",
                            quartered_first_stage)
        spec_path = write_spec(tmp_path, bernoulli_doc())
        code = main([command, "--spec", spec_path, "--out", str(tmp_path / "o"),
                     "--D", "0.1", "--restarts", "1"])
        assert code == EXIT_VERIFY
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("verification failed: stage information term -")
        assert err[0].endswith(" below -1e-9")
        assert not (tmp_path / "o" / f"{command}.json").exists()

    def test_cost_floor_anchor_is_strict_json(self, tmp_path):
        # at the floor the query resolves to the greedy anchor, whose
        # multiplier is infinite; JSON has no literal for it
        spec_path = write_spec(tmp_path, spec_document(sticky_tracking(1)))
        code = main(["solve", "--spec", spec_path, "--out", str(tmp_path),
                     "--D", "0.0", "--restarts", "1"])
        assert code == EXIT_OK

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads((tmp_path / "solve.json").read_text(), parse_constant=reject)
        assert doc["requested"][0]["mu"] is None
        assert doc["requested"][0]["gap"] is None


class TestSynthCommand:
    def run_synth(self, tmp_path, spec_path, tag, *extra):
        out = tmp_path / tag
        argv = ["synth", "--spec", spec_path, "--D", "0.4", "--out", str(out),
                "--trials", "400", "--cloud-size", "40",
                "--restarts", "4", "--seed", "0", *extra]
        code = main(argv)
        return code, out

    def test_pipeline_passes_and_writes_bundle(self, tmp_path):
        spec_path = write_spec(tmp_path, controlled_doc())
        code, out = self.run_synth(tmp_path, spec_path, "a")
        assert code == EXIT_OK
        doc = json.loads((out / "result_bundle.json").read_text())
        assert doc["sandwich"]["passed"]
        assert doc["exact"]["cost"] <= 0.4
        f = doc["bounds"]["info_rate_lower_bits"]
        assert 0.0 <= f <= doc["solver_point"]["rate_bits"]
        assert f <= doc["exact"]["rate_bits"]
        want = f + math.log2(f + 3.4) + 2.0 + 0.5
        assert doc["bounds"]["rate_budget_bits"] == pytest.approx(want, abs=1e-12)

    def test_bundle_schema_version(self, tmp_path):
        # version 5: the bounds carry the certified lower bound on F and the
        # paper's rate bound at it; gamma, the epsilon condition and the
        # copies of bundle values in the simulation block are gone.  Version
        # 6: the solver's rate is solver_point.rate_bits alone
        spec_path = write_spec(tmp_path, controlled_doc())
        code = main(["synth", "--spec", spec_path, "--D", "0.4", "--out",
                     str(tmp_path / "v"), "--restarts", "1", "--cloud-size", "3",
                     "--trials", "30"])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "v" / "result_bundle.json").read_text())
        assert doc["schema_version"] == 6
        assert "gamma" not in doc and "eps_condition_ok" not in doc
        assert set(doc["bounds"]) == {"info_rate_lower_bits", "rate_budget_bits"}
        assert set(doc["simulation"]) == {
            "trials", "empirical_rate", "empirical_rate_se", "empirical_cost",
            "empirical_cost_se", "exact_rate", "exact_cost", "seeds",
            "mc_rate_consistent", "mc_cost_consistent"}

    def test_small_cloud_falls_back_to_cost_floor_realization(self, tmp_path):
        # the three realizations cost 0.5 at rate 0, over the budget; the only
        # mixture within it uses realization 3, the cost floor's greedy
        # policy (rate 0.5, cost 0.3), at rate 0.25, above the barycenter
        # rate + epsilon, so realization 3 is selected alone and its
        # operating point is the solver point
        spec_path = write_spec(tmp_path, controlled_doc())
        out = tmp_path / "anchor"
        code = main(["synth", "--spec", spec_path, "--D", "0.4", "--out", str(out),
                     "--restarts", "1", "--cloud-size", "3", "--trials", "30"])
        assert code == EXIT_OK
        doc = json.loads((out / "result_bundle.json").read_text())
        assert doc["seeds"]["attempts"] == 2
        sel = doc["selector"]
        assert (sel["realization0"], sel["realization1"], sel["weight"]) == (3, 3, 1.0)
        assert doc["solver_point"]["mu"] is None
        assert doc["sandwich"]["passed"]

    def test_byte_identical_across_runs(self, tmp_path):
        spec_path = write_spec(tmp_path, controlled_doc())
        _, out_a = self.run_synth(tmp_path, spec_path, "a")
        _, out_b = self.run_synth(tmp_path, spec_path, "b")
        assert (out_a / "result_bundle.json").read_bytes() == \
            (out_b / "result_bundle.json").read_bytes()

    def test_trials_csv_written(self, tmp_path):
        spec_path = write_spec(tmp_path, controlled_doc())
        outdir = tmp_path / "d"
        trials = TRIAL_BLOCK + 50     # more than one simulation block
        code = main(["synth", "--spec", spec_path, "--D", "0.4", "--out",
                     str(outdir), "--trials", str(trials), "--cloud-size", "20",
                     "--restarts", "2", "--trials-csv"])
        assert code == EXIT_OK
        lines = (outdir / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial,bits_per_stage,cost_per_stage"
        assert len(lines) == trials + 1
        assert lines[-1].startswith(f"{trials - 1},")

    @pytest.mark.parametrize("error", [DecodeMismatchError, CodingError])
    def test_simulation_failure_exit_code(self, tmp_path, capsys, monkeypatch,
                                          error):
        def failing(*args, **kwargs):
            raise error("trial 7 stage 2: encoded 1, decoded 0")

        monkeypatch.setattr(ratecost.cli, "run_trials", failing)
        spec_path = write_spec(tmp_path, controlled_doc())
        code, out = self.run_synth(tmp_path, spec_path, "v")
        assert code == EXIT_VERIFY
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["verification failed: trial 7 stage 2: encoded 1, decoded 0"]
        assert not (out / "result_bundle.json").exists()

    def test_decode_mismatch_in_synthesis_exit_code(self, tmp_path, capsys,
                                                    monkeypatch):
        # the decoder reads one bit too many at the last stage (call 2 of
        # the horizon-2 spec) of the first sent sequence
        decode, calls = ContextCode.decode, []

        def corrupted(code, bits, start=0):
            symbol, used = decode(code, bits, start)
            calls.append(start)
            return symbol, used + (len(calls) == 2)

        monkeypatch.setattr(ContextCode, "decode", corrupted)
        spec_path = write_spec(tmp_path, controlled_doc())
        code, out = self.run_synth(tmp_path, spec_path, "m")
        assert code == EXIT_VERIFY
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("verification failed: sequence ")
        assert not (out / "result_bundle.json").exists()

    def test_first_action_misread_into_a_context_without_code_exit_code(
            self, tmp_path, capsys, monkeypatch):
        # at D = 0.5 the scheme sends only [1, 1]; a first action misread as
        # 0 leaves the decoder in a stage-2 context that has no code
        decode = ContextCode.decode

        def misread(code, bits, start=0):
            symbol, used = decode(code, bits, start)
            return 1 - symbol, used

        monkeypatch.setattr(ContextCode, "decode", misread)
        spec_path = write_spec(tmp_path, controlled_doc())
        code, out = self.run_synth(tmp_path, spec_path, "f", "--D", "0.5")
        assert code == EXIT_VERIFY
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["verification failed: sequence 3: encoded [1, 1] in 0 bits, "
                       "decoded [0] from 0 bits"]
        assert not (out / "result_bundle.json").exists()

    def test_infeasible_budget_exit(self, tmp_path):
        spec_path = write_spec(tmp_path, controlled_doc())
        code = main(["synth", "--spec", spec_path, "--D", "0.05",
                     "--out", str(tmp_path), "--restarts", "2"])
        assert code == EXIT_INFEASIBLE

    def test_unconverged_solution_exit_code(self, tmp_path, capsys, monkeypatch):
        solve = ratecost.scheme.solve_rate_cost

        def unconverged(*args, **kwargs):
            return dataclasses.replace(solve(*args, **kwargs), converged=False)

        monkeypatch.setattr(ratecost.scheme, "solve_rate_cost", unconverged)
        spec_path = write_spec(tmp_path, controlled_doc())
        code, out = self.run_synth(tmp_path, spec_path, "u")
        assert code == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("warning: solver failed")
        assert (out / "result_bundle.json").exists()

    def test_failed_ledger_exit_code(self, tmp_path, capsys, monkeypatch):
        verify = ratecost.cli.verify_sandwich

        def failing(bundle, report):
            return dataclasses.replace(verify(bundle, report), achievability_ok=False)

        monkeypatch.setattr(ratecost.cli, "verify_sandwich", failing)
        spec_path = write_spec(tmp_path, controlled_doc())
        code, _ = self.run_synth(tmp_path, spec_path, "f")
        assert code == EXIT_VERIFY
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["verification failed: the sandwich ledger did not pass"]

    def test_budget_at_cost_floor_passes(self, tmp_path):
        # drive2's DP floor is 0.30000000000000004; the cloud's points cost
        # 0.3 or that, so none is strictly below the budget 0.3, and the
        # lowest-rate point at 0.3 is selected alone
        spec_path = write_spec(tmp_path, controlled_doc())
        assert ratecost.solver.min_expected_cost(load_spec(spec_path)) > 0.3
        out = tmp_path / "floor"
        code = main(["synth", "--spec", spec_path, "--D", "0.3", "--out", str(out),
                     "--restarts", "1", "--trials", "200"])
        assert code == EXIT_OK
        doc = json.loads((out / "result_bundle.json").read_text())
        assert doc["sandwich"]["passed"]
        assert doc["selector"]["case"] == "boundary"
        assert doc["exact"]["cost"] <= 0.3

    @pytest.mark.parametrize("restarts", ["1", "8"])
    def test_panel_spec_112_at_its_floor_passes(self, tmp_path, restarts):
        # the dual bound at a small multiplier sat ulps above the scheme's
        # exact rate until the round-off allowance gained its absolute term
        spec = random_markov_panel()[112]
        assert ratecost.solver.min_expected_cost(spec) == 0.019354344530502006
        spec_path = write_spec(tmp_path, spec_document(spec))
        out = tmp_path / "s112"
        code = main(["synth", "--spec", spec_path, "--D", "0.019354344530502006",
                     "--out", str(out), "--cloud-size", "20", "--trials", "200",
                     "--restarts", restarts])
        assert code == EXIT_OK
        doc = json.loads((out / "result_bundle.json").read_text())
        assert doc["sandwich"]["converse_margin"] >= 0.0

    def test_rounded_negative_realization_rate_passes(self, tmp_path):
        # a realization's action law can sum to 1 + ulps, so its entropy
        # rounds to about -1e-16; the rate is clamped at 0, not rejected
        p = 0.11769803576672733
        spec = SystemSpec.from_markov(
            [p, 1.0 - p],
            [[[1.0, 2.225073858507e-311]], [[0.19692350840861825, 0.8030764915913818]]],
            [[0.0], [1.0]], 3)
        spec_path = write_spec(tmp_path, spec_document(spec))
        out = tmp_path / "clamped"
        code = main(["synth", "--spec", spec_path, "--D", "1.0", "--out", str(out),
                     "--restarts", "1", "--cloud-size", "3", "--trials", "30"])
        assert code == EXIT_OK
        doc = json.loads((out / "result_bundle.json").read_text())
        assert doc["sandwich"]["passed"]

    # a zero or oversized count, a negative seed, a non-finite budget, or a
    # non-finite or negative slack is an invalid option before any output
    # is written
    @pytest.mark.parametrize("argv, reason", [
        pytest.param(["synth", "--D", "0.4", "--trials", "0"], "at least 1",
                     id="--trials"),
        pytest.param(["synth", "--D", "0.4", "--cloud-size", "0"], "at least 1",
                     id="--cloud-size"),
        pytest.param(["synth", "--D", "0.4", "--cloud-size", "100000000"],
                     "cloud_size must be at least 1 and at most 100000, got 100000000",
                     id="--cloud-size 1e8"),
        pytest.param(["synth", "--D", "0.4", "--restarts", "0"], "at least 1",
                     id="--restarts"),
        pytest.param(["synth", "--D", "inf"], "cost budget must be finite, got inf",
                     id="synth --D inf"),
        pytest.param(["synth", "--D", "1e400"], "cost budget must be finite, got inf",
                     id="synth --D 1e400"),
        pytest.param(["synth", "--D", "nan"], "cost budget must be finite, got nan",
                     id="synth --D nan"),
        pytest.param(["solve", "--D", "inf"], "cost budget must be finite, got inf",
                     id="solve --D inf"),
        pytest.param(["synth", "--D", "0.4", "--eps", "-1"],
                     "epsilon must be finite and nonnegative, got -1.0", id="--eps -1"),
        pytest.param(["synth", "--D", "0.4", "--trials", "10000000000000"],
                     "--trials 10000000000000 needs 20000000000000 per-trial entries, "
                     "over the budget 10000000", id="--trials 1e13"),
        pytest.param(["synth", "--D", "0.4", "--seed", "-1"],
                     "seed must be nonnegative, got -1", id="--seed -1"),
    ])
    def test_zero_count_option_rejected(self, tmp_path, capsys, argv, reason):
        spec_path = write_spec(tmp_path, controlled_doc())
        out = tmp_path / "o"
        code = main([argv[0], "--spec", spec_path, "--out", str(out),
                     "--restarts", "1", *argv[1:]])
        assert code == EXIT_SPEC
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and reason in err[0]
        assert err[0].startswith("invalid option: ")
        assert not out.exists()

    def test_bundle_digest_pinned(self, tmp_path):
        # the bundle is a pure function of spec, budget, options and seed;
        # this digest changes only with the seed contract or the numbers.
        # Re-recorded when the selector became the lowest-rate mixture within
        # the budget: the pair (3, 0) now mixes onto the budget (mix rate
        # 0.275 -> 0.25, cost 0.39 -> 0.4); the solver point is unchanged.
        # Re-recorded when the solver's rate and cost came from the row pass:
        # solver_point.rate_bits and info_rate 0.09447817537519092 -> ...096.
        # Re-recorded when the ledger checked the paper's bound at the
        # certified lower bound on F: bounds.info_rate_lower_bits
        # 0.09436089568930468 was added, rate_budget_bits 4.649555211804132
        # -> 4.399389512396595 (no gamma, F_lower), the achievability margin
        # by the same and the converse margin by +1.2e-4; gamma,
        # eps_condition_ok and the simulation block's copies of bundle values
        # were removed; every other value is unchanged.  Re-recorded when
        # F_lower's round-off allowance gained its absolute term and the
        # bounds lost their copy of the solver's rate: info_rate_lower_bits
        # 0.09436089568930468 -> 0.09436089568839519, rate_budget_bits and
        # the achievability margin by -1.3e-12, the converse margin by
        # +9.1e-13, bounds.info_rate_bits removed, schema_version 5 -> 6
        spec_path = write_spec(tmp_path, controlled_doc())
        out = tmp_path / "golden"
        code = main(["synth", "--spec", spec_path, "--D", "0.4", "--out", str(out),
                     "--seed", "0", "--restarts", "1", "--cloud-size", "20",
                     "--trials", "200"])
        assert code == EXIT_OK
        doc = json.loads((out / "result_bundle.json").read_text())
        del doc["spec_path"]
        assert doc["seeds"]["attempts"] == 1
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "a120ab46fe8cf62ae31a4fa4459da06526cbd10348bd0c6872be996aae69088d"

    def test_sticky4_bundle_digest_pinned(self, tmp_path):
        # at its mid-curve budget the sweep stops at the eleventh of 22
        # multipliers; the digest is the one the full sweep gives.  The
        # cloud's barycenter costs more than the budget, and the selector
        # mixes onto it in one attempt.  Re-recorded when the selector
        # became the lowest-rate mixture within the budget: the run no
        # longer solves again at a lower target (solver point mu 1.61 ->
        # 1.16, rate 0.226 -> 0.135), and the mixture moved from rate 0.407
        # at cost 0.141 to rate 0.230 at cost 0.25.  Re-recorded when the
        # solver's rate and cost came from the row pass: solver_point.rate_bits
        # and info_rate 0.135424622112165 -> 0.13542462211216486, its cost
        # 0.24994983063143716 -> ...728, converse_margin by the same 1.4e-16.
        # Re-recorded when the bracket search ran at a loose gap and only the
        # answer was solved to tol: solver_point mu 1.160076416534219 ->
        # 1.160075765638439, rate_bits and info_rate 0.13542462211216486 ->
        # 0.13542449699693695, cost 0.24994983063143728 -> ...93848231786,
        # the rate budget and achievability margin by 1.8e-7 and the converse
        # margin by 1.3e-7; the selector, the exact rate and cost, the
        # entropies and the trials are unchanged.  Re-recorded when SQUAREM
        # took one step per action-context row: solver_point mu
        # 1.160075765638439 -> 1.1600762019680764, rate_bits and info_rate
        # 0.13542449699693695 -> 0.1354245808125402, cost
        # 0.24994993848231786 -> 0.24994986623222004, the rate budget and
        # achievability margin by 1.2e-7 and the converse margin by 8.4e-8;
        # the selector, the exact rate and cost, the entropies and the
        # trials are unchanged.  Re-recorded when the ledger checked the
        # paper's bound at the certified lower bound on F:
        # bounds.info_rate_lower_bits 0.13536642137348287 was added,
        # rate_budget_bits 4.457308064263119 -> 4.207226171599791, the
        # achievability margin by the same and the converse margin by
        # +5.8e-5; gamma, eps_condition_ok and the simulation block's copies
        # of bundle values were removed; every other value is unchanged.
        # Re-recorded when F_lower's round-off allowance gained its absolute
        # term and the bounds lost their copy of the solver's rate:
        # info_rate_lower_bits 0.13536642137348287 -> 0.13536642137257338,
        # rate_budget_bits and the achievability margin by -1.3e-12, the
        # converse margin by +9.1e-13, bounds.info_rate_bits removed,
        # schema_version 5 -> 6
        spec_path = write_spec(tmp_path, spec_document(sticky_tracking(4)))
        out = tmp_path / "golden"
        code = main(["synth", "--spec", spec_path, "--D", "0.25", "--out", str(out),
                     "--seed", "0", "--restarts", "1", "--cloud-size", "20",
                     "--trials", "200"])
        assert code == EXIT_OK
        doc = json.loads((out / "result_bundle.json").read_text())
        del doc["spec_path"]
        assert doc["seeds"]["attempts"] == 1
        assert doc["selector"]["case"] == "boundary-mixed"
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "8bca09eb15bd12ceac526d06b87725a3360c35c9102aa2a6c407d16467f77353"

    def test_block_of_one_bundle_byte_identical(self, tmp_path):
        # a budget of 16 entries makes the cloud evaluate two realizations
        # per block, 8 stage-2 (row, action) entries each, against 40 at the
        # default budget; it also bounds the solver's chains, 2 of 8 entries
        spec_path = write_spec(tmp_path, controlled_doc())
        _, out_a = self.run_synth(tmp_path, spec_path, "a", "--restarts", "2")
        write_spec(tmp_path, {**controlled_doc(), "budget": 16})
        assert load_spec(spec_path).budget == 16
        _, out_b = self.run_synth(tmp_path, spec_path, "b", "--restarts", "2")
        assert (out_a / "result_bundle.json").read_bytes() == \
            (out_b / "result_bundle.json").read_bytes()

    def test_invariant_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        reduce = ratecost.scheme.caratheodory_reduce

        def overspent(points, weights, budget_cost, epsilon):
            selector = reduce(points, weights, budget_cost, epsilon)
            return dataclasses.replace(selector, mix_cost=budget_cost * 2)

        monkeypatch.setattr(ratecost.scheme, "caratheodory_reduce", overspent)
        spec_path = write_spec(tmp_path, controlled_doc())
        code, out = self.run_synth(tmp_path, spec_path, "v")
        assert code == EXIT_VERIFY
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["verification failed: certified mixture cost 0.8 exceeds "
                       "the budget 0.4"]
        assert not (out / "result_bundle.json").exists()

    def test_kraft_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ratecost.coder, "_ceil_neg_log2", lambda q: 0)
        spec_path = write_spec(tmp_path, controlled_doc())
        code, out = self.run_synth(tmp_path, spec_path, "k")
        assert code == EXIT_VERIFY
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert err == ["verification failed: Kraft sum 2 exceeds 1"]
        assert "Traceback" not in captured.out + captured.err
        assert not (out / "result_bundle.json").exists()

    def test_proposals_option_is_gone(self, tmp_path):
        spec_path = write_spec(tmp_path, controlled_doc())
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--spec", spec_path, "--D", "0.4", "--out",
                  str(tmp_path), "--proposals", "128"])
        assert exc.value.code == EXIT_SPEC

    def test_gamma_option_is_gone(self, tmp_path, capsys):
        # the ledger checks the paper's bound as written, with no slack term
        spec_path = write_spec(tmp_path, controlled_doc())
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--spec", spec_path, "--D", "0.4", "--out",
                  str(tmp_path / "o"), "--gamma", "0.25"])
        assert exc.value.code == EXIT_SPEC
        assert "unrecognized arguments: --gamma 0.25" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["solve", "synth", "lqg"])
def test_out_that_cannot_be_a_directory_exits_on_one_line(tmp_path, capsys, command,
                                                          under):
    # an existing file (FileExistsError) or a path under one (NotADirectoryError)
    spec_path = write_spec(tmp_path, controlled_doc())
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    argv = {"solve": ["solve", "--spec", spec_path, "--D", "0.4", "--restarts", "1"],
            "synth": ["synth", "--spec", spec_path, "--D", "0.4", "--trials", "400",
                      "--cloud-size", "40", "--restarts", "4"],
            "lqg": ["lqg", "--a", "2", "--b", "1", "--d-grid", "2.0"]}[command]
    before = sorted(tmp_path.iterdir())
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == EXIT_SPEC
    assert len(err) == 1 and err[0].startswith(f"invalid option: --out {out}: ")
    assert sorted(tmp_path.iterdir()) == before and afile.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["solve", "synth", "lqg"])
def test_out_under_a_file_is_refused_before_any_solve(tmp_path, monkeypatch, capsys,
                                                       command):
    def reached(*args, **kwargs):
        raise AssertionError("the work began before --out was checked")

    for module, name in ((ratecost.cli, "sweep_curve"),
                         (ratecost.cli, "solve_rate_cost"),
                         (ratecost.scheme, "solve_rate_cost"),
                         (ratecost.cli, "riccati_solve")):
        monkeypatch.setattr(module, name, reached)
    spec_path = write_spec(tmp_path, controlled_doc())
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" / "deeper"
    argv = {"solve": ["solve", "--spec", spec_path, "--D", "0.4"],
            "synth": ["synth", "--spec", spec_path, "--D", "0.4"],
            "lqg": ["lqg", "--a", "2", "--b", "1", "--d-grid", "2.0"]}[command]
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_SPEC
    assert capsys.readouterr().err.splitlines() == \
        [f"invalid option: --out {out}: Not a directory"]


class TestLqgCommand:
    def test_worked_point_row(self, tmp_path):
        out = tmp_path / "lqg"
        code = main(["lqg", "--a", "2", "--b", "1", "--q", "1", "--r", "0",
                     "--sigma2", "1", "--d-grid", "2.0", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "lqg_curve.csv").read_text().splitlines()
        assert lines[0].startswith("# s=1.0, m=1.0, D_min=1.0")
        d, rate = lines[2].split(",")
        assert float(d) == 2.0
        assert float(rate) == pytest.approx(1.5, abs=1e-12)

    def test_restarts_over_working_set_budget_exit(self, tmp_path, capsys):
        # 10**15 chains of 8 floats cannot be allocated: numpy would raise
        # MemoryError, so the one-line spec error shows the check came first
        spec_path = write_spec(tmp_path, controlled_doc())
        code = main(["solve", "--spec", spec_path, "--out", str(tmp_path / "o"),
                     "--restarts", str(10 ** 15)])
        assert code == EXIT_SPEC
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("spec error: ")
        assert "--restarts" in err[0] and "budget" in err[0]
        assert not (tmp_path / "o").exists()

    def test_memoryless_plant_zero_column(self, tmp_path):
        out = tmp_path / "lqg0"
        code = main(["lqg", "--a", "0", "--b", "1", "--q", "1", "--r", "0.5",
                     "--sigma2", "1", "--d-grid", "1.5,2.0,3.0", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "lqg_curve.csv").read_text().splitlines()[2:]
        assert all(float(row.split(",")[1]) == 0.0 for row in lines)

    @pytest.mark.parametrize("argv, reason", [
        (["--a", "nan"], "invalid option: a must be finite, got nan"),
        (["--sigma2", "inf"], "invalid option: noise_var must be finite, got inf"),
        (["--a", "1e308"], "spec error: fixed-point residual nan"),
        (["--a", "1e308", "--r", "1"], "spec error: fixed-point residual nan"),
        (["--d-grid", "nan"], "invalid option: cost level must be finite, got nan"),
        (["--d-grid", "2.0,inf"], "invalid option: cost level must be finite, got inf"),
    ])
    def test_non_finite_input_rejected(self, tmp_path, capsys, argv, reason):
        out = tmp_path / "lqg"
        code = main(["lqg", "--a", "2", "--b", "1", "--d-grid", "2.0",
                     "--out", str(out), *argv])
        assert code == EXIT_SPEC
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(reason)
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["", ","])
    def test_empty_grid_rejected(self, tmp_path, capsys, grid):
        out = tmp_path / "lqg"
        code = main(["lqg", "--a", "2", "--b", "1", "--d-grid", grid,
                     "--out", str(out)])
        assert code == EXIT_SPEC
        assert capsys.readouterr().err.splitlines() == \
            [f"invalid option: --d-grid {grid!r} holds no cost level"]
        assert not out.exists()

    def test_grid_at_floor_rejected_names_floor(self, tmp_path, capsys):
        code = main(["lqg", "--a", "2", "--b", "1", "--q", "1", "--r", "0",
                     "--sigma2", "1", "--d-grid", "2.0,1.0", "--out", str(tmp_path)])
        assert code == EXIT_SPEC
        err = capsys.readouterr().err
        assert "D_min" in err or "floor" in err


class TestNoEnvironment:
    def test_parser_reads_no_environment(self, tmp_path, monkeypatch, capsys):
        spec_path = write_spec(tmp_path, controlled_doc())
        for name, value in (("SPEC", spec_path), ("D", "0.1"), ("SEED", "abc"),
                            ("GAMMA", "1"), ("SEEED", "3")):
            monkeypatch.setenv("RATECOST_" + name, value)
        args = build_parser().parse_args(["synth", "--spec", spec_path])
        assert (args.budget, args.seed, args.out, args.restarts, args.eps,
                args.trials, args.cloud_size, args.trials_csv) == \
            (None, 0, ".", SolverOptions.restarts, SchemeOptions.epsilon, 10000,
             SchemeOptions.cloud_size, False)
        code = main(["synth", "--spec", spec_path, "--out", str(tmp_path / "o")])
        assert code == EXIT_SPEC
        assert capsys.readouterr().err.splitlines() == \
            ["invalid option: synth requires --D"]
        assert not (tmp_path / "o").exists()


@st.composite
def small_specs(draw):
    """Markov specs with at most two states and actions and three stages;
    probabilities and costs include 0 and 1."""
    X, U = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0)

    def pmf():
        p = draw(unit)
        return [1.0 - p, p] if X == 2 else [1.0]

    transition = [[pmf() for _ in range(U)] for _ in range(X)]
    cost = [[draw(unit) for _ in range(U)] for _ in range(X)]
    return SystemSpec.from_markov(pmf(), transition, cost, n)


class TestSynthFuzz:
    @given(spec=small_specs(), share=st.floats(0.0, 1.5),
           cloud=st.sampled_from([1, 3]), seed=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_passes_ledger_or_exits_with_one_line(self, spec, share, cloud, seed):
        floor = ratecost.solver.min_expected_cost(spec)
        budget = floor + share * (min_open_loop_cost(spec)[0] - floor)
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = os.path.join(tmp, "spec.json")
            with open(spec_path, "w") as fh:
                json.dump(spec_document(spec), fh)
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["synth", "--spec", spec_path, "--D", repr(budget),
                             "--out", out, "--restarts", "1", "--seed", str(seed),
                             "--cloud-size", str(cloud), "--trials", "30"])
            if code == EXIT_OK:
                with open(os.path.join(out, "result_bundle.json")) as fh:
                    doc = json.load(fh)
                assert doc["sandwich"]["passed"] and doc["exact"]["cost"] <= budget
            else:
                lines = err.getvalue().strip().splitlines()
                # a valid spec is never a usage error (exit 2)
                assert code in (EXIT_INFEASIBLE, EXIT_NO_CONVERGENCE,
                                EXIT_VERIFY), (code, lines)
                assert len(lines) == 1 and "Traceback" not in lines[0]
