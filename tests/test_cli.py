"""CLI behavior: subcommands, artifacts, exit codes."""

import copy
import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema.validators import validator_for

from carnotpde import doubling
from carnotpde.cli import main
from carnotpde.config import _schema, _violation, build_setup, load_config
from carnotpde.solver import solve

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
BIG = "9" * 400  # an integer literal beyond the largest float
HEISENBERG_AS_JSON = {
    "name": "heisenberg1",
    "n": 3,
    "m": 2,
    "entries": [
        [[[1.0, 0, 0, 0]], [[0.0, 0, 0, 0]], [[2.0, 0, 1, 0]]],
        [[[0.0, 0, 0, 0]], [[1.0, 0, 0, 0]], [[-2.0, 1, 0, 0]]],
    ],
}


def run(*argv) -> int:
    return main(list(argv))


class TestLemmaCheck:
    def test_default_run_passes(self, tmp_path, capsys):
        code = run("lemma-check", "--trials", "100", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6
        report = json.loads((tmp_path / "lemma_report.json").read_text())
        assert report["all_passed"] is True
        assert report["schema_version"] == 1
        assert len(report["suites"]) == 6

    def test_uncentred_touching_pair_fails(self, tmp_path, capsys, monkeypatch):
        # (W, -W) before the shift by ||W|| I: W has positive tangential
        # eigenvalues, so blockdiag(W, W) exceeds eta theta [[I, -I], [-I, I]]
        def uncentred(x, y, L, alpha, eta):
            r = float(np.linalg.norm(np.subtract(x, y)))
            mu = 2.0 * L * alpha * r ** (alpha - 2.0) / (eta - 1.0)
            m, _ = doubling.phi_hessian_block(x, y, L, alpha)
            w = m + (2.0 / mu) * doubling.phi_hessian_square(x, y, L, alpha)
            return w, -w, mu

        monkeypatch.setattr(doubling, "touching_pair", uncentred)
        code = run("lemma-check", "--trials", "100", "--out", str(tmp_path))
        assert code == 1
        captured = capsys.readouterr()
        assert "[FAIL] touching_pair_trace_bound" in captured.out
        assert "touching_pair_trace_bound" in captured.err

    def test_rank_deficient_custom_sigma_is_config_error(self, tmp_path):
        config = tmp_path / "bad_sigma.json"
        config.write_text(
            json.dumps(
                {
                    "structure": {
                        "name": "degenerate",
                        "n": 2,
                        "m": 2,
                        "entries": [
                            [[[1.0, 0, 0]], [[0.0, 0, 0]]],
                            [[[2.0, 0, 0]], [[0.0, 0, 0]]],
                        ],
                    }
                }
            )
        )
        code = run("lemma-check", "--trials", "10", "--config", str(config), "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize(
        "structure",
        [
            # a missing row
            {"n": 2, "m": 2, "entries": [[[[1.0, 0, 0]], [[0.0, 0, 0]]]]},
            # a term with one exponent too few
            {"n": 2, "m": 1, "entries": [[[[1.0, 0]], [[1.0, 0, 0]]]]},
            "nosuch",
        ],
        ids=["missing-row", "short-term", "unknown-preset"],
    )
    def test_bad_structure_is_config_error(self, tmp_path, capsys, structure):
        config = tmp_path / "bad_structure.json"
        config.write_text(json.dumps({"structure": structure}))
        code = run("lemma-check", "--trials", "10", "--config", str(config), "--out", str(tmp_path))
        assert code == 2
        assert "config error: bad structure description" in capsys.readouterr().err
        assert not (tmp_path / "lemma_report.json").exists()

    def test_frame_with_more_rows_than_columns_is_precondition_error(self, tmp_path, capsys):
        config = tmp_path / "tall_sigma.json"
        rows = [[[[1.0, 0, 0]], [[0.0, 0, 0]]], [[[0.0, 0, 0]], [[1.0, 0, 0]]]]
        rows.append([[[1.0, 1, 0]], [[1.0, 0, 1]]])
        config.write_text(json.dumps({"structure": {"n": 2, "m": 3, "entries": rows}}))
        code = run("lemma-check", "--trials", "10", "--config", str(config), "--out", str(tmp_path))
        assert code == 2
        assert "rank deficient" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3", "x"])
    def test_trials_below_one_is_a_usage_error(self, tmp_path, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            run("lemma-check", "--trials", trials, "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "lemma_report.json").exists()

    def test_deterministic_reports(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run("lemma-check", "--trials", "50", "--out", str(out1)) == 0
        assert run("lemma-check", "--trials", "50", "--out", str(out2)) == 0
        r1 = json.loads((out1 / "lemma_report.json").read_text())
        r2 = json.loads((out2 / "lemma_report.json").read_text())
        assert r1 == r2


class TestSolveCommand:
    def test_bundled_heisenberg_instance(self, tmp_path):
        code = run(
            "solve",
            "--config",
            str(CONFIGS / "heisenberg_verify_lowc.json"),
            "--out",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["converged"] is True
        assert report["schema_version"] == 3
        assert "dt" not in report and "cfl_bound" not in report
        assert report["final_residual"] <= 1e-6
        assert report["nnz"] > 0 and report["assembly_s"] > 0.0
        history = report["residual_history"]
        assert len(history) == report["outer_iterations"] + 1
        assert history[0] > 1e-6 >= history[-1] == report["final_residual"]
        assert 1 <= report["outer_iterations"] <= report["iterations"]
        csv_lines = (tmp_path / "solution.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "x1,x2,x3,value"
        assert len(csv_lines) == 16**3 + 1

    def test_pucci_solve_leaves_sparse_linalg_unloaded(self, tmp_path):
        # importing scipy.sparse.linalg adds about 10 MB to every run's resident
        # memory, and importing jsonschema about 0.06 s to its start-up
        script = (
            "import sys\n"
            "from carnotpde.cli import main\n"
            "code = main(['solve', '--config', sys.argv[1], '--out', sys.argv[3]])\n"
            "print('loaded', code, 'scipy.sparse.linalg' in sys.modules,"
            " 'jsonschema' in sys.modules)\n"
            "code = main(['cc-distance', '--config', sys.argv[2], '--out', sys.argv[3]])\n"
            "print('loaded', code, 'jsonschema' in sys.modules)\n"
        )
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        argv = [CONFIGS / "euclidean_pucci.json", CONFIGS / "cc_heisenberg.json", tmp_path]
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, argv)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded")]
        assert loaded == ["loaded 0 False False", "loaded 0 False"], proc.stderr
        assert json.loads((tmp_path / "solve_report.json").read_text())["converged"] is True

    def test_bundled_planar_instance(self, tmp_path):
        code = run("solve", "--config", str(CONFIGS / "line2d.json"), "--out", str(tmp_path))
        assert code == 0
        # solution.csv holds the bytes csv.writer gives for the solved grid
        setup = build_setup(load_config(CONFIGS / "line2d.json"), need_solve=True)
        u, _ = solve(setup.spec, setup.coeffs, setup.grid, setup.solve_cfg)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "value"])
            for p, v in zip(u.grid.coords(), u.flat):
                writer.writerow([repr(float(c)) for c in p] + [repr(float(v))])
        assert (tmp_path / "solution.csv").read_bytes() == ref.read_bytes()

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("solve", "--config", str(bad), "--out", str(tmp_path)) == 2

    def test_schema_violation(self, tmp_path, capsys):
        # the message names the JSON path of the offending value
        cases = [
            ("unknown_field", 1, "additional properties are not allowed ('unknown_field'"),
            ("operator", {"kind": "foo"}, "operator.kind: 'foo' is not one of ['trace', "),
            ("grid", {"box": [[-1, 1]] * 2, "shape": [9, 2]}, "grid.shape[1]: 2 is less than the"),
        ]
        for section, value, message in cases:
            config = json.loads((CONFIGS / "line2d.json").read_text())
            config[section] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(config))
            assert run("solve", "--config", str(bad), "--out", str(tmp_path)) == 2
            assert f"config fails schema validation: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,old,new",
        [
            ("line2d", '"tol": 1e-6', '"tol": NaN'),
            ("line2d", '"c": {"const": 1}', '"c": {"const": NaN}'),
            ("line2d", '"L_f": 2.0', '"L_f": 1e999'),
            ("line2d", '"L_f": 2.0', f'"L_f": {BIG}'),
            ("line2d", '"L_f": 2.0', f'"L_f": {"9" * 5000}'),  # past Python's int digit limit
            ("line2d", '"shape": [17, 17]', f'"shape": [17, {BIG}]'),
            ("line2d", '"seed": 0', f'"seed": {BIG}'),
            ("cc_heisenberg", '"resolution": 0.05', f'"resolution": {BIG}'),
            (
                "cc_heisenberg",
                '"resolution": 0.05',
                f'"resolution": 0.05, "box": [[-1, {BIG}], [-1, 1], [-1, 1]]',
            ),
        ],
        ids=[
            "nan_tol",
            "nan_c",
            "overflowing_float",
            "overflowing_int",
            "int_past_digit_limit",
            "overflowing_shape",
            "overflowing_seed",
            "overflowing_cc_resolution",
            "overflowing_cc_box",
        ],
    )
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, name, old, new):
        # NaN fails no schema bound, and a NaN tol would never be met; an
        # integer beyond the largest float cannot become one
        text = (CONFIGS / f"{name}.json").read_text()
        assert old in text
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(old, new))
        command, report = ("solve", "solve") if name == "line2d" else ("cc-distance", "cc")
        assert run(command, "--config", str(bad), "--out", str(tmp_path)) == 2
        assert "config error: config has a" in capsys.readouterr().err
        assert not (tmp_path / f"{report}_report.json").exists()

    def test_structure_step_is_rejected(self, tmp_path, capsys):
        # a JSON frame's step was never read, so the schema no longer knows it
        config = json.loads((CONFIGS / "line2d.json").read_text())
        config["structure"] = {"n": 2, "m": 1, "entries": [[[[1.0, 0, 0]], [[0.0, 0, 0]]]]}
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(config))
        assert run("solve", "--config", str(path), "--out", str(tmp_path / "ok")) == 0
        config["structure"]["step"] = 1
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run("solve", "--config", str(path), "--out", str(tmp_path / "bad")) == 2
        assert "config fails schema validation: structure: " in capsys.readouterr().err
        assert not (tmp_path / "bad" / "solve_report.json").exists()

    def test_packaged_schema_is_a_valid_schema(self):
        # load_config validates configs without checking the schema itself
        schema = _schema()
        validator_for(schema).check_schema(schema)

    def test_validator_implements_every_schema_keyword(self):
        # what config._violation reads; $schema, title and definitions are
        # annotations or reference targets
        implemented = {"type", "enum", "oneOf", "$ref", "properties", "required", "items"}
        implemented |= {"additionalProperties", "minItems", "maxItems", "minimum", "maximum"}
        implemented |= {"exclusiveMinimum", "$schema", "title", "definitions"}
        for node in _schema_nodes(_schema()):
            assert set(node) <= implemented, node
            assert isinstance(node.get("type", ""), str), node  # one type name, not a list
            assert node.get("additionalProperties", False) is False, node
            assert node.get("$ref", "#/definitions/").startswith("#/definitions/"), node
            assert isinstance(node.get("items", {}), dict), node  # one schema for every item
            assert all(isinstance(e, (str, int)) for e in node.get("enum", [])), node

    def test_validator_agrees_with_jsonschema(self):
        schema = _schema()
        reference = validator_for(schema)(schema)
        verdicts = [0, 0]
        for doc in _mutated_configs(5000):
            ok = _violation(doc, schema) is None
            assert ok == reference.is_valid(doc), (doc, _violation(doc, schema))
            verdicts[ok] += 1
        # both verdicts are common, so the corpus probes both sides of each rule
        assert min(verdicts) > 500, verdicts
        # rules no mutant of the packaged schema reaches: True against enum [1],
        # and a value that matches two branches of a oneOf
        draft7 = validator_for(schema)
        both = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
        for sub, doc in [({"enum": [1]}, True), ({"enum": [1]}, 1.0), (both, 1), (both, 1.5)]:
            assert (_violation(doc, sub) is None) == draft7(sub).is_valid(doc), (sub, doc)

    def test_output_dir_key_is_rejected(self, tmp_path):
        config = json.loads((CONFIGS / "line2d.json").read_text())
        config["output_dir"] = str(tmp_path / "elsewhere")
        path = tmp_path / "with_output_dir.json"
        path.write_text(json.dumps(config))
        assert run("solve", "--config", str(path), "--out", str(tmp_path)) == 2

    def test_fractional_exponent_is_config_error(self, tmp_path, capsys):
        # int() would truncate x1^2.5 to x1^2 and solve for that instead
        config = json.loads((CONFIGS / "line2d.json").read_text())
        config["manufactured_solution"] = {"terms": [[1, 2.5, 0]]}
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(config))
        assert run("solve", "--config", str(path), "--out", str(tmp_path)) == 2
        assert "non-integral exponent" in capsys.readouterr().err
        assert not (tmp_path / "solve_report.json").exists()

    @pytest.mark.parametrize(
        "bounds, code",
        [({"lambda": 1.0, "Lambda": 1.0}, 0), ({"Lambda": 2.0}, 2), ({"lambda": 0.5}, 2)],
    )
    def test_trace_kind_takes_unit_bounds_only(self, tmp_path, capsys, bounds, code):
        # the trace kind is lambda = Lambda = 1; other bounds are no longer ignored
        config = json.loads((CONFIGS / "line2d.json").read_text())
        config["operator"].update(bounds)
        config["grid"]["shape"] = [9, 9]
        path = tmp_path / "trace_bounds.json"
        path.write_text(json.dumps(config))
        assert run("solve", "--config", str(path), "--out", str(tmp_path)) == code
        if code == 2:
            assert "trace kind uses lambda = Lambda = 1" in capsys.readouterr().err

    def test_missing_grid_is_config_error(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "line2d.json").read_text())
        del config["grid"]
        path = tmp_path / "no_grid.json"
        path.write_text(json.dumps(config))
        assert run("solve", "--config", str(path), "--out", str(tmp_path)) == 2
        assert "a grid section is required" in capsys.readouterr().err

    def test_box_axis_count_must_match_structure(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "line2d.json").read_text())
        config["grid"] = {"box": [[-1, 1]] * 3, "shape": [9, 9, 9]}
        path = tmp_path / "three_axes.json"
        path.write_text(json.dumps(config))
        assert run("solve", "--config", str(path), "--out", str(tmp_path)) == 2
        assert "grid box has 3 axes but the structure lives in dimension 2" in capsys.readouterr().err

    def test_non_convergence_exit(self, tmp_path):
        config = json.loads((CONFIGS / "heisenberg_verify_lowc.json").read_text())
        config["solver"]["max_iters"] = 2
        path = tmp_path / "short.json"
        path.write_text(json.dumps(config))
        assert run("solve", "--config", str(path), "--out", str(tmp_path)) == 3

    def test_two_box_sensitivity_report(self, tmp_path):
        config = json.loads((CONFIGS / "line2d.json").read_text())
        config["solver"]["two_box_check"] = True
        config["grid"]["shape"] = [9, 9]
        path = tmp_path / "twobox.json"
        path.write_text(json.dumps(config))
        assert run("solve", "--config", str(path), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert 0.0 <= report["two_box_gap"] < 1.0


class TestBuildSetup:
    """Config fields whose defaults and alternatives the bundled configs do not reach."""

    @staticmethod
    def setup(**changes):
        config = json.loads((CONFIGS / "line2d.json").read_text())
        for section, value in changes.items():
            config[section].update(value)
        return build_setup(config, need_solve=True)

    def test_default_c0_is_the_minimum_of_c_over_the_grid(self):
        config = json.loads((CONFIGS / "line2d.json").read_text())
        del config["coefficients"]["c0"]
        config["coefficients"]["c"] = {"terms": [[2, 0, 0], [1, 2, 0]]}
        setup = build_setup(config, need_solve=True)
        assert setup.coeffs.c0 == 2.0  # 2 + x1^2 at the nodes with x1 = 0

    def test_polynomial_f(self):
        setup = self.setup(coefficients={"f": {"terms": [[3, 1, 0]]}})
        X = np.array([[0.5, -1.0], [-1.0, 0.25]])
        assert setup.coeffs.f(X).tolist() == [1.5, -3.0]

    @pytest.mark.parametrize(
        "boundary, expected", [("zero", [0.0, 0.0]), ({"terms": [[2, 0, 1]]}, [-2.0, 0.5])]
    )
    def test_boundary_data(self, boundary, expected):
        setup = self.setup(solver={"boundary": boundary})
        X = np.array([[0.5, -1.0], [-1.0, 0.25]])
        assert setup.solve_cfg.boundary(X).tolist() == expected


class TestVerifyCommand:
    def test_verify_passes_with_large_c0(self, tmp_path):
        code = run(
            "verify", "--config", str(CONFIGS / "heisenberg_verify.json"), "--out", str(tmp_path)
        )
        assert code == 0
        report = json.loads((tmp_path / "holder_report.json").read_text())
        assert report["hypothesis_verdicts"]["growth_condition"] is True
        assert report["max_violation"] <= 0.0
        assert report["scan_s"] > 0.0
        assert sum(row["pairs"] for row in report["increments"]) == report["pair_count"]
        lines = (tmp_path / "increments.csv").read_text().splitlines()
        assert lines[0] == "distance,max_increment,pairs"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert rows == [
            [row["distance"], row["max_increment"], row["pairs"]] for row in report["increments"]
        ]

    def test_verify_samples_sigma_once(self, tmp_path, monkeypatch):
        # the bundle carries the sampled Lipschitz bound that verify_theorem
        # reports, so one verify samples sigma once; the figures are those of
        # the two-sample verify before
        from carnotpde import holder

        calls = []
        sample = holder.lipschitz_sigma_estimate
        monkeypatch.setattr(
            holder, "lipschitz_sigma_estimate", lambda *a, **k: calls.append(1) or sample(*a, **k)
        )
        config = str(CONFIGS / "heisenberg_verify.json")
        assert run("verify", "--config", config, "--out", str(tmp_path)) == 0
        assert len(calls) == 1
        report = json.loads((tmp_path / "holder_report.json").read_text())
        assert report["lipschitz_estimate"] == 2.0
        assert report["bundle"]["lipschitz_estimate"] == 2.0
        assert report["bundle"]["C"] == 4.4

    def test_verify_fails_growth_with_small_c0(self, tmp_path):
        code = run(
            "verify",
            "--config",
            str(CONFIGS / "heisenberg_verify_lowc.json"),
            "--out",
            str(tmp_path),
        )
        assert code == 4
        report = json.loads((tmp_path / "holder_report.json").read_text())
        assert report["hypothesis_verdicts"]["growth_condition"] is False

    def test_non_convergent_solve_exits_3(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "heisenberg_verify.json").read_text())
        config["solver"]["max_iters"] = 1
        config["grid"]["shape"] = [9, 9, 9]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(config))
        assert run("verify", "--config", str(path), "--out", str(tmp_path)) == 3
        assert "verify: solve did not converge" in capsys.readouterr().err
        assert not (tmp_path / "holder_report.json").exists()

    @pytest.mark.parametrize("radii, code", [([], 2), ([1.0, 0.25], 0), ([0.25, 1.0], 0)])
    def test_growth_radii(self, tmp_path, capsys, radii, code):
        # an empty list is a schema violation; otherwise only the largest
        # radius is sampled, so the order does not matter
        config = json.loads((CONFIGS / "heisenberg_verify.json").read_text())
        config["structure"] = HEISENBERG_AS_JSON
        config["grid"]["shape"] = [9, 9, 9]
        config["analysis"] = {"growth_radii": radii}
        path = tmp_path / "radii.json"
        path.write_text(json.dumps(config))
        assert run("verify", "--config", str(path), "--out", str(tmp_path)) == code
        if code == 2:
            assert "analysis.growth_radii: [] is too short" in capsys.readouterr().err
        else:
            report = json.loads((tmp_path / "holder_report.json").read_text())
            assert report["hypothesis_verdicts"]["growth_condition"] is True

    def test_json_frame_named_like_a_preset_is_box_local(self, tmp_path):
        # the Heisenberg frame loaded from JSON gets no analytic growth answer
        config = json.loads((CONFIGS / "heisenberg_verify.json").read_text())
        config["structure"] = HEISENBERG_AS_JSON
        path = tmp_path / "json_heisenberg.json"
        path.write_text(json.dumps(config))
        assert run("verify", "--config", str(path), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "holder_report.json").read_text())
        assert report["growth_box_local"] is True
        assert report["hypothesis_verdicts"]["growth_condition"] is True


class TestGeometryCommands:
    def test_commands_without_a_stencil_leave_scipy_sparse_unloaded(self, tmp_path):
        # importing scipy.sparse takes about 0.14 s of a cold start
        script = (
            "import sys\n"
            "import carnotpde\n"
            "from carnotpde.config import build_setup, load_config\n"
            "from carnotpde.cli import main\n"
            "build_setup(load_config(sys.argv[1]), need_solve=True)\n"
            "loaded = ['scipy.sparse' in sys.modules]\n"
            "code = main(['cc-distance', '--config', sys.argv[2], '--out', sys.argv[3]])\n"
            "print(code, loaded[0], 'scipy.sparse' in sys.modules)\n"
        )
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        argv = [CONFIGS / "heisenberg_verify.json", CONFIGS / "cc_heisenberg.json", tmp_path]
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, argv)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        assert proc.stdout.splitlines()[-1:] == ["0 False False"], proc.stderr
        assert (tmp_path / "cc_report.json").exists()

    def test_cc_distance(self, tmp_path):
        code = run(
            "cc-distance", "--config", str(CONFIGS / "cc_heisenberg.json"), "--out", str(tmp_path)
        )
        assert code == 0
        report = json.loads((tmp_path / "cc_report.json").read_text())
        assert report["schema_version"] == 1
        assert report["distance"] == pytest.approx(1.0, abs=0.05)
        assert report["levels"] == round(report["distance"] / 0.05)
        assert 1 <= report["frontier_peak"] < report["nodes_settled"]
        assert report["elapsed_s"] > 0.0

    @pytest.mark.parametrize(
        "cc",
        [
            {"a": [0, 0, 0], "b": [1, 0, 0], "resolution": 0.1, "box": [[-0.5, 0.5]] * 3},
            {"a": [0, 0], "b": [1, 0, 0], "resolution": 0.1},
        ],
        ids=["endpoint_outside_box", "wrong_dimension"],
    )
    def test_cc_bad_endpoints_are_config_errors(self, tmp_path, capsys, cc):
        config = tmp_path / "cc.json"
        config.write_text(json.dumps({"structure": "heisenberg1", "cc": cc}))
        assert run("cc-distance", "--config", str(config), "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "cc_report.json").exists()

    @pytest.mark.parametrize(
        "box,message",
        [
            ([[-1, 2]] * 2, "box must have 3 rows, one (lo, hi) per coordinate; got 2"),
            ([[-1, 2]] * 4, "box must have 3 rows, one (lo, hi) per coordinate; got 4"),
            ([], "box must have 3 rows, one (lo, hi) per coordinate; got 0"),
            ([[-1, 2], [1, -1], [-1, 1]], "box row 1 has lo > hi: [1, -1]"),
        ],
        ids=["two_rows", "four_rows", "empty", "reversed_row"],
    )
    def test_cc_malformed_box_is_named(self, tmp_path, capsys, box, message):
        config = tmp_path / "cc.json"
        cc = {"a": [0, 0, 0], "b": [1, 0, 0], "resolution": 0.1, "box": box}
        config.write_text(json.dumps({"structure": "heisenberg1", "cc": cc}))
        assert run("cc-distance", "--config", str(config), "--out", str(tmp_path)) == 2
        assert f"config error: bad cc section: {message}" in capsys.readouterr().err
        assert not (tmp_path / "cc_report.json").exists()

    @pytest.mark.parametrize(
        "text",
        [
            '{"a": [0, 0, 0], "b": [1, 0, 0], "resolution": Infinity}',
            '{"a": [0, 0, 0], "b": [1, 0, 0], "resolution": NaN}',
            '{"a": [0, 0, 0], "b": [1, 0, 0], "resolution": 0.1,'
            ' "box": [[NaN, 2], [-1, 1], [-1, 1]]}',
        ],
        ids=["infinite_resolution", "nan_resolution", "nan_box_bound"],
    )
    def test_cc_non_finite_values_are_config_errors(self, tmp_path, capsys, text):
        # load_config rejects the NaN and Infinity literals that Python's json reads
        config = tmp_path / "cc.json"
        config.write_text('{"structure": "heisenberg1", "cc": ' + text + "}")
        assert run("cc-distance", "--config", str(config), "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "cc_report.json").exists()

    def test_cc_vanishing_denominator_is_numerical_error(self, tmp_path, capsys):
        # X1 = (1 / (x1 - 0.5), 0) is undefined at the start point
        structure = {
            "name": "pole",
            "n": 2,
            "m": 2,
            "entries": [
                [{"num": [[1.0, 0, 0]], "den": [[1.0, 1, 0], [-0.5, 0, 0]]}, [[0.0, 0, 0]]],
                [[[0.0, 0, 0]], [[1.0, 0, 0]]],
            ],
        }
        config = tmp_path / "cc.json"
        cc = {"a": [0.5, 0.0], "b": [0.5, 1.0], "resolution": 0.1}
        config.write_text(json.dumps({"structure": structure, "cc": cc}))
        assert run("cc-distance", "--config", str(config), "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "vanishing denominator at x = [0.5, 0.0]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "cc_report.json").exists()

    def test_growth_check_pass(self, tmp_path):
        code = run(
            "growth-check",
            "--config",
            str(CONFIGS / "growth_heisenberg.json"),
            "--out",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "growth_report.json").read_text())
        assert report["satisfied"] is True
        assert len(report["margins"]) == 5

    def test_growth_check_fail(self, tmp_path):
        config = tmp_path / "growth.json"
        config.write_text(
            json.dumps(
                {
                    "structure": "heisenberg1",
                    "growth": {"c0": 1, "Lambda": 1, "radii": [1, 2, 4]},
                }
            )
        )
        assert run("growth-check", "--config", str(config), "--out", str(tmp_path)) == 4

    def test_growth_check_ignores_a_preset_name(self, tmp_path):
        # Tr P / |x|^2 reaches 9 on the x1 axis, far above c0 / (2 Lambda)
        frame = {"name": "euclidean:2", "n": 2, "m": 1, "entries": [[[[3.0, 1, 0]], [[0.0, 0, 0]]]]}
        config = tmp_path / "growth.json"
        config.write_text(
            json.dumps({"structure": frame, "growth": {"c0": 1, "Lambda": 1, "radii": [1, 2, 4]}})
        )
        assert run("growth-check", "--config", str(config), "--out", str(tmp_path)) == 4
        report = json.loads((tmp_path / "growth_report.json").read_text())
        assert report["asymptotic_margin"] is None and report["box_local"] is True
        assert report["margins"][-1] == pytest.approx(8.5)

    def test_growth_check_requires_section(self, tmp_path, capsys):
        config = tmp_path / "nogrowth.json"
        config.write_text(json.dumps({"structure": "heisenberg1"}))
        assert run("growth-check", "--config", str(config), "--out", str(tmp_path)) == 2
        assert "growth-check needs a 'growth' section" in capsys.readouterr().err

    def test_growth_check_decreasing_radii_are_config_error(self, tmp_path, capsys):
        config = tmp_path / "growth.json"
        config.write_text(
            json.dumps(
                {"structure": "heisenberg1", "growth": {"c0": 1, "Lambda": 1, "radii": [4, 2, 1]}}
            )
        )
        assert run("growth-check", "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "bad growth section: radii must be positive and increasing" in err
        assert not (tmp_path / "growth_report.json").exists()

    def test_cc_requires_section(self, tmp_path):
        config = tmp_path / "nocc.json"
        config.write_text(json.dumps({"structure": "heisenberg1"}))
        assert run("cc-distance", "--config", str(config), "--out", str(tmp_path)) == 2


class TestFlags:
    @pytest.mark.parametrize("command", ["lemma-check", "verify", "growth-check"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        name = "growth_heisenberg.json" if command == "growth-check" else "heisenberg_verify.json"
        config = CONFIGS / name
        with pytest.raises(SystemExit) as exc:
            run(command, "--seed", "-1", "--config", str(config), "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--seed", "5"),
            ("cc-distance", "--seed", "5"),
            ("verify", "--trials", "5"),
            ("solve", "--trials", "5"),
            ("growth-check", "--trials", "5"),
            ("cc-distance", "--trials", "5"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}",
    )
    def test_flag_nothing_reads_is_a_usage_error(self, tmp_path, capsys, argv):
        config = CONFIGS / "heisenberg_verify_lowc.json"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--config", str(config), "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def _schema_nodes(node: dict):
    """Every subschema of ``node``, found through the keywords that hold schemas."""
    yield node
    for key in ("properties", "definitions"):
        for sub in node.get(key, {}).values():
            yield from _schema_nodes(sub)
    for sub in node.get("oneOf", []):
        yield from _schema_nodes(sub)
    if isinstance(node.get("items"), dict):
        yield from _schema_nodes(node["items"])


def _mutated_configs(count: int, seed: int = 0):
    """Seeded mutants of the bundled configs and of a trace, a Pucci and a cc
    config that between them set every key of the schema."""
    bases = [json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))]
    bases += [
        {
            "schema_version": 1,
            "seed": 3,
            "structure": {
                "name": "pole",
                "n": 2,
                "m": 2,
                "lipschitz_sigma": 2.5,
                "entries": [
                    [{"num": [[1.0, 0, 0]], "den": [[1.0, 1, 0], [-3.0, 0, 0]]}, [[0.0, 0, 0]]],
                    [[[0.0, 0, 0]], [[1.0, 0, 0]]],
                ],
            },
            "operator": {"kind": "trace"},
            "coefficients": {"c": {"terms": [[1.0, 0, 0], [0.5, 2, 0]]}, "f": {"const": -1.0}},
            "grid": {"box": [[-1, 1], [-1, 1]], "shape": [9, 9]},
            "solver": {
                "tol": 1e-8,
                "max_iters": 500,
                "h_eff_cells": 2,
                "two_box_check": True,
                "boundary": {"terms": [[1.0, 1, 1]]},
            },
            "analysis": {"eta": 1.5, "growth_radii": [0.5, 1.0]},
        },
        {
            "structure": "euclidean:3",
            "operator": {"kind": "pucci_minus", "lambda": 0.5, "Lambda": 1.0},
            "coefficients": {
                "c": {"const": 2.0},
                "L_c": 1.0,
                "beta": 0.5,
                "beta_prime": 1.0,
                "c0": 2.0,
            },
            "grid": {"box": [[0, 1]] * 3, "shape": [5, 5, 5]},
            "solver": {"boundary": "zero"},
            "growth": {"c0": 2, "Lambda": 1.0, "radii": [1.0]},
        },
        {
            "structure": "engel1",
            "cc": {"a": [0, 0, 0, 0], "b": [0.5, 0, 0, 0], "resolution": 0.1, "box": [[-1, 1]] * 4},
        },
    ]
    # keys the schema knows, and one it does not
    keys = sorted({k for node in _schema_nodes(_schema()) for k in node.get("properties", {})})
    keys.append("extra")
    atoms = [True, False, None, 0, 1, 1.0, 2, 3, 5, 2.5, -1, -0.5, 0.0, float("nan"), "trace"]
    atoms += ["manufactured", "zero", "heisenberg1", "x", [], [1.0, 2.0], [[0, 1]], [True], ["x"]]
    atoms += [{}, {"const": 1.0}, {"terms": [[1, 2, 0]]}, {"x": 1}, [{}]]
    rng = random.Random(seed)

    def value():
        # an atom, or a subtree of some base config
        if rng.random() < 0.5:
            return copy.deepcopy(rng.choice(atoms))
        container, key = rng.choice(_slots(rng.choice(bases)))
        return copy.deepcopy(container[key])

    for _ in range(count):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            container, key = rng.choice(_slots(doc) + [(doc, None)])
            draw = rng.random()
            if key is None or draw < 0.2:  # add a key or an item
                target = container if key is None else container[key]
                if isinstance(target, dict):
                    target[rng.choice(keys)] = value()
                elif isinstance(target, list):
                    target.append(value())
            elif draw < 0.4:
                del container[key]
            else:
                container[key] = value()
        yield doc


def _slots(doc) -> list:
    """Every (container, key) pair inside ``doc``."""
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        if not isinstance(node, (dict, list)):
            continue
        for key in node if isinstance(node, dict) else range(len(node)):
            slots.append((node, key))
            stack.append(node[key])
    return slots
