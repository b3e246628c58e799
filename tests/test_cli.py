"""Command-line entry point: JSON outputs, exit codes, determinism."""

import json
import subprocess
import sys
from collections import Counter

import pytest

from lefschetz import algebra, cohomology, spin
from lefschetz.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_VERIFY_FAIL, main
from lefschetz.verify import MAX_SPIN_M


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestPlainCommands:
    def test_root_system(self, capsys):
        code, obj = run(capsys, "root-system", "--type", "A2")
        assert code == EXIT_OK
        assert obj["label"] == "A2"
        assert len(obj["positive_roots"]) == 3

    def test_module(self, capsys):
        code, obj = run(capsys, "module", "--type", "A1", "--weight", "2")
        assert code == EXIT_OK
        assert obj["dimension"] == 3
        assert {"w": [0], "m": 1} in obj["weights"]

    def test_module_with_actions(self, capsys):
        code, obj = run(capsys, "module", "--type", "A1", "--weight", "1", "--actions")
        assert code == EXIT_OK
        assert any(lab.startswith("('h'") for lab in obj["action"])

    def test_cohomology(self, capsys):
        code, obj = run(capsys, "cohomology", "--type", "A1", "--weight", "0")
        assert code == EXIT_OK
        assert obj["kostant_match"] is True
        assert len(obj["degrees"]) == 2

    def test_cohomology_with_levi(self, capsys):
        code, obj = run(
            capsys, "cohomology", "--type", "A2", "--levi", "0", "--weight", "1,1"
        )
        assert code == EXIT_OK and obj["kostant_match"] is True

    def test_spectral(self, capsys):
        code, obj = run(capsys, "spectral", "--type", "A1", "--weight", "0")
        assert code == EXIT_OK
        assert obj["table"] == [
            {"lambda": ["-2"], "m": 1},
            {"lambda": ["0"], "m": -1},
        ]

    def test_chi_r(self, capsys):
        code, obj = run(capsys, "chi-r", "--betti", "1,0,1", "--r", "0")
        assert code == EXIT_OK and obj["chi_r"] == 2

    def test_chi_gen(self, capsys, tmp_path):
        path = tmp_path / "hc.json"
        path.write_text(
            json.dumps(
                {
                    "n_noncompact_pos_roots": 1,
                    "n_pos_roots": 1,
                    "nu": 2,
                    "volume_ratio": "1",
                    "weyl_order": 2,
                    "weyl_order_complex": 4,
                    "rho_product": "3/2",
                }
            )
        )
        code, obj = run(capsys, "chi-gen", "--input", str(path), "--covolume", "2")
        assert code == EXIT_OK
        assert set(obj) == {"chi_gen"}
        code, obj = run(
            capsys, "chi-gen", "--input", str(path), "--covolume", "2",
            "--a-covolume", "3",
        )
        assert code == EXIT_OK
        assert set(obj) == {"chi_gen", "chi_r"}

    def test_geometric(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(
            json.dumps(
                {
                    "classes": [
                        {
                            "a_log": [-1.0],
                            "covolume": 1.0,
                            "chi_r": "1",
                            "omega_trace": [1.0, 0.0],
                            "tau_trace": [1.0, 0.0],
                        }
                    ]
                }
            )
        )
        code, obj = run(capsys, "geometric", "--type", "A1", "--ledger", str(ledger))
        assert code == EXIT_OK
        assert len(obj["classes"]) == 1
        assert obj["classes"][0]["c"][0] == pytest.approx(
            1.0 / (1.0 - 2.718281828459045**-2.0)
        )

    def test_balance(self, capsys, tmp_path):
        spectral = tmp_path / "spec.json"
        spectral.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "table": [{"lambda": ["-2"], "m": 1}],
                            "multiplicity": 1,
                        }
                    ]
                }
            )
        )
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps({"classes": []}))
        testfn = tmp_path / "phi.json"
        testfn.write_text(
            json.dumps(
                {"pieces": [{"coefficient": 1.0, "mu": ["0"], "box": [[1.0, 2.0]]}]}
            )
        )
        code, obj = run(
            capsys,
            "balance",
            "--type",
            "A1",
            "--spectral",
            str(spectral),
            "--ledger",
            str(ledger),
            "--testfn",
            str(testfn),
        )
        assert code == EXIT_OK
        assert obj["local"] == [0.0, 0.0]
        assert obj["global"][0] > 0
        assert obj["residual"][0] == pytest.approx(obj["global"][0])


class TestErrorPaths:
    def test_unknown_type(self, capsys):
        code, _ = run(capsys, "root-system", "--type", "Z9")
        assert code == EXIT_BAD_INPUT

    def test_bad_weight(self, capsys):
        code, _ = run(capsys, "module", "--type", "A1", "--weight", "x")
        assert code == EXIT_BAD_INPUT

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "geometric", "--type", "A1", "--ledger", "/nonexistent")
        assert code == EXIT_BAD_INPUT

    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == EXIT_BAD_INPUT

    def test_dim_bound_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LEF_MAX_DIM", "2")
        code, _ = run(capsys, "module", "--type", "A1", "--weight", "2")
        assert code == EXIT_BAD_INPUT

    def test_weight_length_must_match_rank(self, capsys):
        code, _ = run(capsys, "module", "--type", "A2", "--weight", "1")
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("a_log", [5, [-1.0, -1.0, -1.0]])
    def test_malformed_a_log(self, capsys, tmp_path, a_log):
        # A1 Borel: a has dimension 1, so a_log needs exactly one entry
        ledger = tmp_path / "ledger.json"
        record = {
            "a_log": a_log,
            "covolume": 1.0,
            "chi_r": "1",
            "omega_trace": [1.0, 0.0],
            "tau_trace": [1.0, 0.0],
        }
        ledger.write_text(json.dumps({"classes": [record]}))
        code, _ = run(capsys, "geometric", "--type", "A1", "--ledger", str(ledger))
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "argv",
        [
            ["d2", "--max-coord", "-1"],
            ["spin", "--max-m", "0"],
            ["det", "--points", "-3"],
            ["comb", "--max", "-1"],
        ],
    )
    def test_empty_sweep_is_bad_input(self, capsys, argv):
        code, obj = run(capsys, "verify", *argv)
        assert code == EXIT_BAD_INPUT and obj is None

    def test_spin_limit_refused_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a polarized space was built")

        monkeypatch.setattr(spin, "PolarizedSpace", refuse)
        for check in ("spin", "epsilon"):
            code, _ = run(capsys, "verify", check, "--max-m", str(MAX_SPIN_M + 1))
            assert code == EXIT_BAD_INPUT


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, obj = run(
            capsys, "verify", "comb", "--max", "6", "--seed", "3"
        )
        assert code == EXIT_OK
        assert obj["summary"] == {"total": 1, "failed": 0}
        [entry] = obj["suite"]
        assert entry["check"] == "comb"
        assert entry["pass"] is True and entry["counterexample"] is None
        assert isinstance(entry["wall_ms"], int)

    def test_report_has_parameters_and_seed(self, capsys):
        code, obj = run(capsys, "verify", "spin", "--max-m", "3", "--seed", "11")
        assert code == EXIT_OK
        assert obj["seed"] == 11
        assert obj["suite"][0]["parameters"]["max_m"] == 3

    def test_fast_all(self, capsys):
        code, obj = run(
            capsys,
            "verify",
            "all",
            "--types",
            "A1",
            "--max-coord",
            "1",
            "--max-m",
            "2",
            "--max",
            "4",
            "--points",
            "5",
            "--seed",
            "0",
        )
        assert code == EXIT_OK
        assert obj["summary"]["failed"] == 0
        assert obj["summary"]["total"] == 11

    def test_spin_sign_failure(self, capsys, monkeypatch):
        # both signs pass spin.verify_spin_square; the registry wants (-1)^m
        monkeypatch.setattr(spin, "verify_spin_square", lambda space: (True, 1))
        code, obj = run(capsys, "verify", "spin", "--max-m", "2")
        assert code == EXIT_VERIFY_FAIL
        assert obj["summary"] == {"total": 1, "failed": 1}
        [entry] = obj["suite"]
        assert entry["pass"] is False
        assert entry["counterexample"] == {"m": 1, "failure": "spin square", "sign": 1}

    def test_kostant_failure_payload(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cohomology,
            "kostant_prediction",
            lambda datum, split, lam: cohomology.CohomologyTable(split, []),
        )
        code, obj = run(capsys, "verify", "kostant", "--types", "A1", "--max-coord", "0")
        assert code == EXIT_VERIFY_FAIL
        [entry] = obj["suite"]
        assert entry["pass"] is False
        assert entry["counterexample"] == {"type": "A1", "levi": [], "weight": [0]}

    def test_each_module_and_split_built_once_per_run(self, capsys, monkeypatch):
        modules, splits = Counter(), Counter()
        build_module = algebra.highest_weight_module
        build_split = algebra.parabolic_split

        def counting_module(alg, lam, **kwargs):
            modules[alg.datum.label, tuple(lam)] += 1
            return build_module(alg, lam, **kwargs)

        def counting_split(alg, levi):
            splits[alg.datum.label, frozenset(levi)] += 1
            return build_split(alg, levi)

        monkeypatch.setattr(algebra, "highest_weight_module", counting_module)
        monkeypatch.setattr(algebra, "parabolic_split", counting_split)
        argv = ["verify", "all", "--types", "A1,A2", "--max-coord", "1",
                "--max-m", "2", "--max", "4", "--points", "5"]
        expected_modules = {("A1", (0,)), ("A1", (1,))} | {
            ("A2", lam) for lam in ((0, 0), (0, 1), (1, 0), (1, 1))
        }
        expected_splits = {("A1", frozenset()), ("A1", frozenset({0}))} | {
            ("A2", frozenset(levi)) for levi in ((), (0,), (1,), (0, 1))
        }
        for runs in (1, 2):  # a second run builds everything once more
            code, obj = run(capsys, *argv)
            assert code == EXIT_OK and obj["summary"]["failed"] == 0
            assert modules == {key: runs for key in expected_modules}
            assert splits == {key: runs for key in expected_splits}

    def test_deterministic_output(self, capsys):
        args = ["verify", "chitransfer", "--seed", "5"]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        first["suite"][0].pop("wall_ms")
        second["suite"][0].pop("wall_ms")
        assert first == second


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lefschetz.cli", "chi-r", "--betti", "1,1", "--r", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["chi_r"] == 1
