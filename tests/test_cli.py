"""Command-line entry point: JSON outputs, exit codes, determinism."""

import hashlib
import json
import math
import subprocess
import sys
from collections import Counter

import pytest

from lefschetz import algebra, cohomology, euler, formula, spin
from lefschetz.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_VERIFY_FAIL, main
from lefschetz.verify import MAX_COMB, MAX_SPIN_M


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

    @pytest.mark.parametrize(
        "label, weight, digest",
        [
            ("B2", "1,1", "892d147642ef0ddf56e5340ca464fe0bac186710592ef46f570a7819dffbd117"),
            ("G2", "1,0", "2a9f53877bb37a1d1d1a667a47fbbdb69eec63785f34b5bf7b670c505f2d08c4"),
            ("A3", "1,0,1", "afe882445ee14e6b1b2142db779749de52d56f84c9e3de1c73aa97258c0d697f"),
        ],
        ids=["B2", "G2", "A3"],
    )
    def test_module_actions_pinned(self, capsys, label, weight, digest):
        """The printed action matrices, byte for byte, as the dense builder
        printed them and as the Fraction-entry sparse builder printed them."""
        assert main(["module", "--type", label, "--weight", weight, "--actions"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_cohomology_pinned(self, capsys):
        """The table of a complex whose e_k carry denominators, byte for byte
        as it was printed when the scale was read off every entry."""
        argv = ["cohomology", "--type", "B2", "--levi", "0", "--weight", "1,2"]
        assert main(argv) == EXIT_OK
        digest = "067e5aa6684e457faaca8409284a488eb831ddb943d23235c2a1c58e3fc5df81"
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "label, weight, digest",
        [
            ("D4", "0,0,0,0", "5a952ec582e5859acd994d15468495744abb2623318003187643506fb38d5334"),
            ("B3", "0,0,1", "fc9370f07957cfe25e8a76566b988509c4bf45e44ae987939477de4230cac205"),
            ("A3", "1,1,1", "6f4842a26fea6012d31039f680886aee98664dcf78841da963a1551990b4fd35"),
        ],
        ids=["D4", "B3", "A3"],
    )
    def test_cohomology_borel_pinned(self, capsys, label, weight, digest):
        """The tables of the three 4096-cochain Borel complexes, byte for byte
        as they were printed when every block was ranked in full."""
        assert main(["cohomology", "--type", label, "--weight", weight]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "--type A1 --weight 0",
                "63486f366b93531bc44db24dcfa5f435435ea7e9c7ff0c4eb1a5719b68c2074b",
            ),
            (
                "--type A2 --levi 0 --weight 1,1",
                "398e34d09acfeae1ea19bf07b58b0aa591adb3ecfe06a90ecdd1e5a3df43f050",
            ),
            (
                "--type B2 --levi 1 --weight 1,0 --tau 0,1",
                "d4cc0ebd57423d51e796d55236abeb386e184510f777d708a9765a031a9e55c6",
            ),
            (
                "--type G2 --levi 0 --weight 1,0 --tau 1,0",
                "a57e7af023289d76ac9cd6851588e65e80edd7180850746625ebc943c7577851",
            ),
            (
                "--type A3 --levi 0,2 --weight 1,0,1",
                "62d2a58bf4bb8ee2c7c16ee874c19ac1142bd4c0a22aef053d065169882959d9",
            ),
        ],
        ids=["A1", "A2-levi-0", "B2-levi-1-tau", "G2-levi-0-tau", "A3-levi-0,2"],
    )
    def test_spectral_pinned(self, capsys, argv, digest):
        """The printed spectral table, byte for byte, as the route through the
        CE complex printed it."""
        assert main(["spectral", *argv.split()]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ["--type", "F4", "--weight", "0,0,0,0"],
            ["--type", "E7", "--levi", "0,1,2,3,4,5", "--weight", "0,0,0,0,0,0,0"],
            "--type E6 --levi 1,2,3,4,5 --weight 0,0,0,0,0,0 --tau 0,1,0,0,0,0".split(),
        ],
        ids=["F4-borel", "E7-without-node-7", "E6-adjoint-tau"],
    )
    def test_spectral_builds_no_module_or_complex(self, capsys, monkeypatch, argv):
        """Past MAX_COCHAINS (2^24 cochains for the F4 Borel, 2^27 for E7
        without Bourbaki node 7): the table comes from Kostant's weights, and
        τ's character (here the 78-dimensional adjoint) from Freudenthal."""

        def refuse(*args, **kwargs):
            raise AssertionError("a module or a complex was built")

        monkeypatch.setattr(cohomology.CEComplex, "__init__", refuse)
        monkeypatch.setattr(algebra, "highest_weight_module", refuse)
        code, obj = run(capsys, "spectral", *argv)
        assert code == EXIT_OK and obj["table"]

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


RECORD = {
    "a_log": [-1.0],
    "covolume": 1.0,
    "chi_r": "1",
    "omega_trace": [1.0, 0.0],
    "tau_trace": [1.0, 0.0],
}
LAMBDA_1_0 = {"lambda": ["1/0"], "m": 1}
LAMBDA_M2 = {"lambda": ["-2"], "m": 1}
M_1_7 = {"lambda": ["-2"], "m": 1.7}
PIECE = {"coefficient": 1.0, "mu": ["0"], "box": [[1.0, 2.0]]}
HC_INPUT = {
    "n_noncompact_pos_roots": 1,
    "n_pos_roots": 1,
    "nu": 2,
    "volume_ratio": "1",
    "weyl_order": 2,
    "weyl_order_complex": 4,
    "rho_product": "3/2",
}
VALID = {
    "ledger": {"classes": [RECORD]},
    "spectral": {"entries": [{"table": [{"lambda": ["-2"], "m": 1}], "multiplicity": 1}]},
    "testfn": {"pieces": [PIECE]},
    "input": HC_INPUT,
}
FILES = {"geometric": ["ledger"], "balance": ["spectral", "ledger", "testfn"], "chi-gen": ["input"]}
OPTIONS = {
    "geometric": ["--type", "A1"],
    "balance": ["--type", "A1"],
    "chi-gen": ["--covolume", "2"],
}


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

    @pytest.mark.parametrize("weight", ["1", "1,0,5"])
    def test_spectral_weight_length_must_match_rank(self, capsys, weight):
        code, obj = run(capsys, "spectral", "--type", "A2", "--weight", weight)
        assert code == EXIT_BAD_INPUT and obj is None

    @pytest.mark.parametrize("tau", ["1", "1,0,5", "-1,0"])
    def test_spectral_tau_must_be_a_dominant_weight(self, capsys, tau):
        code, obj = run(capsys, "spectral", "--type", "A2", "--weight", "0,0", "--tau", tau)
        assert code == EXIT_BAD_INPUT and obj is None

    def test_spectral_tau_dimension_bound_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LEF_MAX_DIM", "7")
        code, _ = run(capsys, "spectral", "--type", "A2", "--weight", "0,0", "--tau", "1,1")
        assert code == EXIT_BAD_INPUT

    def test_verify_det_refuses_too_many_weights(self, capsys):
        """The D5 Borel has 20 n-weights: 2^20 products per point."""
        code = main(["verify", "det", "--types", "D5", "--points", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_BAD_INPUT and "DET_WEIGHT_BOUND" in err

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
        "command, override",
        [
            ("geometric", {"ledger": [RECORD]}),
            ("geometric", {"ledger": {"classes": 5}}),
            ("geometric", {"ledger": {"classes": [{**RECORD, "chi_r": "1/0"}]}}),
            ("geometric", {"ledger": {"classes": [{**RECORD, "omega_trace": [1]}]}}),
            ("balance", {"spectral": {"entries": [{"table": [LAMBDA_1_0], "multiplicity": 1}]}}),
            ("balance", {"testfn": {"pieces": 3}}),
            ("balance", {"testfn": {"pieces": [{**PIECE, "mu": ["0", "1"]}]}}),
            ("chi-gen", {"input": {**HC_INPUT, "volume_ratio": "1/0"}}),
            ("chi-gen", {"--covolume": "1/0"}),
            ("chi-gen", {"input": {**HC_INPUT, "weyl_order": 0}}),
            ("balance", {"spectral": {"entries": [{"table": [M_1_7], "multiplicity": 1}]}}),
            ("balance", {"spectral": {"entries": [{"table": [LAMBDA_M2], "multiplicity": 2.9}]}}),
            ("chi-gen", {"input": {**HC_INPUT, "nu": 2.5}}),
            ("chi-gen", {"input": {**HC_INPUT, "n_pos_roots": 1.5}}),
            ("chi-gen", {"input": {**HC_INPUT, "n_noncompact_pos_roots": 1.5}}),
            ("chi-gen", {"input": {**HC_INPUT, "weyl_order": 2.5}}),
            ("chi-gen", {"input": {**HC_INPUT, "weyl_order_complex": 4.5}}),
            ("geometric", {"ledger": {"classes": [{**RECORD, "a_log": [math.nan]}]}}),
            ("geometric", {"ledger": {"classes": [{**RECORD, "covolume": math.inf}]}}),
            ("geometric", {"ledger": {"classes": [{**RECORD, "chi_r": math.inf}]}}),
            ("balance", {"testfn": {"pieces": [{**PIECE, "coefficient": math.nan}]}}),
        ],
        ids=[
            "ledger-list",
            "classes-5",
            "chi_r-1/0",
            "omega_trace-1",
            "lambda-1/0",
            "pieces-3",
            "mu-longer-than-box",
            "volume_ratio-1/0",
            "covolume-1/0",
            "weyl_order-0",
            "m-1.7",
            "multiplicity-2.9",
            "nu-2.5",
            "n_pos_roots-1.5",
            "n_noncompact_pos_roots-1.5",
            "weyl_order-2.5",
            "weyl_order_complex-4.5",
            "a_log-NaN",
            "covolume-Infinity",
            "chi_r-Infinity",
            "coefficient-NaN",
        ],
    )
    def test_malformed_input_is_bad_input(self, capsys, tmp_path, command, override):
        """Each file is valid but for the override, which exits 2 with an
        error line, never with a traceback."""

        def lef(files):
            argv = [command, *OPTIONS[command]]
            for key in FILES[command]:
                path = tmp_path / f"{key}.json"
                path.write_text(json.dumps(files.get(key, VALID[key])))
                argv += [f"--{key}", str(path)]
            for option, value in files.items():
                if option.startswith("--"):
                    argv[argv.index(option) + 1] = value
            code = main(argv)
            return code, capsys.readouterr().err

        assert lef({}) == (EXIT_OK, "")
        code, err = lef(override)
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error:") and "Traceback" not in err

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

    def test_comb_limit_refused_before_summing(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a comb identity was summed")

        monkeypatch.setattr(euler, "comb_identity_check", refuse)
        code = main(["verify", "comb", "--max", str(MAX_COMB + 1)])
        assert code == EXIT_BAD_INPUT
        assert f"MAX_COMB = {MAX_COMB}" in capsys.readouterr().err

    def test_cochain_limit_refused_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a cochain subset was enumerated")

        monkeypatch.setattr(cohomology, "combinations", refuse)
        code = main(["cohomology", "--type", "E6", "--weight", "0,0,0,0,0,0"])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT and captured.out == ""
        assert f"MAX_COCHAINS = {cohomology.MAX_COCHAINS}" in captured.err


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

    def test_hechtschmid_runs_on_the_requested_types(self, capsys, monkeypatch):
        monkeypatch.setattr(
            formula,
            "hecht_schmid_check",
            lambda mod, split, table=None: split.datum.label != "B2",
        )
        code, obj = run(capsys, "verify", "hechtschmid", "--types", "B2", "--max-coord", "0")
        assert code == EXIT_VERIFY_FAIL
        [entry] = obj["suite"]
        assert entry["counterexample"] == {"type": "B2", "levi": [], "weight": [0, 0]}

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

    def test_each_complex_built_and_ranked_once_per_run(self, capsys, monkeypatch):
        built, ranked = Counter(), Counter()
        build = cohomology.build_ce_complex
        rank = cohomology.cohomology_table

        def counting_build(split, mod):
            built[split.datum.label, split.levi, mod.highest_weight] += 1
            return build(split, mod)

        def counting_rank(cx):
            point = cx.split.datum.label, cx.split.levi, cx.module.highest_weight
            ranked[point, cx.step] += 1
            return rank(cx)

        monkeypatch.setattr(cohomology, "build_ce_complex", counting_build)
        monkeypatch.setattr(cohomology, "cohomology_table", counting_rank)
        code, obj = run(capsys, "verify", "all", "--types", "A1,A2", "--max-coord", "1",
                        "--max-m", "2", "--max", "4", "--points", "5")
        assert code == EXIT_OK and obj["summary"]["failed"] == 0
        # 2 Levi subsets x 2 weights for A1, 4 x 4 for A2
        assert len(built) == 20 and set(built.values()) == {1}
        # cochains (step 1) and chains (step -1) are each ranked once
        assert ranked == {(point, step): 1 for point in built for step in (1, -1)}

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
