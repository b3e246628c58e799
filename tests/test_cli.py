"""Command-line entry point: JSON outputs, exit codes, determinism."""

import hashlib
import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from lefschetz import algebra, cohomology, euler, formula, spin, verify
from lefschetz.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_VERIFY_FAIL, main
from lefschetz.exact import PACK_LIMIT
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
            (
                "--type E7 --levi 0,1,2,3,4,5 --weight 0,0,0,0,0,0,0 --tau 0,0,0,0,0,0,1",
                "28ff960fad643f46ece73172e9f23baefd0b562f579af446927f9d41935f4438",
            ),
            (
                "--type E6 --levi 1,2,3,4,5 --weight 0,0,0,0,0,0 --tau 0,1,0,0,0,0",
                "6c6a97271a8e07611a7c0ae3339568da20d00f5a20aecbe48f38322c3bd1ea47",
            ),
        ],
        ids=[
            "A1",
            "A2-levi-0",
            "B2-levi-1-tau",
            "G2-levi-0-tau",
            "A3-levi-0,2",
            "E7-without-node-7-tau",
            "E6-adjoint-tau",
        ],
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

    @pytest.mark.parametrize(
        "data, argv, factor",
        [
            ({}, ["--covolume", "1e-400"], Fraction(3, 10**400)),
            ({"rho_product": "1e-400"}, ["--covolume", "2"], Fraction(4, 10**400)),
        ],
        ids=["covolume", "rho_product"],
    )
    def test_chi_gen_takes_positive_values_below_the_float_range(
        self, capsys, tmp_path, data, argv, factor
    ):
        """A positive exact value that a float rounds to 0 is still positive,
        and the factor of c^-1 |W_C| prod(rho, alpha) vol is exact."""
        path = tmp_path / "hc.json"
        path.write_text(json.dumps({**HC_INPUT, **data}))
        code, obj = run(capsys, "chi-gen", "--input", str(path), *argv)
        assert code == EXIT_OK and obj["chi_gen"]["factor"] == str(factor)

    @pytest.mark.parametrize(
        "data, argv, key, factor",
        [
            ({"volume_ratio": "1e-400"}, ["--covolume", "2"], "chi_gen", 6 * 10**400),
            ({}, ["--covolume", "2", "--a-covolume", "1e-400"], "chi_r", 6 * 10**400),
            ({}, ["--covolume", "1e400"], "chi_gen", 3 * 10**400),
        ],
        ids=["volume_ratio", "a-covolume", "covolume-1e400"],
    )
    def test_chi_gen_tiny_divisor_is_positive(self, capsys, tmp_path, data, argv, key, factor):
        """A positive divisor that a float rounds to 0 passes the sign check,
        and so does a covolume above the float range; the value is then
        beyond the float range, so it is printed by its exact factor with a
        null `float_value`."""
        path = tmp_path / "hc.json"
        path.write_text(json.dumps({**HC_INPUT, **data}))
        code, obj = run(capsys, "chi-gen", "--input", str(path), *argv)
        assert code == EXIT_OK
        assert obj[key]["factor"] == str(factor) and obj[key]["float_value"] is None

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
LAMBDA_1E400 = {"lambda": ["1e400"], "m": 1}
LAMBDA_EXP = {"lambda": ["1e{}"], "m": 1}  # the exponent filled in by the test
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


def lef_files(capsys, tmp_path, command, files):
    """Exit code and stderr of `command` on the VALID files, with `files`
    overriding some of them by key (a str is written as it is) and options
    by name (added where absent)."""
    argv = [command, *OPTIONS[command]]
    for key in FILES[command]:
        path = tmp_path / f"{key}.json"
        value = files.get(key, VALID[key])
        path.write_text(value if isinstance(value, str) else json.dumps(value))
        argv += [f"--{key}", str(path)]
    for option, value in files.items():
        if not option.startswith("--"):
            continue
        if option in argv:
            argv[argv.index(option) + 1] = value
        else:
            argv += [option, value]
    code = main(argv)
    return code, capsys.readouterr().err


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
            ("geometric", {"ledger": {"classes": [{**RECORD, "chi_r": "1e400"}]}}),
            ("balance", {"spectral": {"entries": [{"table": [LAMBDA_1E400], "multiplicity": 1}]}}),
            ("balance", {"testfn": {"pieces": [{**PIECE, "mu": ["1000"]}]}}),
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
            "chi_r-1e400",
            "lambda-1e400",
            "mu-1000",
        ],
    )
    def test_malformed_input_is_bad_input(self, capsys, tmp_path, command, override):
        """Each file is valid but for the override, which exits 2 with an
        error line, never with a traceback."""
        assert lef_files(capsys, tmp_path, command, {}) == (EXIT_OK, "")
        code, err = lef_files(capsys, tmp_path, command, override)
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, key", [(command, key) for command in FILES for key in FILES[command]]
    )
    def test_deeply_nested_json_is_bad_input(self, capsys, tmp_path, command, key):
        """A file of 200 000 opening brackets, which json's parser cannot
        nest, exits 2 with an error line, not with a RecursionError."""
        code, err = lef_files(capsys, tmp_path, command, {key: "[" * 200_000})
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error:") and "nested too deeply" in err

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize(
        "command, override",
        [
            ("chi-gen", {"--covolume": "1e{}"}),
            ("chi-gen", {"--a-covolume": "1e{}"}),
            ("chi-gen", {"input": {**HC_INPUT, "volume_ratio": "1e{}"}}),
            ("chi-gen", {"input": {**HC_INPUT, "rho_product": "1e{}"}}),
            ("geometric", {"ledger": {"classes": [{**RECORD, "chi_r": "1e{}"}]}}),
            ("balance", {"spectral": {"entries": [{"table": [LAMBDA_EXP], "multiplicity": 1}]}}),
            ("balance", {"testfn": {"pieces": [{**PIECE, "mu": ["1e{}"]}]}}),
        ],
        ids=["covolume", "a-covolume", "volume_ratio", "rho_product", "chi_r", "lambda", "mu"],
    )
    def test_decimal_exponent_over_the_limit_is_bad_input(
        self, capsys, tmp_path, command, override, sign
    ):
        """Every rational read from the command line or a file refuses an
        exponent just over MAX_EXPONENT, of either sign, with exit 2."""
        exponent = f"{sign}{formula.MAX_EXPONENT + 1}"
        override = json.loads(json.dumps(override).replace("1e{}", f"1e{exponent}"))
        code, err = lef_files(capsys, tmp_path, command, override)
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error:") and f"MAX_EXPONENT = {formula.MAX_EXPONENT}" in err

    @pytest.mark.parametrize(
        "command, override, quantity",
        [
            (
                "geometric",
                {"ledger": {"classes": [{**RECORD, "covolume": 1e308, "omega_trace": [10.0, 0.0]}]}},
                "classes[0].c[0] = nan",
            ),
            (
                "balance",
                {
                    "ledger": {"classes": [{**RECORD, "a_log": [-1.5]}]},
                    "testfn": {"pieces": [{**PIECE, "coefficient": 1e308, "mu": ["1"]}]},
                },
                "global[0] = inf",
            ),
        ],
        ids=["geometric", "balance"],
    )
    def test_non_finite_output_is_bad_input(self, capsys, tmp_path, command, override, quantity):
        """Finite inputs whose result leaves the float range exit 2 with an
        error line naming the first value JSON cannot hold, and print
        nothing, where they printed NaN or Infinity and exited 0."""
        code, err = lef_files(capsys, tmp_path, command, override)
        assert code == EXIT_BAD_INPUT
        assert err == f"error: {quantity} is not a finite number\n"

    @pytest.mark.parametrize(
        "override",
        [
            {"--covolume": "1e5000"},
            {"--covolume": "1e4000", "input": {**HC_INPUT, "volume_ratio": "1e-4000"}},
        ],
        ids=["covolume-1e5000", "volume_ratio-1e-4000"],
    )
    def test_chi_gen_factor_over_the_digit_limit_is_bad_input(self, capsys, tmp_path, override):
        """An exact factor too long to print exits 2 naming MAX_FACTOR_BITS,
        not with Python's message on integer string conversion; 1e4000
        alone still prints."""
        code, err = lef_files(capsys, tmp_path, "chi-gen", override)
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error:") and f"MAX_FACTOR_BITS = {euler.MAX_FACTOR_BITS}" in err
        assert lef_files(capsys, tmp_path, "chi-gen", {"--covolume": "1e4000"}) == (EXIT_OK, "")

    def test_spectral_weight_at_the_pack_limit_is_bad_input(self, capsys):
        """A weight whose Kostant weights could not be packed exits 2."""
        code = main(["spectral", "--type", "A1", "--weight", str(PACK_LIMIT)])
        out, err = capsys.readouterr()
        assert code == EXIT_BAD_INPUT and out == ""
        assert err.startswith("error:") and "PACK_LIMIT" in err

    @pytest.mark.parametrize(
        "lam, mu",
        [(["-2"], ["0", "0"]), (["-2", "-2"], ["0"]), (["-2"], ["0"]), (["-2"] * 3, ["0"] * 3)],
        ids=["lambda-1", "mu-1", "both-1", "both-3"],
    )
    def test_balance_checks_dimensions_against_a(self, capsys, tmp_path, lam, mu):
        """On the A2 Borel, where a has dimension 2, every spectral lambda and
        every test-function mu and box must have two entries."""

        def balance(lam, mu):
            table = [{"lambda": lam, "m": 1}]
            piece = {**PIECE, "mu": mu, "box": [[1.0, 2.0]] * len(mu)}
            files = {
                "--type": "A2",
                "spectral": {"entries": [{"table": table, "multiplicity": 1}]},
                "ledger": {"classes": []},
                "testfn": {"pieces": [piece]},
            }
            return lef_files(capsys, tmp_path, "balance", files)

        assert balance(["-2", "-2"], ["0", "0"]) == (EXIT_OK, "")
        code, err = balance(lam, mu)
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error:") and "but a has dimension 2" in err

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

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["d2", "--types", "A1,A2", "--max-coord", "30"], "DIMENSION_BOUND (or LEF_MAX_DIM) = "),
            (["all", "--types", "A1,D4", "--max-coord", "1"], "MAX_COCHAINS = "),
            (["all", "--types", "E8", "--max-coord", "0"], "MAX_COCHAINS = "),
        ],
        ids=["module", "borel-complex", "borel-complex-of-the-trivial-module"],
    )
    def test_oversized_sweep_refused_before_any_module(self, capsys, monkeypatch, argv, limit):
        """The module of highest weight (m, ..., m) is the sweep's largest,
        and its Borel complex the largest complex: each is measured by the
        Weyl dimension, before the first check builds a module."""

        def refuse(*args, **kwargs):
            raise AssertionError("a module was built")

        monkeypatch.setattr(algebra, "highest_weight_module", refuse)
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT and captured.out == ""
        assert limit in captured.err

    def test_sweep_module_bound_follows_the_env(self, capsys, monkeypatch):
        """A1 at max_coord m has its largest module of dimension m + 1."""
        monkeypatch.setenv("LEF_MAX_DIM", "3")
        code, obj = run(capsys, "verify", "d2", "--types", "A1", "--max-coord", "2")
        assert code == EXIT_OK and obj["summary"]["failed"] == 0
        code = main(["verify", "d2", "--types", "A1", "--max-coord", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT and captured.out == ""
        assert "has dimension 4, more than the limit DIMENSION_BOUND (or LEF_MAX_DIM) = 3" in (
            captured.err
        )


    @pytest.mark.parametrize(
        "argv",
        [
            ["--types", "A1,A2,B2", "--max-coord", "2", "--max-m", "9"],
            ["--types", "A1,Z3"],
            ["--types", "A1", "--max-coord", "-1"],
            ["--types", "A1", "--max", str(MAX_COMB + 1)],
            ["--types", "A1", "--points", "0"],
        ],
        ids=["max-m", "types", "max-coord", "max", "points"],
    )
    def test_verify_all_refuses_parameters_before_any_check(self, capsys, monkeypatch, argv):
        """A malformed parameter of any selected check exits 2 before the
        first check runs and before any module is built."""

        def refuse(*args, **kwargs):
            raise AssertionError("a check ran or a module was built")

        for name in verify.CHECKS:
            monkeypatch.setitem(verify.CHECKS, name, refuse)
        monkeypatch.setattr(algebra, "highest_weight_module", refuse)
        code, obj = run(capsys, "verify", "all", *argv)
        assert code == EXIT_BAD_INPUT and obj is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["spin", "--max-coord", "-1", "--types", "Z3", "--points", "0"],
            ["comb", "--max-m", "9", "--types", "Z3"],
            ["det", "--types", "A1", "--max-coord", "-1", "--points", "1"],
        ],
    )
    def test_unread_parameters_are_ignored(self, capsys, argv):
        code, obj = run(capsys, "verify", *argv)
        assert code == EXIT_OK and obj["summary"]["failed"] == 0


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
