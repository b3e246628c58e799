"""Self-test of the benchmark's tracing and of each workload's concentration.

    python3 perfbench/selftest.py [--seed N] [workload ...]

Runs `run.py --trace 1 --seconds 0` for each workload (one untraced batch,
then one traced batch) in its own process and checks:

- every wrapped function records at least one call on each workload that
  should exercise it, and none on the oracle that must bypass it;
- the traced batch gives the same case results as the untraced one;
- self times are >= 0 and sum to no more than the traced batch's wall time;
- the workload spends its time where it is meant to (see CONCENTRATION).

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"

ALL = {"verify_sweep", "modules", "complexes", "oracle"}

# Workloads whose timed batch calls each wrapped function, from the call graph
# of the cases each workload runs.
EXPECTED_CALLS = {
    "roots.build_root_system": {"verify_sweep"},
    "roots.RootDatum.weyl_group": {"oracle", "complexes", "verify_sweep"},
    "algebra.build_chevalley_algebra": {"verify_sweep"},
    "algebra.parabolic_split": {"verify_sweep"},
    "algebra.highest_weight_module": {"modules", "complexes", "verify_sweep"},
    "algebra.casimir_eigenvalue": {"modules"},
    "cohomology.weight_multiplicities": ALL,
    "cohomology.kostant_prediction": {"oracle", "complexes", "verify_sweep"},
    "cohomology.build_ce_complex": {"complexes", "verify_sweep"},
    "cohomology.CEComplex.verify_complex": {"complexes", "verify_sweep"},
    "cohomology.cohomology_table": {"complexes", "verify_sweep"},
    "cohomology.homology_table": {"verify_sweep"},
    "cohomology.euler_character_check": {"verify_sweep"},
    "exact.rank_and_kernel": {"modules", "complexes", "verify_sweep"},
    "exact.ExactMatrix.__matmul__": ALL,
    "exact.ExactMatrix.inverse": ALL,
    "exact.LaurentCharacter.__mul__": {"oracle", "verify_sweep"},
    "exact.exterior_power_character": {"verify_sweep"},
    "spin.clifford_relation_check": {"verify_sweep"},
    "spin.verify_spin_square": {"verify_sweep"},
    "spin.epsilon_twist_check": {"verify_sweep"},
    "formula.det_identity_check": {"verify_sweep"},
    "formula.hecht_schmid_check": {"verify_sweep"},
    "euler.comb_identity_check": {"verify_sweep"},
    "euler.bundle_betti_transfer": {"verify_sweep"},
    "cli.main": {"verify_sweep"},
}

# Set-up functions each workload calls while setting up.
EXPECTED_SETUP_CALLS = {
    "roots.build_root_system": {"modules", "complexes", "oracle"},
    "algebra.build_chevalley_algebra": {"modules", "complexes", "oracle"},
    "algebra.parabolic_split": {"complexes", "oracle"},
}

# Functions the oracle workload must not call in its timed batch.
ORACLE_BYPASSES = ("algebra.highest_weight_module", "exact.rank_and_kernel")

COHOMOLOGY_AND_RANK = {
    "cohomology.weight_multiplicities",
    "cohomology.kostant_prediction",
    "cohomology.build_ce_complex",
    "cohomology.CEComplex.verify_complex",
    "cohomology.cohomology_table",
    "exact.rank_and_kernel",
}
SPIN = {"spin.clifford_relation_check", "spin.verify_spin_square", "spin.epsilon_twist_check"}

# workload -> [(description, functions, lowest share, highest share)], shares
# of the traced batch's wall time spent inside the outermost spans of the set.
CONCENTRATION = {
    "modules": [
        ("algebra functions", {"algebra.highest_weight_module", "algebra.casimir_eigenvalue"}, 0.80, 1.0),
    ],
    "complexes": [
        ("cohomology and rank spans", COHOMOLOGY_AND_RANK, 0.80, 1.0),
        ("highest_weight_module", {"algebra.highest_weight_module"}, 0.0, 0.15),
    ],
    "oracle": [
        ("kostant_prediction", {"cohomology.kostant_prediction"}, 0.80, 1.0),
    ],
    "verify_sweep": [
        ("spin spans", SPIN, 0.25, 0.45),
    ],
}


def outer_share(detail, names):
    """Share of the traced wall time inside spans of `names` not nested in
    another span of `names`."""
    total = sum(
        e["incl_s"]
        for e in detail["edges"]
        if e["callee"] in names and e["caller"] not in names
    )
    return total / detail["traced_wall_s"]


def run_traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_workload(workload, seed):
    detail, result = run_traced(workload, seed)
    metrics = result["metrics"]
    checks = []

    def check(name, ok, info=""):
        checks.append((f"{workload}: {name}", ok, info))

    check("cases pass", result["correct"], f"{result['failed']} of {result['attempted']} failed")
    check("traced results equal untraced", detail["traced_equals_untraced"])
    for target, expected in EXPECTED_CALLS.items():
        calls = metrics[f"{target}.calls"]["value"]
        if workload in expected:
            check(f"{target} called", calls >= 1, f"{calls} calls")
    for target, expected in EXPECTED_SETUP_CALLS.items():
        calls = metrics[f"setup.{target}.calls"]["value"]
        if workload in expected:
            check(f"set-up {target} called", calls >= 1, f"{calls} calls")
    if workload == "oracle":
        for target in ORACLE_BYPASSES:
            calls = metrics[f"{target}.calls"]["value"]
            check(f"{target} bypassed", calls == 0, f"{calls} calls")
    self_times = [v["value"] for k, v in metrics.items() if k.endswith(".self_s")]
    check("self times >= 0", min(self_times) >= 0, f"min {min(self_times):.3g} s")
    check(
        "self times sum <= traced wall",
        sum(self_times) <= detail["traced_wall_s"],
        f"{sum(self_times):.3f} s of {detail['traced_wall_s']:.3f} s",
    )
    for name, names, low, high in CONCENTRATION[workload]:
        share = outer_share(detail, names)
        check(f"{name} share in [{low}, {high}]", low <= share <= high, f"{share:.1%}")
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=sorted(ALL))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    failed = 0
    for workload in args.workloads:
        for name, ok, info in check_workload(workload, args.seed):
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}  {info}", flush=True)
    print(f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
