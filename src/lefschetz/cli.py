"""Command-line driver: JSON emitters for every computation plus a one-shot
verification suite.

Exit codes: 0 success, 1 verification failure (a broken invariant is
reported as {"error": ...}), 2 malformed input.  All output is JSON with
sorted keys; rationals are rendered as "p/q" strings.  The environment
variable LEF_MAX_DIM overrides the module-dimension cap, as it does for
library calls (`algebra.check_dimension`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import algebra, cohomology, euler, formula, roots, verify
from .exact import InvariantError, LaurentCharacter

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2


def _first_non_finite(obj, path: str = "") -> str | None:
    """The path and value of the first NaN or infinity in obj, in printed
    order, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else f"{path} = {obj}"
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_first_non_finite(v, p) for p, v in items)), None)


def _emit(obj) -> None:
    """obj as JSON on stdout; a ValueError naming the first value that JSON
    cannot hold (a NaN or an infinity), with nothing printed."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        if (where := _first_non_finite(obj)) is None:
            raise
        raise ValueError(f"{where} is not a finite number") from None
    sys.stdout.write(text + "\n")


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise ValueError(f"bad weight {text!r}") from e


def _parse_levi(text: str | None) -> set[int]:
    if not text:
        return set()
    try:
        return {int(x) for x in text.split(",")}
    except ValueError as e:
        raise ValueError(f"bad levi {text!r}") from e


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError as e:  # json's parser recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply") from e
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return obj


def _check_a_dim(name: str, vectors, split) -> None:
    """Each vector must have one entry per dimension of the split's a."""
    for v in vectors:
        if len(v) != split.a_dim():
            raise ValueError(
                f"{name} [{', '.join(map(str, v))}] has {len(v)} entries, "
                f"but a has dimension {split.a_dim()}"
            )


def _load_ledger(path: str, split) -> list:
    """The ledger's class records; each a_log must have one entry per
    dimension of the split's a."""
    rows = _load_json(path)["classes"]
    if not isinstance(rows, list):
        raise ValueError(f"{path}: \"classes\" must be a list")
    records = [formula.GeodesicClassRecord.from_json_obj(row) for row in rows]
    _check_a_dim("a_log", (rec.a_log for rec in records), split)
    return records


def _module(alg, weight: str):
    return algebra.highest_weight_module(alg, _parse_weight(weight))


def _build(label: str, levi) -> tuple:
    datum = roots.build_root_system(label)
    alg = algebra.build_chevalley_algebra(datum)
    split = algebra.parabolic_split(alg, levi)
    return datum, alg, split


# ---------------------------------------------------------------------------
# Plain subcommands


def cmd_root_system(args) -> int:
    _emit(roots.build_root_system(args.type).to_json_obj())
    return EXIT_OK


def cmd_module(args) -> int:
    datum = roots.build_root_system(args.type)
    alg = algebra.build_chevalley_algebra(datum)
    mod = _module(alg, args.weight)
    obj = {
        "type": datum.label,
        "highest_weight": list(mod.highest_weight),
        "dimension": mod.dimension,
        "weights": [
            {"w": list(w), "m": m}
            for w, m in sorted(mod.weight_multiplicities().items())
        ],
    }
    if args.actions:
        obj["action"] = {
            repr(lab): [
                [str(Fraction(col.get(i, 0), m.den)) for col in m.columns] for i in range(m.rows)
            ]
            for lab, m in mod.action.items()
        }
    _emit(obj)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    datum, alg, split = _build(args.type, _parse_levi(args.levi))
    mod = _module(alg, args.weight)
    cx = cohomology.build_ce_complex(split, mod)
    table = cohomology.cohomology_table(cx)
    prediction = cohomology.kostant_prediction(datum, split, mod.highest_weight)
    obj = table.to_json_obj()
    obj["kostant_match"] = table == prediction
    _emit(obj)
    return EXIT_OK if obj["kostant_match"] else EXIT_VERIFY_FAIL


def _tau_character(datum, text: str) -> LaurentCharacter:
    """τ's character by Freudenthal, bounded by its Weyl dimension like a module."""
    if text in (None, "", "trivial"):
        return LaurentCharacter.one(datum.rank)
    tau = _parse_weight(text)
    algebra.check_dimension(f"the {datum.label} module τ = {tau}", datum.weyl_dimension(tau))
    return cohomology.irreducible_character(datum, tau)


def cmd_spectral(args) -> int:
    datum, alg, split = _build(args.type, _parse_levi(args.levi))
    tau = _tau_character(datum, args.tau)
    zero = LaurentCharacter.zero(datum.rank)
    table = formula.spectral_term(split, _parse_weight(args.weight), zero, tau)
    _emit({"type": datum.label, "levi": sorted(split.levi), "table": table.to_json_obj()})
    return EXIT_OK


def cmd_geometric(args) -> int:
    datum, alg, split = _build(args.type, _parse_levi(args.levi))
    out = []
    for rec in _load_ledger(args.ledger, split):
        c = formula.geometric_term(rec, split.n_weights)
        out.append({"record": rec.to_json_obj(), "c": [c.real, c.imag]})
    _emit({"type": datum.label, "levi": sorted(split.levi), "classes": out})
    return EXIT_OK


def cmd_balance(args) -> int:
    datum, alg, split = _build(args.type, _parse_levi(args.levi))
    spec = formula.SpectralInput.from_json_obj(_load_json(args.spectral))
    ledger = _load_ledger(args.ledger, split)
    phi = formula.TestFunction.from_json_obj(_load_json(args.testfn))
    _check_a_dim("lambda", (lam for table, _ in spec.entries for lam in table.terms), split)
    _check_a_dim("mu", (mu for _, mu, _ in phi.pieces), split)  # each box has len(mu)
    g, l, r = formula.balance_evaluator(spec, ledger, phi, split=split)
    _emit(
        {
            "global": [complex(g).real, complex(g).imag],
            "local": [complex(l).real, complex(l).imag],
            "residual": [complex(r).real, complex(r).imag],
        }
    )
    return EXIT_OK


def cmd_chi_r(args) -> int:
    betti = euler.BettiVector(tuple(int(x) for x in args.betti.split(",")))
    _emit({"betti": list(betti.b), "r": args.r, "chi_r": euler.chi_r(betti, args.r)})
    return EXIT_OK


def cmd_chi_gen(args) -> int:
    data = _load_json(args.input)
    try:
        inp = euler.HarishChandraInput(
            formula.json_int(data["n_noncompact_pos_roots"]),
            formula.json_int(data["n_pos_roots"]),
            formula.json_int(data["nu"]),
            formula.read_fraction(str(data["volume_ratio"])),
            formula.json_int(data["weyl_order"]),
            formula.json_int(data.get("weyl_order_complex", 0)),
            formula.read_fraction(str(data.get("rho_product", 0))),
        )
        covolume = formula.read_fraction(args.covolume)
        a_covolume = formula.read_fraction(args.a_covolume) if args.a_covolume else None
    except (TypeError, ZeroDivisionError) as e:
        raise ValueError(f"malformed chi-gen input: {e}") from e
    result = euler.chi_gen(inp, covolume, a_covolume)
    _emit({k: v.to_json_obj() for k, v in result.items()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suite


def cmd_verify(args) -> int:
    names = sorted(verify.CHECKS) if args.suite == "all" else [args.suite]
    cfg = {
        "types": args.types.split(","),
        "max_coord": args.max_coord,
        "seed": args.seed,
        "max_m": args.max_m,
        "max": args.max,
        "points": args.points,
    }
    sweep = verify.Sweep()
    verify.check_parameters(names, cfg, sweep)
    entries = []
    failed = 0
    for name in names:
        t0 = time.monotonic()
        counterexample = verify.CHECKS[name](cfg, sweep)
        ms = int((time.monotonic() - t0) * 1000)
        ok = counterexample is None
        failed += not ok
        entries.append(
            {
                "check": name,
                "parameters": cfg,
                "pass": ok,
                "counterexample": counterexample,
                "wall_ms": ms,
            }
        )
    _emit(
        {
            "suite": entries,
            "summary": {"total": len(entries), "failed": failed},
            "seed": args.seed,
        }
    )
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# Dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lef",
        description="Exact-arithmetic Lie theory engine and trace-identity evaluators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("root-system", help="emit a root system as JSON")
    p.add_argument("--type", required=True)
    p.set_defaults(fn=cmd_root_system)

    p = sub.add_parser("module", help="build a highest-weight module")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--actions", action="store_true")
    p.set_defaults(fn=cmd_module)

    p = sub.add_parser("cohomology", help="nilradical cohomology table")
    p.add_argument("--type", required=True)
    p.add_argument("--levi", default="")
    p.add_argument("--weight", required=True)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("spectral", help="spectral term table")
    p.add_argument("--type", required=True)
    p.add_argument("--levi", default="")
    p.add_argument("--weight", required=True)
    p.add_argument("--tau", default="trivial")
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("geometric", help="geometric coefficients from a ledger")
    p.add_argument("--ledger", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--levi", default="")
    p.set_defaults(fn=cmd_geometric)

    p = sub.add_parser("balance", help="evaluate both sides against a test function")
    p.add_argument("--spectral", required=True)
    p.add_argument("--ledger", required=True)
    p.add_argument("--testfn", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--levi", default="")
    p.set_defaults(fn=cmd_balance)

    p = sub.add_parser("chi-r", help="weighted Euler characteristic")
    p.add_argument("--betti", required=True)
    p.add_argument("--r", type=int, default=0)
    p.set_defaults(fn=cmd_chi_r)

    p = sub.add_parser("chi-gen", help="generic Euler number from constants")
    p.add_argument("--input", required=True)
    p.add_argument("--covolume", required=True)
    p.add_argument("--a-covolume", default=None)
    p.set_defaults(fn=cmd_chi_gen)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("suite", choices=["all"] + sorted(verify.CHECKS))
    p.add_argument("--types", default="A1,A2")
    p.add_argument("--max-coord", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-m", type=int, default=6)
    p.add_argument("--max", type=int, default=12)
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0) and EXIT_BAD_INPUT
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, OverflowError) as e:  # json's errors are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InvariantError as e:
        _emit({"error": str(e)})
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
