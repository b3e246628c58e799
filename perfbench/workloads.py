"""The benchmark's workloads: case pools, seeded inputs, timed batches, checks.

Each workload has a fixed pool of cases.  One batch runs every case of the
pool once, and `wall_s` is the time of a batch, so the amount of work must not
depend on the seed: runs with different seeds are compared with each other.
The seed therefore selects the order of the cases and, where the Dynkin
diagram has an automorphism, which image of the case's highest weight and
Levi subset under it is run.  Images under a diagram automorphism are
different inputs of the same cost.  For `verify_sweep` the seed is also
passed to `lef verify`, which draws its random evaluation points from it.

Every check is an explicit comparison that counts into the failed cases;
none relies on `assert`, which `python -O` removes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class CaseResult:
    label: str
    ok: bool
    digest: str  # hash of the case's outputs, to compare traced and untraced runs
    error: str = ""
    seconds: float = 0.0  # time of the program calls and checks of this case


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _diagram_automorphisms(label: str) -> list[tuple[int, ...]]:
    """Permutations of the simple roots that preserve the Cartan matrix, in
    the package's numbering (D_n: nodes n-2 and n-1 are the spin nodes, and
    node 1 is the centre of D4)."""
    series, rank = label[0], int(label[1:])
    ident = tuple(range(rank))
    if series == "A" and rank > 1:
        return [ident, ident[::-1]]
    if series == "D" and rank == 4:
        return [(p[0], 1, p[1], p[2]) for p in itertools.permutations((0, 2, 3))]
    if series == "D":
        return [ident, ident[:-2] + (rank - 1, rank - 2)]
    return [ident]


def _seeded_images(rng, pool):
    """The pool's cases in seeded order, each moved by a seeded automorphism.

    A pool entry is (type, Levi subset, highest weight, *expected values)."""
    out = []
    for label, levi, lam, *expected in pool:
        perm = rng.choice(_diagram_automorphisms(label))
        image_lam = tuple(lam[perm[i]] for i in range(len(lam)))
        image_levi = tuple(sorted(perm.index(i) for i in levi))
        out.append((label, image_levi, image_lam, *expected))
    rng.shuffle(out)
    return out


def _run_case(label, fn) -> CaseResult:
    # A case that raises is a failed case; the batch goes on with the next.
    t0 = time.perf_counter()
    try:
        problems, outputs = fn()
    except Exception as e:  # noqa: BLE001 - any error in the program is a failure
        return CaseResult(label, False, "", f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - t0
    return CaseResult(label, not problems, _digest(outputs), "; ".join(problems), seconds)


# ---------------------------------------------------------------------------
# modules: a few large highest-weight modules and their Casimir scalars

# (type, Levi, highest weight, Weyl dimension).  The dimensions are the Weyl
# dimension formula evaluated by hand.
MODULE_POOL = (
    ("B2", (), (2, 3), 140),
    ("G2", (), (1, 1), 64),
    ("C3", (), (1, 1, 0), 64),
    ("A3", (), (1, 1, 1), 64),
    ("A2", (), (2, 4), 60),
)

# d_i = (alpha_i, alpha_i) / 2 with short roots of squared length 2, in the
# package's numbering: the last simple root of B_n is short, the last of C_n
# is long, and the first of G2 is long.
SYMMETRIZER = {
    "A2": (1, 1),
    "A3": (1, 1, 1),
    "B2": (2, 1),
    "C3": (1, 1, 2),
    "G2": (3, 1),
}


def _solve(rows, rhs) -> list[Fraction]:
    """Exact solution of a small nonsingular linear system."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


def casimir_scalar(cartan, d, lam) -> Fraction:
    """(lam+rho, lam+rho) - (rho, rho) in the short-root-2 normalization.

    With alpha_i = sum_j a_ij omega_j and (alpha_i, alpha_j) = a_ij d_j, the
    form on fundamental coordinates is (mu, nu) = sum_i mu_i d_i y_i where
    A^T y = nu."""
    transpose = [list(col) for col in zip(*cartan)]

    def inner(mu, nu):
        y = _solve(transpose, nu)
        return sum((m * di * yi for m, di, yi in zip(mu, d, y)), Fraction(0))

    rho = [1] * len(lam)
    lam_rho = [a + 1 for a in lam]
    return inner(lam_rho, lam_rho) - inner(rho, rho)


def prepare_modules(lef, seed):
    rng = random.Random(seed)
    cases = []
    algebras = {}
    for label, _, lam, dim in _seeded_images(rng, MODULE_POOL):
        if label not in algebras:
            datum = lef.roots.build_root_system(label)
            alg = lef.algebra.build_chevalley_algebra(datum)
            alg.killing_form()  # cached on the algebra; the Casimir form needs it
            algebras[label] = (datum, alg)
        datum, alg = algebras[label]
        scalar = casimir_scalar(datum.cartan_matrix, SYMMETRIZER[label], lam)
        cases.append((label, datum, alg, lam, dim, scalar))
    return cases


def run_modules(lef, cases):
    results = []
    for label, datum, alg, lam, dim, scalar in cases:

        def case():
            mod = lef.algebra.highest_weight_module(alg, lam)
            got = lef.algebra.casimir_eigenvalue(alg, mod, "short-root-2")
            mults = mod.weight_multiplicities()
            problems = []
            if mod.dimension != dim:
                problems.append(f"dimension {mod.dimension} != Weyl dimension {dim}")
            if mults != lef.cohomology.weight_multiplicities(datum, lam):
                problems.append("weight multiplicities differ from Freudenthal")
            if got != scalar:
                problems.append(f"Casimir scalar {got} != {scalar}")
            return problems, (mod.dimension, sorted(mults.items()), str(got))

        results.append(_run_case(f"{label} {lam}", case))
    return results, {r.label: r.seconds for r in results}, {}


# ---------------------------------------------------------------------------
# complexes: Chevalley-Eilenberg complexes of large nilradicals

COMPLEX_POOL = (
    ("D4", (), (0, 0, 0, 0)),
    ("B3", (), (0, 0, 1)),
    ("A3", (), (1, 1, 1)),
)


def _prepare_split_cases(lef, seed, pool):
    rng = random.Random(seed)
    cases = []
    algebras = {}
    for label, levi, lam, *expected in _seeded_images(rng, pool):
        if label not in algebras:
            datum = lef.roots.build_root_system(label)
            algebras[label] = (datum, lef.algebra.build_chevalley_algebra(datum))
        datum, alg = algebras[label]
        split = lef.algebra.parabolic_split(alg, levi)
        cases.append((label, datum, alg, split, lam, *expected))
    return cases


def prepare_complexes(lef, seed):
    return _prepare_split_cases(lef, seed, COMPLEX_POOL)


def run_complexes(lef, cases):
    results = []
    for label, datum, alg, split, lam in cases:

        def case():
            mod = lef.algebra.highest_weight_module(alg, lam)
            cx = lef.cohomology.build_ce_complex(split, mod)
            closed = cx.verify_complex()
            table = lef.cohomology.cohomology_table(cx)
            prediction = lef.cohomology.kostant_prediction(datum, split, lam)
            problems = []
            if not closed:
                problems.append("d^2 != 0")
            if table != prediction:
                problems.append("CE cohomology differs from the Kostant prediction")
            degrees = [sorted(t.items()) for t in table.degrees]
            return problems, (closed, degrees)

        results.append(_run_case(f"{label} levi={list(split.levi)} {lam}", case))
    return results, {r.label: r.seconds for r in results}, {}


# ---------------------------------------------------------------------------
# oracle: the Kostant/Freudenthal prediction on rank-4 and rank-5 parabolics

# (type, Levi, highest weight, |W| for a Borel case).  For the Borel subalgebra
# every Weyl element contributes one dimension, so the total is |W|.
ORACLE_POOL = (
    ("F4", (), (0, 0, 0, 1), 1152),
    ("B4", (), (1, 0, 0, 0), 384),
    ("B4", (0,), (0, 0, 0, 0), None),
    ("B4", (2, 3), (0, 0, 0, 1), None),
    ("D5", (), (0, 0, 0, 1, 0), 1920),
)


def prepare_oracle(lef, seed):
    return _prepare_split_cases(lef, seed, ORACLE_POOL)


def run_oracle(lef, cases):
    results = []
    character = lef.exact.LaurentCharacter
    for label, datum, alg, split, lam, weyl_order in cases:

        def case():
            prediction = lef.cohomology.kostant_prediction(datum, split, lam)
            # sum_q (-1)^q ch H^q = ch V * prod_{alpha in n} (1 - e^{-alpha})
            rhs = character(datum.rank, lef.cohomology.weight_multiplicities(datum, lam))
            one = character.one(datum.rank)
            for r in split.n_roots:
                rhs = rhs * (one - character.monomial(tuple(-c for c in r)))
            problems = []
            if prediction.euler_character() != rhs:
                problems.append("Euler character identity fails")
            total = sum(prediction.dimension(q) for q in range(len(prediction.degrees)))
            if weyl_order is not None and total != weyl_order:
                problems.append(f"Borel total dimension {total} != |W| = {weyl_order}")
            degrees = [sorted(t.items()) for t in prediction.degrees]
            return problems, degrees

        results.append(_run_case(f"{label} levi={list(split.levi)} {lam}", case))
    return results, {r.label: r.seconds for r in results}, {}


# ---------------------------------------------------------------------------
# verify_sweep: `lef verify all` on A1, A2, B2, in process

VERIFY_CHECKS = (
    "chitransfer",
    "comb",
    "d2",
    "det",
    "duality",
    "epsilon",
    "euler",
    "hechtschmid",
    "jacobi",
    "kostant",
    "spin",
)


def prepare_verify_sweep(lef, seed):
    return ["verify", "all", "--types", "A1,A2,B2", "--max-coord", "2", "--seed", str(seed)]


def run_verify_sweep(lef, argv):
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = lef.cli.main(argv)
        entries = {e["check"]: e for e in json.loads(out.getvalue())["suite"]}
        missing = "check missing from the report"
    except Exception as e:  # noqa: BLE001 - a crash fails every check
        code, entries, missing = None, {}, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    results = []
    check_ms = {}
    for name in VERIFY_CHECKS:
        entry = entries.get(name)
        if entry is None:
            results.append(CaseResult(name, False, "", missing))
            continue
        check_ms[f"cli.verify.{name}.ms"] = entry["wall_ms"]
        problems = []
        if entry["pass"] is not True or entry["counterexample"] is not None:
            problems.append(f"counterexample {entry['counterexample']!r}")
        if code != 0:
            problems.append(f"exit code {code}")
        outputs = (entry["pass"], entry["counterexample"])
        results.append(CaseResult(name, not problems, _digest(outputs), "; ".join(problems)))
    # The checks run inside one call, so the call is the timed unit.
    return results, {"verify all": seconds}, check_ms


WORKLOADS = {
    "verify_sweep": (prepare_verify_sweep, run_verify_sweep),
    "modules": (prepare_modules, run_modules),
    "complexes": (prepare_complexes, run_complexes),
    "oracle": (prepare_oracle, run_oracle),
}
