"""Chevalley-Eilenberg cohomology of the nilradical, graded by Cartan weight.

Cochains C^q = V ⊗ ∧^q n* and chains C_p = V ⊗ ∧^p n come from one Koszul
builder as sparse integer blocks per h-weight, which the maps preserve; each
term of a map has its own pair of labels, so the columns are assembled by
appending.  d² = 0 is checked once per complex, on every entry, by applying
each map to the columns of the one before.  Each block is ranked once, by
fraction-free elimination, for both degrees it joins; where d² = 0 holds,
im d ⊆ ker d bounds the rank, and the elimination stops there.  An independent
prediction of the cohomology (minimal coset representatives acting on the
shifted highest weight, with Levi weight multiplicities from Freudenthal's
recursion) serves as an oracle; homology feeds the duality check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterator

from .algebra import ParabolicSplit, WeightModule, _add, _neg, _sub
from .exact import InvariantError, LaurentCharacter, SparseMatrix, Weight
from .exact import _integral, alternating_exterior_sum, image, pairs
from .roots import RootDatum


# ---------------------------------------------------------------------------
# Weight multiplicities via Freudenthal's recursion (independent oracle)


def weight_multiplicities(datum: RootDatum, lam, levi=None, form=None) -> dict[Weight, int]:
    """Weight multiplicities of the irreducible module with highest weight lam
    for the (sub)system spanned by the `levi` simple roots (default: all),
    computed by Freudenthal's recursion in integers.  `form` is
    `datum.levi_form(levi)`, computed here if not given."""
    levi = sorted(set(range(datum.rank) if levi is None else levi))
    lam = tuple(map(_integral, lam))
    if len(lam) != datum.rank or any(lam[i] < 0 for i in levi):
        raise ValueError(f"{lam} is not a dominant rank-{datum.rank} weight of the subsystem")
    if not levi:
        return {lam: 1}
    d, pos = form or datum.levi_form(levi)
    mult: dict[Weight, int] = {lam: 1}
    # mu -> |lam + rho_L|^2 - |mu + rho_L|^2 = (lam - mu, lam + mu + 2 rho_L),
    # which grows by (2 mu + 2 rho_L - alpha_i, alpha_i) = 2 d_i mu_i from mu to mu - alpha_i
    level = {lam: 0}
    while level:
        candidates = {}
        for mu, gap in level.items():
            for i in levi:
                candidates[_sub(mu, datum.simple_roots[i])] = gap + 2 * d[i] * mu[i]
        level = {}
        for mu, gap in sorted(candidates.items()):
            rhs = 0
            for alpha, p in pos:
                nu = _add(mu, alpha)
                while nu in mult:
                    rhs += 2 * mult[nu] * sum(map(mul, p, nu))
                    nu = _add(nu, alpha)
            if rhs == 0:
                continue
            val, rem = divmod(rhs, gap)
            if rem or val < 0:
                raise InvariantError(
                    f"Freudenthal multiplicity {Fraction(rhs, gap)} of {mu} "
                    "is not a natural number"
                )
            mult[mu] = val
            level[mu] = gap
    return mult


def irreducible_character(datum: RootDatum, lam, levi=None) -> LaurentCharacter:
    return LaurentCharacter(datum.rank, weight_multiplicities(datum, lam, levi))


# Largest sum of the Levi module dimensions of one Kostant prediction, which
# bounds its Freudenthal work.  Measured with Python 3.11 on a shared 2-vCPU
# host at lam = 0: the E6 maximal parabolics without nodes 1-6 (Bourbaki) have
# sums 65 536, 705 432, 1 960 128, 2 289 792, 1 960 128 and 65 536 and took
# 2.8, 22, 51, 105, 47 and 2.8 s; every E7 and E8 maximal parabolic has a sum
# of at least 1.3e8.
LEVI_DIMENSION_BOUND = 1 << 20


# ---------------------------------------------------------------------------
# The Chevalley-Eilenberg complex

# Largest complex built, in cochains dim V * 2^|n|; the build keeps about
# 0.4 KiB per cochain, so this bounds it near 100 MB.  Measured as the
# tracemalloc peak of `build_ce_complex` (Python 3.11) on the 4096-cochain
# Borel complexes, the largest in the tests: 0.40 KiB per cochain for D4 with
# the trivial module, 0.25 for B3 (0,0,1) and 0.24 for A3 (1,1,1).
MAX_COCHAINS = 1 << 18


class CEComplex:
    """Koszul complex of V ⊗ ∧ n, stored as sparse integer blocks per h-weight.

    Degree q has the labels (module index j, sorted q-subset S of n-root
    indices).  As cochains (`step` = +1) a label has weight wt_j - Σ_S α and
    d_q adds a root factor; as chains (`ChainComplex`, `step` = -1) it has
    weight wt_j + Σ_S α and ∂_q removes one.  Between subsets small ⊂ big both
    maps have the terms (-1)^pos(k, big) e_k for big = small ∪ {k}, and
    (-1)^(pos(g, small) + pos(a, big) + pos(b, big)) N, negated for chains,
    for small = R ∪ {g}, big = R ∪ {a, b} and [e_a, e_b] = N e_g.  Each term
    has its own (source label, target label) pair, so the columns are
    assembled by appending, and the maps preserve the weight because every
    e_k does: wt_j' = wt_j + α_k is checked once per entry of e_k.

    `differentials[q]` maps degree q to degree q + step.  Its blocks are the
    map times `scale`, the lcm of the e_k's denominators `den`: integral, with
    distinct rows per column and `den` 1, and with the ranks and zero
    composites of the map itself.  `verify_complex` checks d² = 0 once and
    keeps the verdict, which `cohomology_table` uses to bound the ranks; the
    bound assumes the blocks have not changed since that check.
    """

    step = 1

    def __init__(self, split: ParabolicSplit, mod: WeightModule):
        self.split = split
        self.module = mod
        self.n_roots = list(split.n_roots)
        self.top = top = len(self.n_roots)
        dim = mod.dimension
        if dim << top > MAX_COCHAINS:
            raise ValueError(
                f"{dim << top} cochains (dim V = {dim}, |n| = {top}) exceed "
                f"the limit MAX_COCHAINS = {MAX_COCHAINS}"
            )
        self._closed: bool | None = None
        # bases[q]: weight -> list of (module index, sorted tuple of root indices)
        self.bases: list[dict[Weight, list[tuple[int, tuple[int, ...]]]]] = []
        # label key mask * dim + j (mask: the subset as bits) -> its position
        # in its weight block, and the list its column is appended to
        position = [0] * (dim << top)
        column: list[list] = [None] * (dim << top)
        columns: list[dict[Weight, list[list]]] = []  # per degree, per weight
        factor = [_neg(r) if self.step > 0 else r for r in self.n_roots]
        shifts = {0: (0,) * len(mod.highest_weight)}  # mask -> weight of its factors
        for q in range(top + 1):
            blocks: dict[Weight, list] = {}
            cols: dict[Weight, list[list]] = {}
            prev, shifts = shifts, {}  # the masks of degrees q - 1 and q
            masks = map(sum, combinations([1 << k for k in range(top)], q))
            for subset, mask in zip(combinations(range(top), q), masks):
                # prev holds the subset without its first (lowest) root
                shift = shifts[mask] = (
                    _add(prev[mask & (mask - 1)], factor[subset[0]]) if subset else prev[0]
                )
                key = mask * dim
                for j, wt in enumerate(mod.basis_weights):
                    wt = _add(wt, shift)
                    labels = blocks.setdefault(wt, [])
                    position[key + j] = len(labels)
                    labels.append((j, subset))
                    column[key + j] = col = []
                    cols.setdefault(wt, []).append(col)
            self.bases.append(blocks)
            columns.append(cols)
        self.scale = self._assemble(position, column)
        del position, column  # each column list is now held by its block alone
        self.differentials: list[dict[Weight, SparseMatrix]] = []
        for q, cols in enumerate(columns):
            target = self.bases[q + self.step] if 0 <= q + self.step <= top else {}
            maps: dict[Weight, SparseMatrix] = {}
            for wt, c in cols.items() if target else ():
                c[:] = map(tuple, c)  # flat tuples in place of the lists
                maps[wt] = SparseMatrix._of(len(target.get(wt, ())), c)
            self.differentials.append(maps)

    def _assemble(self, position, column) -> int:
        """Append every term of the map to the column of its source label,
        as (row, entry) with the entries times the returned scale."""
        mod, top, step = self.module, self.top, self.step
        dim, weights = mod.dimension, mod.basis_weights
        actions = [mod.action[("e", r)] for r in self.n_roots]
        scale = lcm(*(e.den for e in actions))
        for k, (e, root) in enumerate(zip(actions, self.n_roots)):
            # e_k once, times scale, as (j, j', entry); skipped if it acts as zero
            terms = [
                (j, jp, c * (scale // e.den))
                for j, col in enumerate(e.columns)
                for jp, c in pairs(col)
            ]
            if not terms:
                continue
            for j, jp, _ in terms:
                if weights[jp] != _add(weights[j], root):
                    raise InvariantError("the map does not preserve the weight")
            negated = [(j, jp, -c) for j, jp, c in terms]
            bit = 1 << k
            for small in range(1 << top):
                if small & bit:
                    continue
                big = small | bit
                src, dst = (small * dim, big * dim) if step > 0 else (big * dim, small * dim)
                # the sign (-1)^pos(k, big): the roots of small before k
                for j, jp, c in negated if (small & (bit - 1)).bit_count() & 1 else terms:
                    col = column[src + j]
                    col.append(position[dst + jp])
                    col.append(c)
        # [e_a, e_b] = N e_g with a < b: the subsets R ∪ {g} and R ∪ {a, b}
        # for every R that avoids a, b and g
        sc = self.split.algebra.constants
        n_index = {r: k for k, r in enumerate(self.n_roots)}
        full = (1 << top) - 1
        for a, b in combinations(range(top), 2):
            g = n_index.get(_add(self.n_roots[a], self.n_roots[b]))
            nval = sc.n(self.n_roots[a], self.n_roots[b]) if g is not None else 0
            if not nval:
                continue
            others = full & ~(1 << a | 1 << b | 1 << g)
            # pos(g, small) + pos(a, big) + pos(b, big) is 1 (b follows a)
            # plus the number of roots of R before g, a and b, whose parity
            # is that of R & before
            before = ((1 << a) - 1) ^ ((1 << b) - 1) ^ ((1 << g) - 1)
            signed = (-nval * step * scale, nval * step * scale)
            rest = others
            while True:
                small, big = rest | 1 << g, rest | 1 << a | 1 << b
                c = signed[(rest & before).bit_count() & 1]
                src, dst = (small * dim, big * dim) if step > 0 else (big * dim, small * dim)
                for col, row in zip(column[src : src + dim], position[dst : dst + dim]):
                    col.append(row)
                    col.append(c)
                if not rest:
                    break
                rest = (rest - 1) & others
        return scale

    def cochain_dimension(self, q: int) -> int:
        if not 0 <= q <= self.top:
            return 0
        return sum(len(v) for v in self.bases[q].values())

    def verify_complex(self) -> bool:
        """Every entry of each map composed with the next is exactly zero:
        each block of d_{q+step} is applied to the columns of d_q, and the
        first nonzero column decides.  Checked once; the verdict is kept and
        is that of the blocks as they were then, so a complex whose blocks
        are changed after this call must be built anew to be checked again."""
        if self._closed is None:
            self._closed = all(  # no blocks where q + step is out of range
                not any(image(d1.columns, col) for col in d0.columns)
                for q, blocks in enumerate(self.differentials)
                for wt, d0 in blocks.items()
                if (d1 := self.differentials[q + self.step].get(wt)) is not None
            )
        return self._closed

    def table(self) -> CohomologyTable:
        return cohomology_table(self)


def build_ce_complex(split: ParabolicSplit, mod: WeightModule) -> CEComplex:
    return CEComplex(split, mod)


# ---------------------------------------------------------------------------
# Dimension tables


@dataclass
class CohomologyTable:
    """Weight-graded dimensions per degree, with the a-weight pushforward."""

    split: ParabolicSplit
    degrees: list[dict[Weight, int]]  # h-weight -> dimension, per degree

    def dimension(self, q: int) -> int:
        if not 0 <= q < len(self.degrees):
            return 0
        return sum(self.degrees[q].values())

    def a_degrees(self) -> list[dict[tuple[Fraction, ...], int]]:
        out = []
        for table in self.degrees:
            block: dict[tuple[Fraction, ...], int] = {}
            for wt, d in table.items():
                key = self.split.restrict_to_a(wt)
                block[key] = block.get(key, 0) + d
            out.append(block)
        return out

    def euler_character(self) -> LaurentCharacter:
        total: dict[Weight, int] = {}
        for q, table in enumerate(self.degrees):
            sign = (-1) ** q
            for wt, d in table.items():
                total[wt] = total.get(wt, 0) + sign * d
        return LaurentCharacter(self.split.datum.rank, total)

    def __eq__(self, other):
        if not isinstance(other, CohomologyTable):
            return NotImplemented
        n = max(len(self.degrees), len(other.degrees))
        mine, theirs = (t.degrees + [{}] * (n - len(t.degrees)) for t in (self, other))
        return mine == theirs

    def to_json_obj(self) -> dict:
        a_degrees = self.a_degrees()
        return {
            "degrees": [
                {
                    "q": q,
                    "dimension": self.dimension(q),
                    "h_weights": [
                        {"w": list(w), "dim": d} for w, d in sorted(table.items())
                    ],
                    "a_weights": [
                        {"lambda": [str(x) for x in k], "dim": d}
                        for k, d in sorted(a_degrees[q].items())
                    ],
                }
                for q, table in enumerate(self.degrees)
            ],
        }


def cohomology_table(cx: CEComplex) -> CohomologyTable:
    """Dimensions dim C_q - rank(out of q) - rank(into q) per weight block;
    each block is ranked once, and its rank serves both degrees it joins.
    The maps are ranked in the order they compose, and where d² = 0 holds
    (`verify_complex`), im d_{q-step} ⊆ ker d_q bounds the rank of d_q by
    min(rows, dim C_q - rank d_{q-step}) per block: its elimination stops at
    that many pivots.  The verdict is the one `verify_complex` kept, so the
    bound assumes the blocks have not changed since that check.  Where
    d² ≠ 0 every block is ranked in full."""
    closed = cx.verify_complex()
    ranks: list[dict[Weight, int]] = [{} for _ in cx.bases]
    degrees: list[dict[Weight, int]] = [{} for _ in cx.bases]
    for q in range(cx.top + 1) if cx.step > 0 else range(cx.top, -1, -1):
        prev = q - cx.step
        into = ranks[prev] if 0 <= prev <= cx.top else {}
        out = ranks[q] = {
            wt: d.rank(min(d.rows, d.cols - into.get(wt, 0)) if closed else None)
            for wt, d in cx.differentials[q].items()
        }
        for wt, labels in cx.bases[q].items():
            h = len(labels) - out.get(wt, 0) - into.get(wt, 0)
            if h:
                degrees[q][wt] = h
    return CohomologyTable(cx.split, degrees)


def kostant_weights(datum: RootDatum, split: ParabolicSplit, lam) -> Iterator[list[Weight]]:
    """Kostant's highest weights, one list per degree q: w(lam+rho)-rho for
    each minimal coset representative w of length q, read off the integer
    columns of `RootDatum.coset_walk` one level at a time."""
    lam = tuple(map(_integral, lam))
    if len(lam) != datum.rank or not datum.is_dominant(lam):
        raise ValueError(f"weight {lam} is not a dominant weight of {datum.label}")
    shifted = _add(lam, datum.rho)
    for level in datum.coset_walk(sorted(split.levi)):
        yield [  # w(lam + rho) - rho for each w = v^-1 of the walk
            tuple(sum(map(mul, shifted, r)) - 1 for r in zip(*cols)) for _, cols in level.values()
        ]


def kostant_prediction(
    datum: RootDatum, split: ParabolicSplit, lam
) -> CohomologyTable:
    """Predicted cohomology (Kostant): in degree q, the Levi modules whose
    highest weights are the degree-q `kostant_weights`.  The running sum of
    the Levi dimensions is checked against LEVI_DIMENSION_BOUND at each level
    of the walk, before any module is computed."""
    levi = sorted(split.levi)
    form = datum.levi_form(levi)
    levels, work = [], 0
    for level in kostant_weights(datum, split, lam):
        levels.append(level)
        work += sum(datum.weyl_dimension(mu, levi, form) for mu in level)
        if work > LEVI_DIMENSION_BOUND:
            raise ValueError(
                f"the Levi modules have dimension at least {work} in all, more than "
                f"the limit LEVI_DIMENSION_BOUND = {LEVI_DIMENSION_BOUND}"
            )
    degrees: list[dict[Weight, int]] = [{} for _ in range(len(split.n_roots) + 1)]
    for table, level in zip(degrees, levels):
        for mu in level:
            for wt, m in weight_multiplicities(datum, mu, levi, form).items():
                table[wt] = table.get(wt, 0) + m
    return CohomologyTable(split, degrees)


# ---------------------------------------------------------------------------
# Homology and duality


class ChainComplex(CEComplex):
    """Chains V ⊗ ∧^p n with the Koszul boundary, blockwise per h-weight."""

    step = -1


def homology_table(
    split: ParabolicSplit, mod: WeightModule, coh: CohomologyTable | None = None
) -> tuple[CohomologyTable, bool]:
    """Homology dimensions plus the duality flag: the graded character of H_p
    must equal that of H^{top-p} shifted by the ∧^top n weight.  `coh` is the
    cohomology table of (split, mod), computed here if not given."""
    chains = ChainComplex(split, mod)
    if not chains.verify_complex():
        raise InvariantError("boundary does not square to zero")
    hom = chains.table()
    if coh is None:
        coh = cohomology_table(build_ce_complex(split, mod))
    top_weight = (0,) * split.datum.rank
    for r in split.n_roots:
        top_weight = _add(top_weight, r)
    top = len(split.n_roots)
    holds = all(
        {_add(wt, top_weight): d for wt, d in coh.degrees[top - p].items()} == hom.degrees[p]
        for p in range(top + 1)
    )
    return hom, holds


def euler_character_check(
    split: ParabolicSplit, mod: WeightModule, table: CohomologyTable | None = None
) -> bool:
    """Σ_q (-1)^q ch H^q = ch V · Π_{α in n} (1 - x^{-α}), exactly.  `table`
    is the cohomology table of (split, mod), computed here if not given."""
    n_dual = LaurentCharacter.from_weights(split.datum.rank, map(_neg, split.n_roots))
    rhs = mod.character() * alternating_exterior_sum(n_dual)
    if table is None:
        table = cohomology_table(build_ce_complex(split, mod))
    return table.euler_character() == rhs
