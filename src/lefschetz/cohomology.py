"""Chevalley-Eilenberg cohomology of the nilradical, graded by Cartan weight.

Cochains C^q = V ⊗ ∧^q n* and chains C_p = V ⊗ ∧^p n come from one Koszul
builder as sparse integer blocks per h-weight, which the maps preserve; each
term of a map has its own pair of labels, so each entry of a column is set
once.  d² = 0 is checked once per complex, on every entry, by applying
each map to the columns of the one before.  Each block is ranked once, by
fraction-free elimination, for both degrees it joins; where d² = 0 holds,
im d ⊆ ker d bounds the rank, and the elimination stops there.  An independent
prediction of the cohomology (minimal coset representatives acting on the
shifted highest weight, with Levi weight multiplicities from Freudenthal's
recursion, one Freudenthal run per distinct Levi part) serves as an oracle;
homology feeds the duality check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from operator import mul
from typing import Iterator

from .algebra import ParabolicSplit, WeightModule, _add, _neg, _sub
from .exact import InvariantError, LaurentCharacter, SparseMatrix, Weight
from .exact import _integral, alternating_exterior_sum, checked_span, image, pack, unpack
from .roots import RootDatum


# ---------------------------------------------------------------------------
# Weight multiplicities via Freudenthal's recursion (independent oracle)


def weight_multiplicities(datum: RootDatum, lam, levi=None) -> dict[Weight, int]:
    """Weight multiplicities of the irreducible module with highest weight lam
    for the (sub)system spanned by the `levi` simple roots (default: all),
    computed by Freudenthal's recursion in integers."""
    levi = sorted(set(range(datum.rank) if levi is None else levi))
    lam = tuple(map(_integral, lam))
    if len(lam) != datum.rank or any(lam[i] < 0 for i in levi):
        raise ValueError(f"{lam} is not a dominant rank-{datum.rank} weight of the subsystem")
    if not levi:
        return {lam: 1}
    d, pos = datum.levi_form(levi)
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
# 0.75 KiB per cochain, so this bounds it near 190 MB.  Measured as the
# tracemalloc peak of `build_ce_complex` (Python 3.11), per cochain: 0.74 KiB
# for B3 (1,1,1), which has exactly this many cochains, and on the
# 4096-cochain Borel complexes, the largest in the tests, 0.51 KiB for D4 with
# the trivial module, 0.35 for B3 (0,0,1) and 0.35 for A3 (1,1,1).
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
    has its own (source label, target label) pair, so each column entry is
    set once per label pair, and the maps preserve the weight because every
    e_k does: wt_j' = wt_j + α_k is checked once per entry of e_k.

    `bases[q]` maps each weight of degree q to its block's columns, one
    row -> entry dict per label, in label order; the labels are not kept.
    `differentials[q]` maps degree q to degree q + step, and its block at a
    weight holds the same column list as `bases[q]`.  Its blocks are the
    map times `scale`, the lcm of the e_k's denominators `den`: integral,
    with `den` 1, and with the ranks and zero composites of the map itself.
    `verify_complex` checks d² = 0 once and keeps the verdict, which
    `cohomology_table` uses to bound the ranks; the bound assumes the blocks
    have not changed since that check.
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
        # bases[q]: weight -> the columns of its labels (module index j, sorted
        # q-subset of n-root indices), the list its block of d_q holds
        self.bases: list[dict[Weight, list[dict]]] = []
        # label key mask * dim + j (mask: the subset as bits) -> its position
        # in its weight block, and the row -> entry dict of its column
        position = [0] * (dim << top)
        column: list[dict] = [None] * (dim << top)
        factor = [_neg(r) if self.step > 0 else r for r in self.n_roots]
        shifts = {0: (0,) * len(mod.highest_weight)}  # mask -> weight of its factors
        for q in range(top + 1):
            blocks: dict[Weight, list[dict]] = {}
            prev, shifts = shifts, {}  # the masks of degrees q - 1 and q
            for mask in map(sum, combinations([1 << k for k in range(top)], q)):
                # prev holds the subset without its lowest root
                low = mask & -mask
                shift = shifts[mask] = (
                    _add(prev[mask ^ low], factor[low.bit_length() - 1]) if mask else prev[0]
                )
                key = mask * dim
                for j, wt in enumerate(mod.basis_weights):
                    cols = blocks.setdefault(_add(wt, shift), [])
                    position[key + j] = len(cols)
                    column[key + j] = col = {}
                    cols.append(col)
            self.bases.append(blocks)
        self.scale = self._assemble(position, column)
        del position, column  # each column dict is now held by its block alone
        self.differentials: list[dict[Weight, SparseMatrix]] = []
        for q, blocks in enumerate(self.bases):
            target = self.bases[q + self.step] if 0 <= q + self.step <= top else {}
            self.differentials.append(
                {wt: SparseMatrix._of(len(target.get(wt, ())), c) for wt, c in blocks.items()}
                if target
                else {}
            )

    def _assemble(self, position, column) -> int:
        """Set every term of the map in the column of its source label, once
        per label pair, as row -> entry with the entries times the returned
        scale."""
        mod, top, step = self.module, self.top, self.step
        dim, weights = mod.dimension, mod.basis_weights
        actions = [mod.action[("e", r)] for r in self.n_roots]
        scale = lcm(*(e.den for e in actions))
        for k, (e, root) in enumerate(zip(actions, self.n_roots)):
            # e_k once, times scale, as (j, j', entry); skipped if it acts as zero
            terms = [
                (j, jp, c * (scale // e.den))
                for j, col in enumerate(e.columns)
                for jp, c in col.items()
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
                    column[src + j][position[dst + jp]] = c
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
                    col[row] = c
                if not rest:
                    break
                rest = (rest - 1) & others
        return scale

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
        """Σ_q (-1)^q ch H^q, summed straight into packed points: the table's
        weights are integral points of the rank already."""
        total: dict[int, int] = {}
        get, span = total.get, 0
        for q, table in enumerate(self.degrees):
            sign = (-1) ** q
            for wt, d in table.items():
                k = pack(wt)
                total[k] = get(k, 0) + sign * d
            span = max(span, max(map(abs, chain.from_iterable(table)), default=0))
        total = {k: m for k, m in total.items() if m}
        return LaurentCharacter._of(self.split.datum.rank, total, span)

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
        for wt, cols in cx.bases[q].items():
            h = len(cols) - out.get(wt, 0) - into.get(wt, 0)
            if h:
                degrees[q][wt] = h
    return CohomologyTable(cx.split, degrees)


def kostant_weights(datum: RootDatum, split: ParabolicSplit, lam) -> Iterator[list[Weight]]:
    """Kostant's highest weights, one list per degree q: w(lam+rho)-rho for
    each minimal coset representative w of length q, as
    sum_k (lam+rho)_k w(omega_k) - rho on the packed columns of
    `RootDatum.coset_walk`, one level at a time.  Every coordinate of w(y) is
    <y, beta^vee> for a coroot beta^vee, whose simple-coroot coefficients are
    at most 6, so lam+rho must sum to less than PACK_LIMIT / 6."""
    lam = tuple(map(_integral, lam))
    if len(lam) != datum.rank or not datum.is_dominant(lam):
        raise ValueError(f"weight {lam} is not a dominant weight of {datum.label}")
    shifted, rank, rho = _add(lam, datum.rho), datum.rank, pack(datum.rho)
    checked_span(6 * sum(shifted))
    for level in datum.coset_walk(sorted(split.levi)):
        yield [unpack(sum(map(mul, shifted, cols)) - rho, rank) for _, cols in level.values()]


def kostant_prediction(
    datum: RootDatum, split: ParabolicSplit, lam
) -> CohomologyTable:
    """Predicted cohomology (Kostant): in degree q, the Levi modules whose
    highest weights are the degree-q `kostant_weights`.  The running sum of
    the Levi dimensions is checked against LEVI_DIMENSION_BOUND at each level
    of the walk, before any module is computed.

    The weights of the Levi module F_mu are mu minus sums of Levi simple
    roots, and their multiplicities, like its Weyl dimension, read only the
    Levi part (mu_i for i in the Levi) of mu.  So there is one Freudenthal run
    per distinct Levi part, whose weights, less its highest weight, are
    shifted onto each mu with that part."""
    levi = sorted(split.levi)
    dims: dict[Weight, int] = {}  # Levi part -> Weyl dimension
    levels, work = [], 0
    for level in kostant_weights(datum, split, lam):
        levels.append(level)
        for mu in level:
            part = tuple(mu[i] for i in levi)
            if part not in dims:
                dims[part] = datum.weyl_dimension(mu, levi)
            work += dims[part]
        if work > LEVI_DIMENSION_BOUND:
            raise ValueError(
                f"the Levi modules have dimension at least {work} in all, more than "
                f"the limit LEVI_DIMENSION_BOUND = {LEVI_DIMENSION_BOUND}"
            )
    offsets: dict[Weight, list[tuple[Weight, int]]] = {}  # Levi part -> [(wt - mu, m)]
    degrees: list[dict[Weight, int]] = [{} for _ in range(len(split.n_roots) + 1)]
    for table, level in zip(degrees, levels):
        for mu in level:
            part = tuple(mu[i] for i in levi)
            if part not in offsets:
                mults = weight_multiplicities(datum, mu, levi)
                offsets[part] = [(_sub(wt, mu), m) for wt, m in mults.items()]
            for off, m in offsets[part]:
                wt = _add(mu, off)
                table[wt] = table.get(wt, 0) + m
    return CohomologyTable(split, degrees)


# ---------------------------------------------------------------------------
# Homology and duality


class ChainComplex(CEComplex):
    """Chains V ⊗ ∧^p n with the Koszul boundary, blockwise per h-weight."""

    step = -1


def homology_table(
    split: ParabolicSplit, mod: WeightModule, coh: CohomologyTable
) -> tuple[CohomologyTable, bool]:
    """Homology dimensions plus the duality flag: the graded character of H_p
    must equal that of H^{top-p} shifted by the ∧^top n weight.  `coh` is the
    cohomology table of (split, mod)."""
    chains = ChainComplex(split, mod)
    if not chains.verify_complex():
        raise InvariantError("boundary does not square to zero")
    hom = cohomology_table(chains)
    top_weight = (0,) * split.datum.rank
    for r in split.n_roots:
        top_weight = _add(top_weight, r)
    top = len(split.n_roots)
    holds = all(
        {_add(wt, top_weight): d for wt, d in coh.degrees[top - p].items()} == hom.degrees[p]
        for p in range(top + 1)
    )
    return hom, holds


def euler_identity_check(mod: WeightModule, table: CohomologyTable, roots) -> bool:
    """ch V · Π_{α in roots} (1 - x^α) = Σ_q (-1)^q ch of the table's degree
    q, exactly: with the roots of n negated for cohomology, and as they are
    for homology."""
    n_char = LaurentCharacter.from_weights(table.split.datum.rank, roots)
    return table.euler_character() == mod.character() * alternating_exterior_sum(n_char)


def euler_character_check(split: ParabolicSplit, mod: WeightModule, table: CohomologyTable) -> bool:
    """Σ_q (-1)^q ch H^q = ch V · Π_{α in n} (1 - x^{-α}), exactly; `table` is
    the cohomology table of (split, mod)."""
    return euler_identity_check(mod, table, map(_neg, split.n_roots))
