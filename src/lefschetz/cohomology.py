"""Chevalley-Eilenberg cohomology of the nilradical, graded by Cartan weight.

Cochains C^q = V ⊗ ∧^q n* and chains C_p = V ⊗ ∧^p n come from one Koszul
builder as sparse integer blocks per h-weight, which the maps preserve.
d² = 0 is checked on every entry, and each block is ranked once, by
fraction-free elimination, for both degrees it joins.  An independent
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

from .algebra import ParabolicSplit, WeightModule, _add, _neg, _sub
from .exact import InvariantError, LaurentCharacter, SparseMatrix, Weight
from .exact import alternating_exterior_sum, flat, pairs
from .roots import RootDatum


# ---------------------------------------------------------------------------
# Weight multiplicities via Freudenthal's recursion (independent oracle)


def weight_multiplicities(datum: RootDatum, lam, levi=None, form=None) -> dict[Weight, int]:
    """Weight multiplicities of the irreducible module with highest weight lam
    for the (sub)system spanned by the `levi` simple roots (default: all),
    computed by Freudenthal's recursion in integers.  `form` is
    `datum.levi_form(levi)`, computed here if not given."""
    levi = sorted(set(range(datum.rank) if levi is None else levi))
    lam = tuple(int(c) for c in lam)
    if any(lam[i] < 0 for i in levi):
        raise ValueError(f"weight {lam} is not dominant for the subsystem")
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


# ---------------------------------------------------------------------------
# The Chevalley-Eilenberg complex

# Largest complex built, in cochains dim V * 2^|n|; the build keeps about
# 0.4 KiB per cochain (Python-level peak, measured at 4096 cochains), so this
# bounds it near 100 MB.  The largest complex in the tests has 4096 cochains.
MAX_COCHAINS = 1 << 18


def _mask(subset: tuple[int, ...]) -> int:
    return sum(1 << k for k in subset)


class CEComplex:
    """Koszul complex of V ⊗ ∧ n, stored as sparse integer blocks per h-weight.

    Degree q has the labels (module index j, sorted q-subset S of n-root
    indices).  As cochains (`step` = +1) a label has weight wt_j - Σ_S α and
    d_q adds a root factor; as chains (`ChainComplex`, `step` = -1) it has
    weight wt_j + Σ_S α and ∂_q removes one.  Between subsets small ⊂ big both
    maps have the terms (-1)^pos(k, big) e_k for big = small ∪ {k}, and
    (-1)^(pos(g, small) + pos(a, big) + pos(b, big)) N, negated for chains,
    for small = R ∪ {g}, big = R ∪ {a, b} and [e_a, e_b] = N e_g.

    `differentials[q]` maps degree q to degree q + step.  Its blocks are the
    map times `scale`, the lcm of the denominators of the e_k: integral, and
    with the ranks and zero composites of the map itself.
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
        # bases[q]: weight -> list of (module index, sorted tuple of root indices)
        self.bases: list[dict[Weight, list[tuple[int, tuple[int, ...]]]]] = []
        # label key mask * dim + j (mask: the subset as bits) -> the number of
        # its weight block within its degree, and its position in that block
        block = [0] * (dim << top)
        position = [0] * (dim << top)
        factor = [_neg(r) if self.step > 0 else r for r in self.n_roots]
        shifts = {0: (0,) * len(mod.highest_weight)}  # mask -> weight of its factors
        for q in range(top + 1):
            blocks: dict[Weight, list] = {}
            ids: dict[Weight, int] = {}
            prev, shifts = shifts, {}  # the masks of degrees q - 1 and q
            for subset in combinations(range(top), q):
                mask = _mask(subset)
                if subset:  # prev holds the subset without its first root
                    shifts[mask] = _add(prev[mask & (mask - 1)], factor[subset[0]])
                else:
                    shifts[mask] = prev[0]
                shift = shifts[mask]
                for j, wt in enumerate(mod.basis_weights):
                    wt = _add(wt, shift)
                    labels = blocks.setdefault(wt, [])
                    block[mask * dim + j] = ids.setdefault(wt, len(ids))
                    position[mask * dim + j] = len(labels)
                    labels.append((j, subset))
            self.bases.append(blocks)
        # each e_k read once, as sparse integer columns act[k][j] = [(j', entry)]
        actions = [mod.action[("e", r)].columns for r in self.n_roots]
        entries = [c for cols in actions for col in cols for _, c in pairs(col)]
        self.scale = lcm(*{c.denominator for c in entries})
        act = [
            [[(jp, int(c * self.scale)) for jp, c in pairs(col)] for col in cols]
            for cols in actions
        ]
        # brackets[g]: (a, b, N) with a < b and [e_a, e_b] = N e_g, N != 0
        sc = split.algebra.constants
        n_index = {r: k for k, r in enumerate(self.n_roots)}
        brackets: list[list[tuple[int, int, int]]] = [[] for _ in range(top)]
        for a, b in combinations(range(top), 2):
            g = n_index.get(_add(self.n_roots[a], self.n_roots[b]))
            nval = sc.n(self.n_roots[a], self.n_roots[b]) if g is not None else 0
            if nval:
                brackets[g].append((a, b, nval))
        self.differentials: list[dict[Weight, SparseMatrix]] = [
            self._differential(q, block, position, act, brackets)
            for q in range(top + 1)
        ]

    def cochain_dimension(self, q: int) -> int:
        if not 0 <= q <= self.top:
            return 0
        return sum(len(v) for v in self.bases[q].values())

    def _differential(
        self, q, block, position, act, brackets
    ) -> dict[Weight, SparseMatrix]:
        """Blocks of the map from degree q to degree q + step."""
        s = min(q, q + self.step)  # the degree of the smaller subsets
        if not 0 <= s < self.top:
            return {}
        dim = self.module.dimension
        src_weights, dst_weights = list(self.bases[q]), list(self.bases[q + self.step])
        cols = [[{} for _ in labels] for labels in self.bases[q].values()]

        def add(small, big, j, jp, c):
            src, dst = (small, big) if self.step > 0 else (big, small)
            src, dst = src * dim + j, dst * dim + jp
            if dst_weights[block[dst]] != src_weights[block[src]]:
                raise InvariantError("the map does not preserve the weight")
            entries = cols[block[src]][position[src]]
            v = entries.pop(position[dst], 0) + c
            if v:
                entries[position[dst]] = v

        def sign(k, mask):
            return -1 if (mask & ((1 << k) - 1)).bit_count() & 1 else 1

        for big in map(_mask, combinations(range(self.top), s + 1)):
            for k in range(self.top):
                if not big >> k & 1:
                    continue
                for j, col in enumerate(act[k]):
                    for jp, c in col:
                        add(big ^ (1 << k), big, j, jp, sign(k, big) * c)
        for small in map(_mask, combinations(range(self.top), s)):
            for g in range(self.top):
                if not small >> g & 1:
                    continue
                rest = small ^ (1 << g)
                for a, b, nval in brackets[g]:
                    if rest & (1 << a | 1 << b):
                        continue
                    big = rest | (1 << a) | (1 << b)
                    c = sign(g, small) * sign(a, big) * sign(b, big) * nval
                    for j in range(dim):
                        add(small, big, j, j, c * self.step * self.scale)
        return {
            wt: SparseMatrix(len(self.bases[q + self.step].get(wt, ())), list(map(flat, c)))
            for wt, c in zip(src_weights, cols)
        }

    def verify_complex(self) -> bool:
        """Every entry of each map composed with the next is exactly zero."""
        for q, blocks in enumerate(self.differentials):
            if not 0 <= q + self.step <= self.top:
                continue
            for wt, d0 in blocks.items():
                d1 = self.differentials[q + self.step].get(wt)
                if d1 is not None and not (d1 @ d0).is_zero():
                    return False
        return True

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
        rank = self.split.datum.rank
        total = LaurentCharacter.zero(rank)
        for q, table in enumerate(self.degrees):
            ch = LaurentCharacter(rank, dict(table))
            total = total + ch if q % 2 == 0 else total - ch
        return total

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
    every block is ranked once, and its rank serves both degrees it joins."""
    ranks = [{wt: d.rank() for wt, d in blocks.items()} for blocks in cx.differentials]
    degrees: list[dict[Weight, int]] = []
    for q, blocks in enumerate(cx.bases):
        prev = q - cx.step
        into = ranks[prev] if 0 <= prev <= cx.top else {}
        table: dict[Weight, int] = {}
        for wt, labels in blocks.items():
            h = len(labels) - ranks[q].get(wt, 0) - into.get(wt, 0)
            if h:
                table[wt] = h
        degrees.append(table)
    return CohomologyTable(cx.split, degrees)


def kostant_prediction(
    datum: RootDatum, split: ParabolicSplit, lam
) -> CohomologyTable:
    """Predicted cohomology (Kostant): for each minimal coset representative
    w of length q, the Levi module with highest weight w(lam+rho)-rho; the
    representatives are the integer columns of `RootDatum.coset_walk`."""
    lam = tuple(int(c) for c in lam)
    if not datum.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    levi = sorted(split.levi)
    form = datum.levi_form(levi)
    shifted = _add(lam, datum.rho)
    degrees: list[dict[Weight, int]] = [{} for _ in range(len(split.n_roots) + 1)]
    for table, level in zip(degrees, datum.coset_walk(levi)):
        for _, cols in level.values():
            mu = tuple(sum(map(mul, shifted, row)) - 1 for row in zip(*cols))
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
