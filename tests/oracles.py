"""Independent brute-force oracles the implementation is checked against.

Everything here prefers exhaustive enumeration and direct definition checks
over the pruned searches used by the package.
"""

import functools
import heapq
import itertools
import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from jordanbounds import abelian
from jordanbounds.caps import CapExceeded
from jordanbounds.enumeration import IsogenyClass, SemisimpleType
from jordanbounds.permgroups import Images, PermGroup, Permutation, _compose, jordan_index
from jordanbounds.rootsystems import DominantWeight, build_root_system


# Tuple arithmetic on a product of cyclic groups: the reference for the
# package's element codes and subgroup masks.


def zero_of(moduli):
    return tuple(0 for _ in moduli)


def elements_of(moduli):
    """Every element, in lexicographic order: the i-th one has code i."""
    return itertools.product(*[range(m) for m in moduli])


def add_mod(a, b, moduli):
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def element_order(a, moduli) -> int:
    out = 1
    for x, m in zip(a, moduli):
        if x:
            out = math.lcm(out, m // math.gcd(x, m))
    return out


def decode(mask: int, moduli) -> FrozenSet:
    """The elements of a subgroup mask: bit i is the i-th element of
    elements_of(moduli)."""
    return frozenset(e for i, e in enumerate(elements_of(moduli)) if mask >> i & 1)


def exhaustive_min_faithful(cls: IsogenyClass, cap: int) -> int:
    """Minimal faithful dimension by enumerating every multiset of summands
    of total dimension <= cap and testing the definition directly.

    Returns the minimum, or None when no faithful multiset exists below the
    cap.  Summands with all factors trivial are skipped (they never affect
    faithfulness and would make the multiset count infinite).
    """
    base = cls.base
    systems = [build_root_system(f) for f in base.factors]
    if not systems:
        return 0
    moduli = base.center_moduli
    cells = sorted(elements_of(moduli))
    kernel = decode(cls.kernel, moduli)

    # every dominant weight of every factor with dimension <= cap, by a
    # plain grid walk (a coordinate bump never shrinks the dimension)
    per_factor = []
    for rs in systems:
        weights = []

        def walk(coords, start):
            w = DominantWeight(tuple(coords))
            d = rs.weyl_dim(w)
            if d > cap:
                return
            weights.append((tuple(coords), d))
            for j in range(start, rs.rank):
                coords[j] += 1
                walk(coords, j)
                coords[j] -= 1

        walk([0] * rs.rank, 0)
        per_factor.append(sorted(set(weights)))

    # all summands: one weight per factor, dimension product <= cap
    summands = []

    def build(fi, chosen, dim):
        if fi == len(systems):
            if all(all(c == 0 for c in w) for w, _ in chosen):
                return
            # character of the summand on every center element
            values = []
            for z in cells:
                tot = Fraction(0)
                at = 0
                for (w, _), rs in zip(chosen, systems):
                    k = len(rs.center.factors)
                    vals = rs.character_values(DominantWeight(w))
                    tot += sum((Fraction(zi) * v for zi, v in zip(z[at:at + k], vals)),
                               Fraction(0))
                    at += k
                values.append(tot % 1)
            summands.append((dim, tuple(w for w, _ in chosen), tuple(values)))
            return
        for w, d in per_factor[fi]:
            nd = dim * d
            if nd <= cap:
                build(fi + 1, chosen + [(w, d)], nd)

    build(0, [], 1)
    summands.sort()

    best = None

    def faithful(multiset) -> bool:
        for f in range(len(systems)):
            if not any(any(c for c in s[1][f]) for s in multiset):
                return False
        for s in multiset:
            for zi, z in enumerate(cells):
                if z in kernel and s[2][zi] != 0:
                    return False
        joint = {z for zi, z in enumerate(cells)
                 if all(s[2][zi] == 0 for s in multiset)}
        return joint == set(kernel)

    def enumerate_multisets(start, total, chosen):
        nonlocal best
        if chosen and faithful(chosen):
            if best is None or total < best:
                best = total
        for j in range(start, len(summands)):
            d = summands[j][0]
            if total + d > cap:
                break
            enumerate_multisets(j, total + d, chosen + [summands[j]])

    enumerate_multisets(0, 0, [])
    return best


def reference_min_faithful(cls: IsogenyClass, search_dim: int) -> int:
    """Minimal faithful dimension by one pruned depth-first search per
    kernel: keep the summands whose zero set contains the kernel, drop the
    dominated ones, and search multisets within budgets 2, 4, 8, ..."""
    base = cls.base
    nf = len(base.factors)
    if nf == 0:
        return 0
    moduli = base.center_moduli
    cells = sorted(elements_of(moduli))
    index_of = {z: i for i, z in enumerate(cells)}
    full_mask = (1 << len(cells)) - 1
    kernel_mask = 0
    for z in decode(cls.kernel, moduli):
        kernel_mask |= 1 << index_of[z]
    target_cov = (1 << nf) - 1

    budget = 2
    while True:
        budget = min(budget, search_dim)
        pool = reference_summand_pool(base, budget)
        # admissible for this kernel: the character vanishes on all of it,
        # i.e. the kernel sits inside the summand's zero set
        summands = [(d, cov, zmask) for d, cov, zmask in pool
                    if kernel_mask & ~zmask == 0]
        summands = _prune_dominated(summands)
        best = _search_min_total(summands, target_cov, kernel_mask, full_mask, budget)
        if best is not None:
            return best
        if budget >= search_dim:
            raise CapExceeded("faithful search dimension", search_dim,
                              module="semisimple-enumeration")
        budget *= 2


@functools.lru_cache(maxsize=None)
def reference_summand_pool(base: SemisimpleType, budget: int) -> List[Tuple[int, int, int]]:
    """The summand pool built from every dominant weight of every factor
    within the budget: (dimension, factor-coverage mask, zero-set mask),
    collapsed to the cheapest dimension per pair of masks, sorted.  Cached
    because reference_min_faithful asks for it once per kernel."""
    systems = [build_root_system(f) for f in base.factors]
    nf = len(systems)
    moduli = base.center_moduli
    cells = sorted(elements_of(moduli))
    ncells = len(cells)
    denom = math.lcm(1, *moduli)
    blocks = base.center_blocks

    # character contribution of one factor weight on every center element
    per: List[List[Tuple[int, int, Tuple[int, ...]]]] = []
    for fi, rs in enumerate(systems):
        lo, hi = blocks[fi]
        rows = []
        for coords, wdim, chars in rs.weights_up_to(budget):
            ints = [int(c * denom) % denom for c in chars]
            contrib = tuple(sum(zi * ci for zi, ci in zip(z[lo:hi], ints)) % denom
                            for z in cells)
            rows.append((wdim, 1 if any(coords) else 0, contrib))
        per.append(rows)

    cheapest: Dict[Tuple[int, int], int] = {}

    def build(fi: int, dimprod: int, vals: Tuple[int, ...], cov: int):
        if fi == nf:
            if cov == 0:
                return
            zmask = 0
            for idx in range(ncells):
                if vals[idx] % denom == 0:
                    zmask |= 1 << idx
            k = (cov, zmask)
            if k not in cheapest or dimprod < cheapest[k]:
                cheapest[k] = dimprod
            return
        for wdim, nz, contrib in per[fi]:
            ndim = dimprod * wdim
            if ndim > budget:
                break  # weights sorted by dimension
            build(fi + 1, ndim,
                  tuple(v + c for v, c in zip(vals, contrib)),
                  cov | (nz << fi))

    build(0, 1, (0,) * ncells, 0)
    return sorted((d, cov, zmask) for (cov, zmask), d in cheapest.items())


def reference_faithful_dims(base: SemisimpleType, budget: int) -> Dict[int, int]:
    """Minimal faithful dimension per kernel mask of one form, by Dijkstra
    over every summand of reference_summand_pool(base, budget), none of them
    pruned.  Exact for each kernel whose value is at most the budget: a
    multiset of that total holds no summand above it."""
    full = (1 << math.prod(base.center_moduli)) - 1
    target = (1 << len(base.factors)) - 1
    pool = reference_summand_pool(base, budget)
    dist = {(0, full): 0}
    heap = [(0, 0, full)]
    while heap:
        d, cov, ker = heapq.heappop(heap)
        if dist[cov, ker] < d:
            continue
        for sd, scov, szero in pool:
            state = (cov | scov, ker & szero)
            if d + sd < dist.get(state, d + sd + 1):
                dist[state] = d + sd
                heapq.heappush(heap, (d + sd, *state))
    return {ker: d for (cov, ker), d in dist.items() if cov == target}


def _prune_dominated(summands: List[Tuple[int, int, int]]) -> List[Tuple[int, int, int]]:
    """Drop summands beaten in dimension, coverage and zero set at once;
    they can never appear in a minimal faithful multiset."""
    kept: List[Tuple[int, int, int]] = []
    for d, cov, mask in summands:
        if any(d2 <= d and cov2 | cov == cov2 and mask2 & mask == mask2
               for d2, cov2, mask2 in kept):
            continue
        kept.append((d, cov, mask))
    return kept


def _search_min_total(summands, target_cov, kernel_mask, full_mask, budget) -> Optional[int]:
    best: List[Optional[int]] = [None]

    def dfs(start: int, total: int, cov: int, ker: int):
        if cov == target_cov and ker == kernel_mask:
            if best[0] is None or total < best[0]:
                best[0] = total
            return
        for j in range(start, len(summands)):
            d, cj, kj = summands[j]
            if total + d > budget:
                break
            if best[0] is not None and total + d >= best[0]:
                break
            if cov | cj == cov and ker & kj == ker:
                continue  # adds nothing now, hence nothing later
            dfs(j + 1, total + d, cov | cj, ker & kj)

    dfs(0, 0, 0, full_mask)
    return best[0]


def _cyclic_subgroup(images: Images, degree: int) -> FrozenSet[Images]:
    identity = tuple(range(degree))
    out = {identity}
    x = images
    while x != identity:
        out.add(x)
        x = _compose(x, images)
    return frozenset(out)


def _join(a: FrozenSet[Images], b: FrozenSet[Images], degree: int) -> FrozenSet[Images]:
    gens = list(a | b)
    identity = tuple(range(degree))
    elems = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                x = _compose(e, g)
                if x not in elems:
                    elems.add(x)
                    new.append(x)
        frontier = new
    return frozenset(elems)


def reference_subgroups(group: PermGroup) -> List[PermGroup]:
    """All subgroups, smallest first: cyclic subgroups closed under pairwise
    joins, each carrying the small generating set it was joined from."""
    degree = group.degree
    gens_of = {}
    for g in sorted(group.elements):
        gens_of.setdefault(_cyclic_subgroup(g, degree), frozenset([g]))
    frontier = list(gens_of)
    while frontier:
        new = []
        for a in frontier:
            for b in list(gens_of):
                if a <= b or b <= a:
                    continue  # nested: the join is the larger one
                joined = _join(gens_of[a], gens_of[b], degree)
                if joined not in gens_of:
                    gens_of[joined] = gens_of[a] | gens_of[b]
                    new.append(joined)
        frontier = new
    subs = sorted(gens_of, key=lambda s: (len(s), sorted(s)))
    return [PermGroup(degree, tuple(Permutation(g) for g in sorted(gens_of[s])), s)
            for s in subs]


def reference_jordan_constant(group: PermGroup) -> int:
    """Smallest Jordan constant by its definition: the largest Jordan index
    over all subgroups."""
    return max(jordan_index(sub) for sub in reference_subgroups(group))


def commuting_closure_max_abelian(group: PermGroup) -> int:
    """Largest abelian subgroup by joining pairwise-commuting subgroups."""
    degree = group.degree

    def is_abelian(elems) -> bool:
        elems = list(elems)
        return all(_compose(a, b) == _compose(b, a)
                   for i, a in enumerate(elems) for b in elems[i + 1:])

    abelians = {_cyclic_subgroup(g, degree) for g in group.elements}
    frontier = list(abelians)
    while frontier:
        new = []
        for a in frontier:
            for b in list(abelians):
                if all(_compose(x, y) == _compose(y, x) for x in a for y in b):
                    joined = _join(a, b, degree)
                    if joined not in abelians and is_abelian(joined):
                        abelians.add(joined)
                        new.append(joined)
        frontier = new
    return max(len(a) for a in abelians)


def brute_force_subgroup_count(moduli) -> int:
    """Count subgroups of a small abelian group by scanning all subsets."""
    elements = sorted(elements_of(moduli))
    order = len(elements)
    assert order <= 16, "subset scan only meant for tiny groups"
    count = 0
    zero = zero_of(moduli)
    rest = [e for e in elements if e != zero]
    for mask in range(1 << len(rest)):
        subset = {zero} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        if all(add_mod(a, b, moduli) in subset for a in subset for b in subset):
            count += 1
    return count


def reference_subgroup_closure(gens, moduli) -> FrozenSet:
    """Subgroup generated by gens, by adding every generator to every new
    element until nothing new appears."""
    zero = zero_of(moduli)
    elems = {zero}
    frontier = [zero]
    gens = list(gens)
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                x = add_mod(e, g, moduli)
                if x not in elems:
                    elems.add(x)
                    new.append(x)
        frontier = new
    return frozenset(elems)


def reference_quotient_invariants(moduli, sub):
    """Invariant factors of (product of Z_m) / sub, sub an element set, from
    one representative per coset (its smallest element) and that coset's
    order."""
    full = math.prod(moduli)
    if full % len(sub):
        raise ValueError("subgroup order does not divide group order")
    orders = []
    seen = set()
    for x in elements_of(moduli):
        rep = min(add_mod(x, s, moduli) for s in sub)
        if rep in seen:
            continue
        seen.add(rep)
        k = 1
        acc = x
        while acc not in sub:
            acc = add_mod(acc, x, moduli)
            k += 1
        orders.append(k)
    return abelian.invariants_from_orders(orders)


def reference_gl_floor(n: int, value: int) -> bool:
    """Whether value < (1 + sqrt(8n))^(2n^2) <= value + 1, for n >= 1.

    The power is expanded as A + B*sqrt(8n) by square-and-multiply in
    Z[sqrt(8n)]; the two inequalities on B*sqrt(8n) are then decided by
    comparing integer squares, with no square root taken.
    """
    r = 8 * n
    a, b = 1, 0
    for bit in bin(2 * n * n)[2:]:  # left to right: square, then maybe times 1 + sqrt(r)
        a, b = a * a + b * b * r, 2 * a * b
        if bit == "1":
            a, b = a + b * r, a + b
    d = value - a  # the claim is d < B*sqrt(r) <= d + 1
    b2r = b * b * r
    below = d < 0 or d * d < b2r
    reached = d + 1 >= 0 and b2r <= (d + 1) * (d + 1)
    return below and reached
