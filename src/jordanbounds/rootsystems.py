"""Root systems of the simple Dynkin types.

Provides the classification catalogue (dimension, rank, center of the
simply connected form), positive-root enumeration by reflection closure,
the Weyl dimension formula, and central characters of irreducible highest
weight representations.

Conventions.  Weights are written in fundamental-weight coordinates and
roots in simple-root coordinates.  The Cartan matrix C has entries
C[i][j] = 2(a_i, a_j)/(a_j, a_j) for simple roots a_i.  The center of the
simply connected group is the cokernel of C acting on integer column
vectors; with the Smith decomposition U*C*V = D, the character of the
highest weight representation L with weight w evaluates on the generator
of the i-th cyclic factor as (w^T V)_i / d_i mod 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

from .abelian import CenterSubgroup, FiniteAbelianGroup
from .caps import CapExceeded
from .smith import smith_normal_form

FAMILIES = "ABCDEFG"
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}

ROOT_SYSTEM_MAX_RANK = 64  # memory guard for reflection closure


@dataclass(frozen=True, order=True)
class SimpleType:
    """One of the simple Dynkin types A..G at an admissible rank.

    Low-rank coincidences (B2 = C2, A3 = D3, ...) are excluded by the rank
    constraints, so each isomorphism class appears exactly once.
    """

    family: str
    rank: int

    def __post_init__(self):
        fam, rank = self.family, self.rank
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        if fam in _MIN_RANK:
            if rank < _MIN_RANK[fam]:
                raise ValueError(f"{fam}{rank} is inadmissible: {fam} needs rank >= {_MIN_RANK[fam]}")
        elif fam == "E":
            if rank not in (6, 7, 8):
                raise ValueError(f"E{rank} is inadmissible: E exists for ranks 6, 7, 8")
        elif fam == "F" and rank != 4:
            raise ValueError(f"F{rank} is inadmissible: only F4 exists")
        elif fam == "G" and rank != 2:
            raise ValueError(f"G{rank} is inadmissible: only G2 exists")

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in FAMILIES or not text[1:].isdigit():
            raise ValueError(f"cannot parse simple type {text!r}; expected e.g. 'A1', 'D4', 'E8'")
        return cls(text[0].upper(), int(text[1:]))

    @property
    def dim(self) -> int:
        l = self.rank
        if self.family == "A":
            return l * (l + 2)
        if self.family in "BC":
            return l * (2 * l + 1)
        if self.family == "D":
            return l * (2 * l - 1)
        if self.family == "E":
            return {6: 78, 7: 133, 8: 248}[l]
        return 52 if self.family == "F" else 14

    @property
    def center_factors(self) -> Tuple[int, ...]:
        """Invariant factors of the center of the simply connected form."""
        l = self.rank
        if self.family == "A":
            return (l + 1,)
        if self.family in "BC":
            return (2,)
        if self.family == "D":
            return (2, 2) if l % 2 == 0 else (4,)
        if self.family == "E":
            return {6: (3,), 7: (2,), 8: ()}[l]
        return ()

    def __str__(self):
        return f"{self.family}{self.rank}"


class CatalogEntry(Tuple[int, int, FiniteAbelianGroup]):
    """(dim, rank, center) row of the classification table."""

    __slots__ = ()

    def __new__(cls, dim: int, rank: int, center: FiniteAbelianGroup):
        return super().__new__(cls, (dim, rank, center))

    dim = property(lambda self: self[0])
    rank = property(lambda self: self[1])
    center = property(lambda self: self[2])


def catalog_entry(simple_type: SimpleType) -> CatalogEntry:
    """Dimension, rank and simply connected center of one simple type."""
    return CatalogEntry(simple_type.dim, simple_type.rank,
                        FiniteAbelianGroup(simple_type.center_factors))


def admissible_types(max_rank: int) -> List[SimpleType]:
    """All admissible simple types of rank at most max_rank, sorted."""
    out = []
    for fam, lo in _MIN_RANK.items():
        out.extend(SimpleType(fam, r) for r in range(lo, max_rank + 1))
    out.extend(SimpleType("E", r) for r in (6, 7, 8) if r <= max_rank)
    if max_rank >= 4:
        out.append(SimpleType("F", 4))
    if max_rank >= 2:
        out.append(SimpleType("G", 2))
    return sorted(out)


@dataclass(frozen=True)
class DominantWeight:
    """Non-negative coordinates in the fundamental-weight basis."""

    coords: Tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", cs)
        if any(c < 0 for c in cs):
            raise ValueError(f"dominant weight needs non-negative coordinates: {cs}")

    @classmethod
    def parse(cls, text: str) -> "DominantWeight":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"weight must look like '[1,0,0]', got {text!r}")
        body = text[1:-1].strip()
        coords = tuple(int(p) for p in body.split(",")) if body else ()
        return cls(coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self):
        return "[" + ",".join(map(str, self.coords)) + "]"


def cartan_matrix(simple_type: SimpleType) -> List[List[int]]:
    fam, n = simple_type.family, simple_type.rank
    A = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def edge(i, j, a=-1, b=-1):
        A[i][j] = a
        A[j][i] = b

    if fam in "ABC":
        for i in range(n - 1):
            edge(i, i + 1)
        if fam == "B":
            A[n - 2][n - 1] = -2  # last simple root short
        elif fam == "C":
            A[n - 1][n - 2] = -2  # last simple root long
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        A[n - 2][n - 1] = A[n - 1][n - 2] = 0
        edge(n - 3, n - 1)
    elif fam == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif fam == "F":
        edge(0, 1)
        edge(2, 3)
        A[1][2] = -2
        A[2][1] = -1
    else:  # G2, first simple root short
        A[0][1] = -1
        A[1][0] = -3
    return A


def _symmetrizer(A: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Integers d_i with d_i ~ (a_i, a_i) making diag(d)-weighted C symmetric."""
    n = len(A)
    d: List[Fraction] = [Fraction(0)] * n
    d[0] = Fraction(1)
    todo = True
    while todo:
        todo = False
        for i in range(n):
            for j in range(n):
                if i != j and A[i][j] and d[i] and not d[j]:
                    d[j] = d[i] * A[j][i] / A[i][j]
                    todo = True
    denom = math.lcm(*[x.denominator for x in d])
    ints = [int(x * denom) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


class RootSystem:
    """Positive roots and weight machinery of one simple type."""

    def __init__(self, simple_type: SimpleType):
        if simple_type.rank > ROOT_SYSTEM_MAX_RANK:
            raise CapExceeded("root system rank", ROOT_SYSTEM_MAX_RANK,
                              observed=simple_type.rank, module="root-systems")
        self.type = simple_type
        self.rank = simple_type.rank
        self.cartan = cartan_matrix(simple_type)
        self.sym = _symmetrizer(self.cartan)
        self.positive_roots = self._closure()
        self.rho = tuple(1 for _ in range(self.rank))
        expected = (simple_type.dim - self.rank) // 2
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"{simple_type}: reflection closure found {len(self.positive_roots)} "
                f"positive roots, table demands {expected}")
        # per-root data for the dimension formula: (weighted coords, height)
        self._root_weights = []
        self._rho_product = 1
        for root in self.positive_roots:
            wc = tuple(c * d for c, d in zip(root, self.sym))
            h = sum(wc)
            self._root_weights.append((wc, h))
            self._rho_product *= h
        D, U, V = smith_normal_form(self.cartan)
        self._snf_diag = tuple(D[i][i] for i in range(self.rank))
        self._snf_V = V
        center = tuple(d for d in self._snf_diag if d > 1)
        if center != simple_type.center_factors:
            raise AssertionError(
                f"{simple_type}: Cartan cokernel {center} disagrees with the "
                f"classification table {simple_type.center_factors}")
        self.center = FiniteAbelianGroup(center)

    def _closure(self) -> List[Tuple[int, ...]]:
        n = self.rank
        A = self.cartan
        simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            new = []
            for beta in frontier:
                for i in range(n):
                    pairing = sum(beta[j] * A[j][i] for j in range(n))
                    refl = beta[:i] + (beta[i] - pairing,) + beta[i + 1:]
                    if refl not in seen:
                        seen.add(refl)
                        new.append(refl)
            frontier = new
        pos = [r for r in seen if all(c >= 0 for c in r)]
        if 2 * len(pos) != len(seen):
            raise AssertionError(f"{self.type}: root sign split failed")
        pos.sort(key=lambda r: (sum(r), r))
        return pos

    # -- weights -----------------------------------------------------------

    def fundamental_coords_of_root(self, root: Sequence[int]) -> Tuple[int, ...]:
        A = self.cartan
        n = self.rank
        return tuple(sum(root[j] * A[j][i] for j in range(n)) for i in range(n))

    @property
    def highest_root(self) -> Tuple[int, ...]:
        return self.positive_roots[-1]

    @property
    def adjoint_weight(self) -> DominantWeight:
        return DominantWeight(self.fundamental_coords_of_root(self.highest_root))

    def weyl_dim(self, weight: DominantWeight) -> int:
        """Dimension of the irreducible representation with this highest weight."""
        if len(weight.coords) != self.rank:
            raise ValueError(f"weight has {len(weight.coords)} coordinates, rank is {self.rank}")
        num = 1
        for wc, h in self._root_weights:
            num *= h + sum(w * m for w, m in zip(wc, weight.coords))
        dim, rem = divmod(num, self._rho_product)
        if rem:
            raise AssertionError("Weyl dimension did not come out integral")
        return dim

    def character_values(self, weight: DominantWeight) -> Tuple[Fraction, ...]:
        """Central character on the canonical generators of the center.

        One value in Q/Z (represented in [0,1)) per invariant factor.
        """
        if len(weight.coords) != self.rank:
            raise ValueError(f"weight has {len(weight.coords)} coordinates, rank is {self.rank}")
        V = self._snf_V
        vals = []
        for i in range(self.rank):
            if self._snf_diag[i] <= 1:
                continue
            coeff = sum(weight.coords[j] * V[j][i] for j in range(self.rank))
            vals.append(Fraction(coeff, self._snf_diag[i]) % 1)
        return tuple(vals)

    def weights_up_to(self, max_dim: int) -> List[Tuple[Tuple[int, ...], int, Tuple[Fraction, ...]]]:
        """All dominant weights of representation dimension <= max_dim.

        Returns (coords, dim, character values), sorted by (dim, coords).
        The Weyl dimension is strictly increasing in every coordinate, so the
        search box prunes itself.
        """
        found = []
        stack = [((0,) * self.rank, 0)]
        while stack:
            coords, start = stack.pop()
            w = DominantWeight(coords)
            d = self.weyl_dim(w)
            if d > max_dim:
                continue
            found.append((coords, d, self.character_values(w)))
            for j in range(start, self.rank):
                stack.append((coords[:j] + (coords[j] + 1,) + coords[j + 1:], j))
        return sorted(found, key=lambda t: (t[1], t[0]))

    def cheapest_per_character(self) -> List[Tuple[Tuple[int, ...], int, Tuple[Fraction, ...]]]:
        """The zero weight and the cheapest nonzero dominant weight of each
        central character: |Z| + 1 rows in weights_up_to's order, found by
        doubling a budget from 2 until every character has appeared."""
        budget = 2
        while True:
            best = {}
            for coords, d, chars in self.weights_up_to(budget):
                best.setdefault((any(coords), chars), (coords, d, chars))
            if len(best) == self.center.order + 1:
                return list(best.values())
            budget *= 2


@lru_cache(maxsize=None)
def build_root_system(simple_type: SimpleType) -> RootSystem:
    return RootSystem(simple_type)


def weyl_dim(simple_type: SimpleType, weight: DominantWeight) -> int:
    return build_root_system(simple_type).weyl_dim(weight)


@dataclass(frozen=True)
class CentralCharacter:
    """A homomorphism from the (finite) center to Q/Z."""

    center: FiniteAbelianGroup
    values: Tuple[Fraction, ...]  # on the canonical generators, in [0,1)

    def __call__(self, element: Tuple[int, ...]) -> Fraction:
        if len(element) != len(self.center.factors):
            raise ValueError("element has the wrong number of coordinates")
        return sum((Fraction(z) * v for z, v in zip(element, self.values)),
                   Fraction(0)) % 1

    @property
    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values)

    def kernel(self) -> CenterSubgroup:
        elems = frozenset(z for z in self.center.elements() if self(z) == 0)
        return CenterSubgroup(self.center.factors, elems)


def central_character(simple_type: SimpleType, weight: DominantWeight) -> CentralCharacter:
    """Action of the center on the irreducible representation of the weight."""
    rs = build_root_system(simple_type)
    return CentralCharacter(rs.center, rs.character_values(weight))


def irrep_kernel_on_center(simple_type: SimpleType, weight: DominantWeight) -> CenterSubgroup:
    """Central kernel of a nontrivial irreducible representation."""
    if weight.is_zero:
        raise ValueError("the trivial representation has the whole center as kernel; "
                         "a nonzero weight is required")
    return central_character(simple_type, weight).kernel()
