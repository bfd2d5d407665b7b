"""Permutations on {0..n-1} and exhaustively tabulated finite permutation groups.

Everything here is immutable after construction and safe to share between
threads. Groups keep the complete element list in a canonical (lexicographic)
order, so every identifier derived from element indices is deterministic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InputError, SizeError

DEFAULT_ELEMENT_CAP = 10_000

# Full multiplication tables are quadratic in the group order; refuse to
# materialize one past this order (lattice work never needs groups that big).
MUL_TABLE_LIMIT = 4_096


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection on {0..n-1}; slot i of `images` holds the image of point i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 1:
            raise InputError("permutation degree must be >= 1")
        if sorted(self.images) != list(range(n)):
            raise InputError(f"images {self.images!r} are not a bijection on 0..{n - 1}")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        """Build a permutation from disjoint cycles of 0-based points."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            for point in cycle:
                if not 0 <= point < degree:
                    raise InputError(f"point {point} out of range for degree {degree}")
                if point in seen:
                    raise InputError(f"point {point} appears in two cycles")
                seen.add(point)
            for i, point in enumerate(cycle):
                images[point] = cycle[(i + 1) % len(cycle)]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted by that point."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            cur = self.images[start]
            while cur != start:
                cycle.append(cur)
                seen.add(cur)
                cur = self.images[cur]
            out.append(tuple(cycle))
        return out

    def to_cycle_string(self) -> str:
        """1-based cycle notation, e.g. "(1,2)(3,4)"; the identity prints as "()"."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation[{self.to_cycle_string()}]"


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Composition a after b: the result maps i to a(b(i))."""
    if a.degree != b.degree:
        raise InputError(f"degree mismatch: {a.degree} vs {b.degree}")
    bi = b.images
    ai = a.images
    return Permutation(tuple(ai[bi[i]] for i in range(len(ai))))


def element_order(g: Permutation) -> int:
    """Least k >= 1 with g^k = identity (lcm of cycle lengths)."""
    order = 1
    for cycle in g.cycles():
        order = math.lcm(order, len(cycle))
    return order


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like "(1,2)(3,4)" into a permutation."""
    stripped = text.replace(" ", "")
    if not re.fullmatch(r"(\([\d,]*\))*", stripped):
        raise InputError(f"cannot parse cycle notation: {text!r}")
    cycles: list[list[int]] = []
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            continue
        try:
            points = [int(tok) - 1 for tok in body.split(",")]
        except ValueError:
            raise InputError(f"bad cycle {body!r} in {text!r}") from None
        if any(p < 0 for p in points):
            raise InputError(f"points are 1-based; got {body!r}")
        cycles.append(points)
    return Permutation.from_cycles(cycles, degree)


def parse_generators(text: str, degree: int) -> list[Permutation]:
    """Parse a ';'-separated list of cycle-notation generators."""
    text = text.strip()
    if not text:
        return []
    return [parse_permutation(part, degree) for part in text.split(";")]


def format_generators(gens: Iterable[Permutation]) -> str:
    return ";".join(g.to_cycle_string() for g in gens)


class FiniteGroup:
    """A finite permutation group stored as its complete, canonically sorted element list.

    The element order (lexicographic on image tuples) fixes the element index
    of every permutation, and all subgroup identifiers downstream derive from
    those indices.

    Observably immutable: the multiplication table, inverse list, and element
    orders are filled lazily, but the values are deterministic functions of
    the element list, so a racing double-computation writes identical data.
    """

    def __init__(self, degree: int, elements: Sequence[Permutation],
                 generators: Sequence[Permutation]) -> None:
        self.degree = degree
        self.elements: tuple[Permutation, ...] = tuple(sorted(set(elements)))
        self.generators: tuple[Permutation, ...] = tuple(generators)
        self._index: dict[tuple[int, ...], int] = {
            p.images: i for i, p in enumerate(self.elements)
        }
        ident = Permutation.identity(degree)
        if ident.images not in self._index:
            raise InputError("element list does not contain the identity")
        self.identity_index: int = self._index[ident.images]
        if len(self._closure_of(self.generators)) != len(self.elements):
            raise InputError("generators do not generate the element list")
        self._mul_table: list[list[int]] | None = None
        self._inverse: list[int] | None = None
        self._orders: list[int] | None = None

    def _closure_of(self, gens: Sequence[Permutation]) -> set[tuple[int, ...]]:
        seen = {Permutation.identity(self.degree).images}
        frontier = list(seen)
        gen_images = [g.images for g in gens if not g.is_identity()]
        while frontier:
            x = frontier.pop()
            for g in gen_images:
                y = tuple(g[v] for v in x)
                if y not in seen:
                    if y not in self._index:
                        raise InputError("generators leave the element list")
                    seen.add(y)
                    frontier.append(y)
        return seen

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, p: Permutation) -> int:
        try:
            return self._index[p.images]
        except KeyError:
            raise InputError(f"{p!r} is not an element of this group") from None

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] composed after elements[j]."""
        if self._mul_table is not None:
            return self._mul_table[i][j]
        return self._index[compose(self.elements[i], self.elements[j]).images]

    @property
    def mul_table(self) -> list[list[int]]:
        """Full index-level multiplication table (built on first use).

        Row i is left multiplication by elements[i], read as a permutation of
        indices. A breadth-first search over the generators reaches every
        element as elements[y] = g * elements[x]; row y is then row x sent
        through left multiplication by g, so each row costs one `map` over
        a precomputed index list and only the generator rows compose
        permutations.
        """
        if self._mul_table is None:
            n = len(self.elements)
            if n > MUL_TABLE_LIMIT:
                raise SizeError(f"group order {n} exceeds table limit {MUL_TABLE_LIMIT}")
            index = self._index
            images = [p.images for p in self.elements]
            left = [[index[tuple(g.images[v] for v in a)] for a in images]
                    for g in self.generators]
            table: list[list[int] | None] = [None] * n
            table[self.identity_index] = list(index.values())
            queue = [self.identity_index]
            for x in queue:
                for row in left:
                    y = row[x]
                    if table[y] is None:
                        table[y] = list(map(row.__getitem__, table[x]))
                        queue.append(y)
            self._mul_table = table
        return self._mul_table

    def inverse_index(self, i: int) -> int:
        if self._inverse is None:
            inv = [0] * len(self.elements)
            for k, p in enumerate(self.elements):
                inv[k] = self._index[p.inverse().images]
            self._inverse = inv
        return self._inverse[i]

    def order_of_index(self, i: int) -> int:
        if self._orders is None:
            self._orders = [element_order(p) for p in self.elements]
        return self._orders[i]

    def element_order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for i in range(len(self.elements)):
            k = self.order_of_index(i)
            hist[k] = hist.get(k, 0) + 1
        return hist

    def is_abelian(self) -> bool:
        gens = self.generators if self.generators else self.elements
        return all(compose(a, b) == compose(b, a) for a in gens for b in gens)

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


def generate_group(degree: int, gens: Sequence[Permutation],
                   element_cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    """Close `gens` under composition into a FiniteGroup (trivial group for no gens).

    Inverses come for free in a finite closure, since every element has finite
    order. Raises SizeError once the closure grows past `element_cap`.
    """
    for g in gens:
        if g.degree != degree:
            raise InputError(f"generator degree {g.degree} does not match {degree}")
    ident = Permutation.identity(degree)
    seen: dict[tuple[int, ...], Permutation] = {ident.images: ident}
    frontier = [ident]
    gen_list = [g for g in gens if not g.is_identity()]
    while frontier:
        x = frontier.pop()
        for g in gen_list:
            y = compose(x, g)
            if y.images not in seen:
                if len(seen) >= element_cap:
                    raise SizeError(f"closure exceeded element cap {element_cap}")
                seen[y.images] = y
                frontier.append(y)
    return FiniteGroup(degree, list(seen.values()), gens)


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask
