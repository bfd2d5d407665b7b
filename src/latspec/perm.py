"""Permutations on {0..n-1} and exhaustively tabulated finite permutation groups.

Everything here is immutable after construction and safe to share between
threads. A group closes its generators once; that one closure yields the
complete element list, kept in a canonical (lexicographic) order so every
identifier derived from element indices is deterministic, and the generator
rows the multiplication table is built from; the table's rows are 16-bit
arrays. A subgroup of a tabulated group is cut from its tables instead
(`FiniteGroup.restricted`), with no closure. Each group, closed or cut,
reads element orders, inverses and cyclic subgroups off its own table, one
power walk per cyclic subgroup, and generator indices, commutation and
conjugation maps too; `index_of` bisects the sorted elements.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import ConsistencyError, InputError, SizeError

# Every command reads the full multiplication table, which is quadratic in
# the group order; the closure refuses a group past this order. Every index
# below it fits the table's 16-bit rows.
MUL_TABLE_LIMIT = 4_096


def _picker(indices: Sequence[int]):
    """seq -> the tuple of seq[i] for i in `indices`, in C (`itemgetter`),
    a tuple even for one index."""
    if len(indices) == 1:
        [i] = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


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
    """A finite permutation group: the closure of its generators, canonically sorted.

    The constructor closes the generators once, under left multiplication
    from the identity, and sorts the elements lexicographically by image
    tuple. That order fixes the element index of every permutation, and all
    subgroup identifiers downstream derive from those indices. Raises
    SizeError once the closure grows past `MUL_TABLE_LIMIT`.

    After the closure the table is the group: element orders, inverses,
    generator indices, commutation and conjugation are read off it.

    Observably immutable: the multiplication table, the power walk, the
    conjugation maps and the cache's table hash are filled lazily, but the
    values are deterministic functions of the element list, so a racing
    double-computation writes identical data.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation]) -> None:
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(generators)
        found = [tuple(range(degree))]
        seen = {found[0]: 0}
        rows: list[list[int]] = [[] for _ in self.generators]  # row[x]: index of g * found[x]
        for x in found:  # grows while it is walked
            for g, row in zip(self.generators, rows):
                y = tuple(map(g.images.__getitem__, x))
                i = seen.get(y)
                if i is None:
                    if len(found) >= MUL_TABLE_LIMIT:
                        raise SizeError(f"group order exceeds table limit {MUL_TABLE_LIMIT}")
                    i = seen[y] = len(found)
                    found.append(y)
                row.append(i)
        order = sorted(range(len(found)), key=found.__getitem__)
        rank = [0] * len(found)
        for new, old in enumerate(order):
            rank[old] = new
        self.elements: tuple[Permutation, ...] = tuple(Permutation(found[i]) for i in order)
        self.identity_index: int = rank[0]
        self._generator_rows = [[rank[row[i]] for i in order] for row in rows]
        self._mul_table: list[array] | None = None
        self._inverse: list[int] | None = None
        self._orders: list[int] | None = None
        self._cyclic: dict[int, list[int]] | None = None  # `cyclic_powers`
        self._conjugators: dict[int, list[int]] = {}  # element index -> `conjugator`
        self._table_hash: str | None = None  # `cache.table_hash`, filled on first use

    def restricted(self, members: Sequence[int], generators: Sequence[int]) -> "FiniteGroup":
        """The subgroup on the ascending element indices `members`, as its own
        group, cut from this group's tables with no closure.

        Its elements are the members in this group's order, which is already
        lexicographic, so they are what closing `generators` (element indices
        of members) would list, and `index_of` bisects them. Its generator
        rows are its own table's, read by `generator_indices`. Its
        multiplication table is this table's
        member rows and columns, relabelled to positions among the members,
        in `array('H')` rows as `mul_table` holds them: each row is picked
        and relabelled by two `itemgetter` calls, with no Python code per
        entry (most cut groups are small, where numpy's per-call cost would
        outweigh a row). Its orders, inverses, cyclic subgroups and
        conjugation maps are read off that table, as on a closed group.
        ConsistencyError if the members do not hold the identity and the
        generators, or a product of two of them falls outside them.
        """
        position = [-1] * self.order
        for i, x in enumerate(members):
            position[x] = i
        table, pick = self.mul_table, _picker(members)
        rows = (_picker(pick(table[x]))(position) for x in members)
        mul = [array("H", row) for row in rows if -1 not in row]  # -1: outside the members
        if (len(mul) < len(members) or position[self.identity_index] != 0
                or -1 in map(position.__getitem__, generators)):
            raise ConsistencyError("the members are not a subgroup holding the generators")
        sub = FiniteGroup.__new__(FiniteGroup)
        sub.degree = self.degree
        sub.generators = tuple(self.elements[g] for g in generators)
        sub.elements = tuple(self.elements[x] for x in members)
        sub.identity_index = 0
        sub._generator_rows = [mul[position[g]] for g in generators]
        sub._mul_table = mul
        sub._inverse = sub._orders = sub._cyclic = sub._table_hash = None
        sub._conjugators = {}
        return sub

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, p: Permutation) -> int:
        """The index of p, bisected in the sorted `elements`; InputError if p
        is not an element (one of another degree never is)."""
        i = bisect_left(self.elements, p)
        if i == len(self.elements) or self.elements[i] != p:
            raise InputError(f"{p!r} is not an element of this group")
        return i

    @property
    def generator_indices(self) -> list[int]:
        """The element index of each generator: generator k's closure row
        maps the identity to g_k * e = g_k, on a closed and a cut group alike."""
        e = self.identity_index
        return [row[e] for row in self._generator_rows]

    @property
    def mul_table(self) -> list[array]:
        """Full index-level multiplication table (built on first use).

        Row i is left multiplication by elements[i], read as a permutation of
        indices and held as an `array('H')`: an order within MUL_TABLE_LIMIT
        fits 16 bits, so a row costs 2 bytes an entry, not a list's 8-byte
        pointer. A breadth-first search over the generator rows recorded by
        the closure reaches every element as elements[y] = g * elements[x];
        row y is then g's row read at row x's entries, one numpy gather on
        row x's buffer per element, so no entry passes through Python code.
        """
        if self._mul_table is None:
            import numpy as np  # here alone: importing latspec itself loads no numpy

            n = len(self.elements)
            table: list[array | None] = [None] * n
            table[self.identity_index] = array("H", range(n))
            moves = [(row, np.array(row, dtype=np.uint16)) for row in self._generator_rows]
            queue = [self.identity_index]
            for x in queue:
                row_x = np.frombuffer(table[x], dtype=np.uint16)
                for row, gather in moves:
                    y = row[x]
                    if table[y] is None:
                        table[y] = array("H", gather[row_x].tobytes())
                        queue.append(y)
            self._mul_table = table
        return self._mul_table

    def inverse_index(self, i: int) -> int:
        """The index of the inverse of elements[i], from `cyclic_powers`'s walk."""
        if self._inverse is None:
            self._walk_powers()
        return self._inverse[i]

    def order_of_index(self, i: int) -> int:
        """The order of elements[i], from `cyclic_powers`'s walk."""
        if self._orders is None:
            self._walk_powers()
        return self._orders[i]

    @property
    def cyclic_powers(self) -> dict[int, list[int]]:
        """g -> [e, g, ..., g^(k-1)] per cyclic subgroup <g> of order k, g its
        least-index generator, by ascending g (the trivial one is e -> [e]).

        One power walk per cyclic subgroup fills these, every order and
        every inverse, off the table: in index order, an element g not yet
        filled is walked g, g^2, ... back to e, which gives its order k, and
        then each generator g^j of <g> (gcd(j, k) = 1) gets order k and
        inverse g^(k-j).
        """
        if self._cyclic is None:
            self._walk_powers()
        return self._cyclic

    def _walk_powers(self) -> None:
        e, table = self.identity_index, self.mul_table
        orders, inverse, cyclic = [0] * self.order, [0] * self.order, {}
        for g in range(self.order):
            if orders[g]:
                continue
            row, powers, y = table[g], [e], g  # powers[j] = g^j
            while y != e:
                powers.append(y)
                y = row[y]
            k, cyclic[g] = len(powers), powers
            for j in range(k):  # j = 0 passes the gcd test only for k = 1, g = e
                if math.gcd(j, k) == 1:
                    orders[powers[j]], inverse[powers[j]] = k, powers[-j]
        self._orders, self._inverse, self._cyclic = orders, inverse, cyclic

    def conjugator(self, s: int) -> list[int]:
        """The map h -> s^-1 h s on element indices, built once per element s."""
        images = self._conjugators.get(s)
        if images is None:
            table = self.mul_table
            row = table[self.inverse_index(s)]
            images = self._conjugators[s] = [table[row[h]][s] for h in range(self.order)]
        return images

    def element_order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for i in range(len(self.elements)):
            k = self.order_of_index(i)
            hist[k] = hist.get(k, 0) + 1
        return hist

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, read off the table as
        ab = ba for their indices; a group with no generator is trivial."""
        table, gens = self.mul_table, self.generator_indices
        return all(table[a][b] == table[b][a] for a in gens for b in gens)

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


def generate_group(degree: int, gens: Sequence[Permutation]) -> FiniteGroup:
    """The FiniteGroup generated by `gens` (the trivial group for no gens).

    Inverses come for free in a finite closure, since every element has finite
    order. Raises InputError for a generator of another degree and SizeError
    once the closure grows past `MUL_TABLE_LIMIT`.
    """
    for g in gens:
        if g.degree != degree:
            raise InputError(f"generator degree {g.degree} does not match {degree}")
    return FiniteGroup(degree, gens)


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
