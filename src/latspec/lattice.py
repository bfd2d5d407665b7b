"""Complete subgroup lattices: enumeration, meet/join, Möbius values, permuting core.

A lattice is built once (single writer) and is immutable afterwards; the
Möbius tables, the conjugation walk, the permutability matrix and `memo` are
filled lazily with deterministic values, so concurrent readers always observe
a consistent map.

Conjugation by the group permutes the members: `conjugation_map(g)` takes
each id to the id of g^-1 H g. The enumeration already conjugates every
subgroup by each generator of the group, and hands those images to the
lattice as id maps. One orbit walk on ids, over those maps, gives the
conjugacy classes: `class_reps` per id, and `classes`, the one class table
that every per-class sum reads. Every pass over the representatives' rows
reads that walk first, and the walk alone holds them to PAIR_LIMIT.

Two independent pair computations live here. `products_commute` decides
HK = KH from lattice orders. `permutability` calls it on the rows of class
representatives only, and copies every other row along the orbit walk,
since conjugation preserves HK = KH; every permutability consumer reads
that one matrix, except that the permuting core and the quasihamiltonian
flag scan the representatives' rows up to a failing pair while it is
unfilled. A class's lattice (`class_lattice`), enumerated once per class on
its representative's `standalone_group`, reads the matrix restricted to the
representative's down-set once it is filled. `product_bits` builds the set
product HK element by element, as a union of right cosets Hk from a table of
H's cosets built once per H; it never touches joins, meets or the matrix.

A lattice holds every subgroup, which `meet` and `join` rely on.
`_close_by_cyclic_extension` finds them from the trivial subgroup, and is
the one source of every lattice: it hands `SubgroupLattice` each member
tuple and each generator's image, so building a lattice repeats no pass.
`member_lists` is the one serializer of a lattice's members (a cache file's
lattice section), and `from_member_lists` accepts a dump only when it equals
that value for the lattice enumerated afresh.

Subgroup member sets are stored as integer bitsets over the parent group's
element indices. The canonical subgroup order is (order, member tuple), which
makes every id, dump, and downstream artifact deterministic. Containment is
stored once, as up-sets; `down_ids` reads a down-set off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Iterable, Iterator, Sequence

import numpy as np

from .closed_forms import is_prime, least_prime_factor
from .errors import ConsistencyError, DomainError, InputError, SizeError
from .perm import FiniteGroup, bits_of, iter_bits

SUBGROUP_CAP = 100_000  # subgroups in one enumerated lattice
PAIR_LIMIT = 100_000_000  # pairs in one pass over the class representatives' rows

# (member bitsets, member tuples, per conjugator the position of each one's image)
Family = tuple[list[int], list[tuple[int, ...]], list[list[int]]]


@dataclass(frozen=True)
class Subgroup:
    """One lattice member: `members` is a bitset over parent element indices."""

    id: int
    members: int
    order: int

    def member_indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.members))


def _closure_bits(table: list[list[int]], start_bits: int, gens: Sequence[int]) -> int:
    """Subgroup bitset generated by `gens`, seeded with `start_bits` (must contain e)."""
    members = start_bits
    frontier = list(iter_bits(start_bits))
    while frontier:
        row = table[frontier.pop()]
        for g in gens:
            y = row[g]
            bit = 1 << y
            if not members & bit:
                members |= bit
                frontier.append(y)
    return members


def _greedy_closure(group: FiniteGroup, candidates: Iterable[int]) -> tuple[list[int], int]:
    """(generators, closure bits): each candidate element index outside the
    closure so far becomes a generator, so every candidate ends inside the
    closure."""
    table = group.mul_table
    gens: list[int] = []
    bits = 1 << group.identity_index
    for g in candidates:
        if not bits >> g & 1:
            gens.append(g)
            bits = _closure_bits(table, bits | (1 << g), gens)
    return gens, bits


def _conjugates(bits: int, group: FiniteGroup) -> Family:
    """(orbit, members, images) of the conjugacy class of the subgroup `bits`.

    `orbit` holds the member bitsets of its conjugates, itself first, and
    `members` each one's member tuple. `images[k][i]` is the orbit position
    of the image of orbit[i] under the k-th generator's conjugation map
    (`FiniteGroup.conjugator`): a position, so no bitset is kept twice.
    """
    conjugators = [group.conjugator(s) for s in group.generator_indices]
    orbit, members = [bits], []
    position = {bits: 0}
    images: list[list[int]] = [[] for _ in conjugators]
    for x in orbit:  # grows while it is walked
        members.append(xs := tuple(iter_bits(x)))
        for conjugator, row in zip(conjugators, images):
            y = bits_of(conjugator[h] for h in xs)
            if (i := position.get(y)) is None:
                i = position[y] = len(orbit)
                orbit.append(y)
            row.append(i)
    return orbit, members, images


def _cyclic_p_subgroups(group: FiniteGroup) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """<g> bits -> (g, g^p) for every cyclic subgroup of prime-power order p^k > 1,
    and for each element index g the bits of <g> (0 unless g is a p-element, g != e).

    Read off the group's one power walk (`FiniteGroup.cyclic_powers`): g is
    <g>'s least-index generator, and every other generator g^j (j prime to
    p) shares <g>'s key.
    """
    cyclic: dict[int, tuple[int, int]] = {}
    key_of = [0] * group.order
    for g, powers in group.cyclic_powers.items():
        n = len(powers)
        if n == 1 or (p := least_prime_factor(n)) ** n.bit_length() % n:
            continue  # e, or an order that is not a prime power
        key = bits_of(powers)
        for j in range(1, n):
            if j % p:
                key_of[powers[j]] = key
        cyclic[key] = (g, powers[p % n])
    return cyclic, key_of


def _coset_table(table: list[list[int]], members: Sequence[int]) -> list[int]:
    """For each element index x, the bitset of the right coset Hx of the
    subgroup H with these member indices, one table read per element."""
    rows = [table[h] for h in members]
    cosets = [0] * len(table)
    for x in range(len(table)):
        if not cosets[x]:
            coset = [row[x] for row in rows]
            bits = bits_of(coset)
            for y in coset:
                cosets[y] = bits
    return cosets


def _close_by_cyclic_extension(group: FiniteGroup) -> Family:
    """Every subgroup of the group, by Neubüser's cyclic extension, as the
    family `SubgroupLattice.__init__` reads: member bitsets, member tuples,
    and per generator of the group the position of each conjugate, all
    from `_conjugates`, class by class.

    From the trivial subgroup on, each class representative R is extended by
    every cyclic p-subgroup <g> with g outside R and g^p inside R. <R, g> is
    the union of the right cosets Rx that right multiplication by the
    generators reaches from R, read from one coset table per
    representative. A new <R, g> brings in its whole conjugacy class and
    becomes that class's representative.

    The result holds every subgroup. Let K be a missing subgroup of least
    order and R a maximal subgroup of K. R is present, and after conjugating
    K (its conjugates are missing too) R is a walked representative. Some
    cyclic p-subgroup <g> of K lies outside R with g^p inside R (walk down a
    prime-power part of any element of K outside R), and then <R, g> = K,
    which the walk over R adds. A complete family is closed under meets and
    joins, which `meet` and `join` rely on. Raises SizeError once the family
    would exceed SUBGROUP_CAP subgroups.

    One join walk serves each R-orbit of cyclic p-subgroups. For r in R,
    <R, g^r> = <R, g>^r = <R, g>, since r lies in <R, g>, and g^r lies
    outside R with (g^r)^p inside R exactly when g does. So once <g> is
    walked, its orbit under conjugation by R's generators is skipped, and
    the proof above still holds: if <g> was skipped, the walk for some
    g' = g^r found the same K.

    A join walk stops at the Lagrange bound. Let q be the least prime
    dividing [G:R]. A proper subgroup H containing R has [G:H] > 1 dividing
    [G:R], so [G:H] >= q and |H| <= |G|/q. Once the walk's R-cosets hold more
    than |G|/q elements, <R, g> is G, the walk stops with that result, and
    the proof above is unchanged.
    """
    table, e = group.mul_table, group.identity_index
    cyclic, key_of = _cyclic_p_subgroups(group)
    trivial, whole = 1 << e, (1 << group.order) - 1
    found, reps = {trivial}, [(trivial, ())]
    all_bits, all_members, all_images = [trivial], [(e,)], [[0] for _ in group.generators]
    for r_bits, r_gens in reps:  # grows while it is walked
        by_r = [(table[group.inverse_index(r)], r) for r in r_gens]  # h -> r^-1 h r
        walked = set()  # the R-orbits of the cyclic subgroups walked from R
        coset = _coset_table(table, tuple(iter_bits(r_bits)))  # x -> bits of Rx
        index = group.order // r_bits.bit_count()
        bound = index // least_prime_factor(index)  # R-cosets in a proper H > R, at most
        for c_bits, (g, gp) in cyclic.items():
            if c_bits in walked or r_bits >> g & 1 or not r_bits >> gp & 1:
                continue
            walked.add(c_bits)
            orbit = [g]
            for h in orbit:  # grows while it is walked
                for inv_row, r in by_r:
                    y = table[inv_row[h]][r]
                    if key_of[y] not in walked:
                        walked.add(key_of[y])
                        orbit.append(y)
            gens = r_gens + (g,)
            joined, walk = r_bits, [e]  # one element per R-coset reached
            for x in walk:  # grows while it is walked
                if len(walk) > bound:
                    joined = whole
                    break
                for s in gens:
                    y = table[x][s]
                    if not joined >> y & 1:
                        joined |= coset[y]
                        walk.append(y)
            if joined in found:
                continue
            conjugates, members, images = _conjugates(joined, group)
            if len(found) + len(conjugates) > SUBGROUP_CAP:
                raise SizeError(f"subgroup count exceeded cap {SUBGROUP_CAP}")
            for out, row in zip(all_images, images):
                out.extend(len(all_bits) + i for i in row)
            all_bits.extend(conjugates)
            all_members.extend(members)
            found.update(conjugates)
            reps.append((joined, gens))
    return all_bits, all_members, all_images


class SubgroupLattice:
    """The lattice of all subgroups of a finite group, ordered by inclusion."""

    def __init__(self, group: FiniteGroup, family: Family) -> None:
        """The lattice on `family`, what `_close_by_cyclic_extension` returns:
        each subgroup's bitset and member tuple, and per generator of the
        group the position of each subgroup's conjugate.

        Ids follow (order, member tuple), read off the handed tuples, so no
        bitset is walked again. The conjugates' positions become the id maps
        `_conjugation_walk` reads (`_generator_maps`), with no conjugation
        computed here.
        """
        self.group = group
        bits, member_tuples, images = family
        # (order, member tuple, position in the family), tuples distinct
        ordered = sorted(zip(map(len, member_tuples), member_tuples, range(len(bits))))
        self.subgroups: tuple[Subgroup, ...] = tuple(
            Subgroup(i, bits[j], order) for i, (order, _, j) in enumerate(ordered)
        )
        self._id_of: dict[int, int] = {s.members: s.id for s in self.subgroups}
        self._member_tuples: list[tuple[int, ...]] = [members for _, members, _ in ordered]
        id_at = [0] * len(ordered)
        for i, (_, _, j) in enumerate(ordered):
            id_at[j] = i
        # per generator s of the group, id -> the id of s^-1 H s
        self._generator_maps: list[np.ndarray] = [
            np.array([id_at[row[j]] for _, _, j in ordered], dtype=np.intp) for row in images]
        self.bottom_id: int = self._id_of[1 << group.identity_index]
        self.top_id: int = self._id_of[(1 << group.order) - 1]

        # containment from element incidence: holders[x] is the ids of the
        # subgroups holding element x, and z contains i iff it holds every
        # member of i
        holders = [0] * group.order
        for sid, members in enumerate(self._member_tuples):
            for x in members:
                holders[x] |= 1 << sid
        n = len(self.subgroups)
        everyone = (1 << n) - 1
        self._up = [reduce(and_, map(holders.__getitem__, members), everyone)  # ids z with i <= z
                    for members in self._member_tuples]

        self._mobius_to: dict[int, dict[int, int]] = {}  # upper -> {lower: mu(lower, upper)}
        self._permutes: np.ndarray | None = None
        self._core: frozenset[int] | None = None
        self._min_gens: dict[int, tuple[int, ...]] = {}
        self._walk: tuple | None = None  # (class_reps, classes, steps)
        self._cosets: dict[int, list[int]] = {}  # subgroup id -> `_right_cosets`
        self._class_lattices: dict[int, SubgroupLattice] = {}  # class rep -> `class_lattice`
        # results other modules derive from this lattice (see degrees), freed with it
        self.memo: dict = {}

    # -- basic structure ----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.subgroups)

    def subgroup(self, sid: int) -> Subgroup:
        return self.subgroups[sid]

    def id_of_members(self, members: int) -> int:
        try:
            return self._id_of[members]
        except KeyError:
            raise DomainError("the given member set is not a subgroup of this lattice") from None

    def leq(self, a: int, b: int) -> bool:
        return bool(self._up[a] & (1 << b))

    def down_ids(self, sid: int) -> tuple[int, ...]:
        """The ids z <= sid, ascending, read off the up-sets: a subgroup of
        sid has order at most sid's, so an id at most sid."""
        return tuple(z for z in range(sid + 1) if self._up[z] >> sid & 1)

    def meet(self, a: int, b: int) -> int:
        return self._id_of[self.subgroups[a].members & self.subgroups[b].members]

    def join(self, a: int, b: int) -> int:
        # the generated join is present (join-closed lattice) and is contained
        # in every other common upper bound, so it alone has minimal order and
        # therefore the smallest id in the common up-set
        common = self._up[a] & self._up[b]
        return (common & -common).bit_length() - 1

    def conjugation_map(self, g: int) -> np.ndarray:
        """Int array taking each id to the id of g^-1 H g, for the element index g.

        Read off the group's map of g, as the split's vertex action needs;
        the class walk reads the generators' maps from the enumeration.
        """
        images = self.group.conjugator(g)
        id_of = self._id_of
        return np.array([id_of[bits_of(images[h] for h in members)]
                         for members in self._member_tuples], dtype=np.intp)

    def _conjugation_walk(self) -> tuple:
        """Each id's class representative, the class table and the steps of one orbit walk on ids.

        The walk goes over the conjugation maps of the group's generators,
        the id maps `__init__` built from the enumeration's images, so no
        subgroup is conjugated here. It starts each class at its least id,
        classes in ascending order. A step (y, x, m) records that id y was
        first reached as m[x], from an id x reached before it.
        """
        if self._walk is None:
            maps = self._generator_maps
            images = [m.tolist() for m in maps]
            reps = [-1] * self.size
            classes, steps = [], []
            for sid in range(self.size):
                if reps[sid] >= 0:
                    continue
                reps[sid] = sid
                orbit = [sid]
                for x in orbit:  # grows while it is walked
                    for m, image in zip(maps, images):
                        y = image[x]
                        if reps[y] < 0:
                            reps[y] = sid
                            orbit.append(y)
                            steps.append((y, x, m))
                classes.append((sid, len(orbit)))
            if (pairs := len(classes) * self.size) > PAIR_LIMIT:
                raise SizeError(f"{len(classes)} classes of {self.size} subgroups give {pairs} "
                                f"row pairs, over the limit PAIR_LIMIT = {PAIR_LIMIT}")
            self._walk = (tuple(reps), tuple(classes), steps)
        return self._walk

    def class_reps(self) -> tuple[int, ...]:
        """For each id, the least id in the conjugacy class of that subgroup.

        One orbit walk on ids under the generators' conjugation maps.
        """
        return self._conjugation_walk()[0]

    def classes(self) -> tuple[tuple[int, int], ...]:
        """(representative, class size) per conjugacy class, by ascending
        representative id, from the walk of `class_reps`.

        Every pass over the representatives' rows reads the walk first (the
        fill, the scans of `is_quasihamiltonian` and `_permute_with_all`,
        `f2_direct` and the class phase of `degrees`), as the Möbius fill
        does, so the walk alone holds them to PAIR_LIMIT: SizeError, with no
        walk kept, when (number of classes) x |L| exceeds it.
        """
        return self._conjugation_walk()[1]

    # -- Möbius function -----------------------------------------------------

    def mobius(self, lower: int, upper: int) -> int:
        """Möbius value of the interval [upper/lower], read from upper's table.

        The table holds mu(z, upper) for every z <= upper. It is filled once,
        with ids in descending order: mu(upper, upper) = 1 and
        mu(z, upper) = -sum of mu(y, upper) over z < y <= upper. A larger
        subgroup has the larger order, so the larger id, and each sum reads
        values already filled. Tables are stored whole, so concurrent queries
        stay consistent. A fill first reads the class walk, which bounds it.
        """
        if not self.leq(lower, upper):
            raise DomainError(f"subgroup {lower} is not contained in {upper}")
        table = self._mobius_to.get(upper)
        if table is None:
            self.classes()
            table = {upper: 1}
            down = self.down_ids(upper)
            below = bits_of(down)
            for z in reversed(down[:-1]):
                above = self._up[z] & below & ~(1 << z)
                table[z] = -sum(table[y] for y in iter_bits(above))
            self._mobius_to[upper] = table
        return table[lower]

    # -- complex products ----------------------------------------------------

    def _right_cosets(self, a: int) -> list[int]:
        """`_coset_table` of subgroup a (x -> bits of Ax), built once per a."""
        cosets = self._cosets.get(a)
        if cosets is None:
            cosets = self._cosets[a] = _coset_table(self.group.mul_table, self._member_tuples[a])
        return cosets

    def product_bits(self, a: int, b: int) -> int:
        """Bitset of the complex product (members of a) * (members of b).

        AB is the union of the right cosets Ak, k in B, read from a's coset
        table (`_right_cosets`). A k already in the union lies in some Ak'
        with k' walked before, so Ak = Ak' is held and is skipped.
        """
        cosets = self._right_cosets(a)
        out = 0
        for k in self._member_tuples[b]:
            if not out >> k & 1:
                out |= cosets[k]
        return out

    def products_commute(self, a: int, b: int) -> bool:
        """True when the two subgroups permute: AB = BA as element sets.

        |AB| = |A||B|/|A meet B| and AB lies inside A join B, and AB = BA
        exactly when AB is a subgroup, i.e. AB = A join B. So the pair
        permutes iff |A join B| * |A meet B| = |A| * |B|. Exact only while
        `join` is, that is on a complete family, which every family is:
        `enumerate_subgroups` and `from_member_lists` both build the lattice
        from what `_close_by_cyclic_extension` finds.
        """
        subs = self.subgroups
        return (subs[self.join(a, b)].order * subs[self.meet(a, b)].order
                == subs[a].order * subs[b].order)

    # -- permuting core and derived predicates --------------------------------

    def _rep_pairs(self) -> Iterator[tuple[int, int]]:
        """(a, b) for each class representative a, once per unordered pair of ids."""
        reps = self.class_reps()
        return ((a, b) for a, _ in self.classes()
                for b in range(self.size) if reps[b] != b or b > a)

    def permutability(self) -> np.ndarray:
        """Read-only symmetric boolean matrix: entry (a, b) says whether a and b permute.

        Filled once per lattice. The rows of class representatives come from
        `products_commute`, one call per unordered pair with a representative
        in it; the diagonal is true. Conjugation preserves XY = YX, so every
        other row is a permuted copy of one filled before it: along the walk
        of `class_reps`, y = m[x] gets permutes[y, m] = permutes[x].
        ConsistencyError if the filled matrix is not symmetric, which only a
        pair test that is not symmetric or not invariant under conjugation
        can cause. The permuting core, the quasihamiltonian flag, sd[direct]
        and the graph all read it. SizeError, before the |L| x |L| matrix is
        allocated, when |L|^2 exceeds PAIR_LIMIT; the graph's |V| x |V| copy
        is no larger, so it needs no bound of its own.
        """
        if self._permutes is None:
            if self.size ** 2 > PAIR_LIMIT:
                raise SizeError(f"{self.size} subgroups give {self.size ** 2} pairs, over "
                                f"the limit PAIR_LIMIT = {PAIR_LIMIT}")
            permutes = np.ones((self.size, self.size), dtype=bool)
            for a, b in self._rep_pairs():
                if not self.products_commute(a, b):
                    permutes[a, b] = False
            permutes &= permutes.T  # each pair was tested from one side
            for y, x, m in self._conjugation_walk()[2]:  # overwrites every other row
                permutes[y, m] = permutes[x]
            if not np.array_equal(permutes, permutes.T):
                raise ConsistencyError("the pair test is not symmetric or not conjugation-invariant")
            permutes.flags.writeable = False
            self._permutes = permutes
        return self._permutes

    def _permute_with_all(self) -> list[int]:
        """Ids of {Y : YX = XY for every X}, the all-true rows of the
        permutability matrix.

        Read from the matrix once it is filled. Otherwise each class
        representative's row is scanned with `products_commute` up to its
        first failing pair, and a class is taken whole or not at all: a
        conjugate's row is a permuted copy of its representative's.
        """
        if self._permutes is not None:
            return np.flatnonzero(self._permutes.all(axis=1)).tolist()
        reps = self.class_reps()
        full = {a for a, _ in self.classes()
                if all(self.products_commute(a, b) for b in range(self.size) if b != a)}
        return [sid for sid in range(self.size) if reps[sid] in full]

    def permuting_core(self) -> frozenset[int]:
        """Ids of the sublattice closure of the permute-with-all subgroup set.

        Starts from `_permute_with_all`, which need not be a sublattice, and
        alternates meet- and join-closure passes until a fixpoint.
        """
        if self._core is not None:
            return self._core
        core = set(self._permute_with_all())
        changed = True
        while changed:
            changed = False
            ids = sorted(core)
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    for c in (self.meet(a, b), self.join(a, b)):
                        if c not in core:
                            core.add(c)
                            changed = True
        self._core = frozenset(core)
        return self._core

    def is_quasihamiltonian(self) -> bool:
        """True iff every pair of subgroups permutes (the whole lattice is the core).

        Reads the permutability matrix once filled. Otherwise it tests the
        rows of class representatives (every other row is a conjugate copy
        of one), each unordered pair once, up to the first that fails.
        """
        if self._permutes is not None:
            return bool(self._permutes.all())
        return all(self.products_commute(a, b) for a, b in self._rep_pairs())

    # -- materializing members as standalone groups ---------------------------

    def minimal_generators(self, sid: int) -> tuple[int, ...]:
        """A small generating set of element indices for the subgroup (greedy, deterministic).

        Each member outside the closure so far becomes a generator, so every
        member ends inside the final closure, which is the subgroup.
        """
        cached = self._min_gens.get(sid)
        if cached is not None:
            return cached
        gens, _ = _greedy_closure(self.group, self._member_tuples[sid])
        self._min_gens[sid] = tuple(gens)
        return self._min_gens[sid]

    def standalone_group(self, sid: int) -> FiniteGroup:
        """The subgroup as its own FiniteGroup, cut from the parent's tables.

        Its element list is the subgroup's members in the parent's index
        order, its multiplication table the parent's restricted to them
        (`FiniteGroup.restricted`), and its generators are
        `minimal_generators(sid)`; no permutation is closed. `class_lattice`
        enumerates a class representative's.
        """
        if sid == self.top_id:
            return self.group
        return self.group.restricted(self._member_tuples[sid], self.minimal_generators(sid))

    def class_lattice(self, sid: int) -> "SubgroupLattice":
        """The lattice of sid's conjugacy class, built once per class: this
        lattice for the top, otherwise the lattice enumerated on the class
        representative's `standalone_group`, which every conjugate shares.

        The enumeration stays an independent check: its ids must be
        `down_ids(rep)` in the same order, which holds since both order
        subgroups by (order, members) and the standalone group lists the
        members in this group's order; each of its member sets, read back as
        this group's element indices, is mapped to its id here, and a
        mismatch is a ConsistencyError. When this lattice's permutability
        matrix is already filled, the class lattice takes its restriction to
        the down-set as its own, read-only: XY = YX is a property of the two
        sets, so no pair is tested again. Otherwise it fills its own matrix
        on first use.
        """
        if sid == self.top_id:
            return self
        rep = self.class_reps()[sid]
        own = self._class_lattices.get(rep)
        if own is None:
            own = enumerate_subgroups(self.standalone_group(rep))
            members, down = self._member_tuples[rep], self.down_ids(rep)
            if own.group.order != len(members) or [
                    self._id_of.get(bits_of(map(members.__getitem__, sub)))
                    for sub in own._member_tuples] != list(down):
                raise ConsistencyError(f"the lattice of subgroup {rep} is not its down-set")
            if self._permutes is not None:
                own._permutes = self._permutes[np.ix_(down, down)]
                own._permutes.flags.writeable = False
            self._class_lattices[rep] = own
        return own

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON form: member index arrays, strict containment pairs
        [a, b] (a below b, ascending, read row by row off the up-sets), core ids."""
        pairs = [[a, b] for a in range(self.size) for b in iter_bits(self._up[a]) if a != b]
        return {
            "group_order": self.group.order,
            "degree": self.group.degree,
            "size": self.size,
            "subgroups": [
                {"id": s.id, "order": s.order, "members": members}
                for s, members in zip(self.subgroups, self.member_lists())
            ],
            "leq_pairs": pairs,
            "core": sorted(self.permuting_core()),
        }

    def member_lists(self) -> list[list[int]]:
        """Each subgroup's member indices, by id: a cache file's lattice section."""
        return [list(members) for members in self._member_tuples]

    @classmethod
    def from_member_lists(cls, group: FiniteGroup,
                          member_lists: list[list[int]]) -> "SubgroupLattice":
        """The lattice of `group`, closed by `_close_by_cyclic_extension` as a
        fresh run closes it, once `member_lists` (e.g. a cache file's lattice
        section) is proved equal to its `member_lists()`, order included.

        The dump is only compared, never used; InputError otherwise, and
        before any lattice is built if the dump's length differs.
        """
        family = _close_by_cyclic_extension(group)
        if not isinstance(member_lists, list) or len(member_lists) != len(family[0]) or (
                lattice := cls(group, family)).member_lists() != member_lists:
            raise InputError("dumped member lists are not the subgroups in canonical order")
        return lattice

    def __repr__(self) -> str:
        return f"SubgroupLattice(group_order={self.group.order}, size={self.size})"


def enumerate_subgroups(group: FiniteGroup) -> SubgroupLattice:
    """Enumerate every subgroup by cyclic extension from the trivial subgroup.

    See `_close_by_cyclic_extension`. Raises SizeError once the family would
    exceed SUBGROUP_CAP subgroups; the module constant is read at each call.
    """
    return SubgroupLattice(group, _close_by_cyclic_extension(group))


def hughes_subgroup(lattice: SubgroupLattice, p: int) -> Subgroup:
    """The subgroup generated by all elements g with g^p != identity.

    Trivial when every non-identity element has order p; the result is stable
    under the generation closure, so it is always a lattice member.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    group = lattice.group
    _, bits = _greedy_closure(group, (i for i in range(group.order)
                                      if group.order_of_index(i) not in (1, p)))
    return lattice.subgroup(lattice.id_of_members(bits))
