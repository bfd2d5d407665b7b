"""Built-in group catalog and the group-spec grammar for the CLI.

Grammar:
    C<n>            cyclic of order n
    D<n>            dihedral of order 2n (D4 is the order-8 group; a
                    disambiguation note is attached whenever this token is used)
    Dih<m>          dihedral of order m (m even)
    S<n>, A<n>      symmetric / alternating on n points
    Q8              quaternion group (regular representation on 8 points)
    E<p^k>          elementary abelian of order p^k, e.g. E8, E27
    V4              alias for E4
    M16             modular (maximal-cyclic) 2-group of order 16
    PSL(2,q)        q in {2,3,4,5,7}; PGL(2,3); a q that is no prime
                    power is refused as such, a prime power past these
                    tables as past the enumeration budget
    perm<d>:<gens>  raw generators in cycle notation, ';'-separated
    A x B x ...     direct products of any of the above

Catalog generator tables are fixed constants; each constructor asserts the
expected group order, so a bad table fails loudly at first use.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import partial

from .closed_forms import PrimePower
from .errors import InputError, SizeError
from .perm import MUL_TABLE_LIMIT, FiniteGroup, Permutation, generate_group, parse_generators


def _from_images(degree: int, images: list[tuple[int, ...]],
                 expected_order: int) -> FiniteGroup:
    group = generate_group(degree, [Permutation(t) for t in images])
    if group.order != expected_order:
        raise InputError(
            f"generator table is wrong: got order {group.order}, expected {expected_order}"
        )
    return group


def _within_table(what: str, size: int) -> None:
    """SizeError for an order or degree past MUL_TABLE_LIMIT, before a tuple that long exists."""
    if size > MUL_TABLE_LIMIT:
        raise SizeError(f"{what} {size} exceeds table limit {MUL_TABLE_LIMIT}")


def trivial_group(degree: int = 1) -> FiniteGroup:
    return generate_group(degree, [])


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("cyclic order must be >= 1")
    _within_table("cyclic order", n)
    if n == 1:
        return trivial_group()
    images = tuple((i + 1) % n for i in range(n))
    return _from_images(n, [images], n)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n, acting on the n-gon for n >= 3."""
    if n < 1:
        raise InputError("dihedral parameter must be >= 1")
    _within_table("dihedral order", 2 * n)
    if n == 1:
        return cyclic(2)
    if n == 2:
        return elementary_abelian(2, 2)
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((n - i) % n for i in range(n))
    return _from_images(n, [rotation, reflection], 2 * n)


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("symmetric parameter must be >= 1")
    if n == 1:
        return trivial_group()
    if n == 2:
        return cyclic(2)
    transposition = (1, 0) + tuple(range(2, n))
    cycle = tuple((i + 1) % n for i in range(n))
    return _from_images(n, [transposition, cycle], math.factorial(n))


def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("alternating parameter must be >= 1")
    if n <= 2:
        return trivial_group(max(n, 1))
    three_cycle = (1, 2, 0) + tuple(range(3, n))
    if n == 3:
        gens = [three_cycle]
    elif n % 2 == 1:
        gens = [three_cycle, tuple((i + 1) % n for i in range(n))]
    else:
        # fix 0 and cycle the remaining n-1 points (odd length, hence even)
        gens = [three_cycle, (0,) + tuple(range(2, n)) + (1,)]
    return _from_images(n, gens, math.factorial(n) // 2)


def quaternion() -> FiniteGroup:
    """Q8 in its regular representation (no faithful action on fewer points exists)."""
    perm_i = (2, 3, 1, 0, 6, 7, 5, 4)
    perm_j = (4, 5, 7, 6, 1, 0, 2, 3)
    group = _from_images(8, [perm_i, perm_j], 8)
    hist = group.element_order_histogram()
    if hist != {1: 1, 2: 1, 4: 6}:
        raise InputError("quaternion table is wrong: bad element-order histogram")
    return group


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if k < 1:
        raise InputError("exponent must be >= 1")
    return direct_product([cyclic(p) for _ in range(k)])


def modular16() -> FiniteGroup:
    """Order-16 modular 2-group: an 8-cycle together with x -> 5x on Z/8."""
    a = (1, 2, 3, 4, 5, 6, 7, 0)
    b = (0, 5, 2, 7, 4, 1, 6, 3)
    return _from_images(8, [a, b], 16)


# Projective actions on the q+1 points of the projective line, with the point
# at infinity last: a translation and the inversion map (plus one diagonal map
# for q=4, where translations alone do not reach the full group).
_PSL_TABLES: dict[int, tuple[int, list[tuple[int, ...]]]] = {
    2: (6, [(1, 0, 2), (2, 1, 0)]),
    3: (12, [(1, 2, 0, 3), (3, 2, 1, 0)]),
    4: (60, [(1, 0, 3, 2, 4), (0, 3, 1, 2, 4), (4, 1, 3, 2, 0)]),
    5: (60, [(1, 2, 3, 4, 0, 5), (5, 4, 2, 3, 1, 0)]),
    7: (168, [(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0)]),
}

PSL_SUPPORTED = tuple(sorted(_PSL_TABLES))


def psl2(q: int) -> FiniteGroup:
    if q not in _PSL_TABLES:
        raise InputError(
            f"PSL(2,{q}) is out of the enumeration budget (supported q: "
            f"{', '.join(map(str, PSL_SUPPORTED))})"
        )
    expected, images = _PSL_TABLES[q]
    return _from_images(q + 1, images, expected)


def pgl2(q: int) -> FiniteGroup:
    if q != 3:
        raise InputError("PGL(2,q) is out of the enumeration budget (only q=3 is built in)")
    return _from_images(4, [(1, 2, 0, 3), (3, 1, 2, 0)], 24)


def direct_product(groups: list[FiniteGroup]) -> FiniteGroup:
    """Direct product acting on the disjoint union of the factors' points."""
    if not groups:
        return trivial_group()
    if len(groups) == 1:
        return groups[0]
    degree = sum(g.degree for g in groups)
    gens: list[tuple[int, ...]] = []
    offset = 0
    for g in groups:
        for gen in g.generators:
            images = list(range(degree))
            for i, v in enumerate(gen.images):
                images[offset + i] = offset + v
            gens.append(tuple(images))
        offset += g.degree
    return _from_images(degree, gens, math.prod(g.order for g in groups))


@dataclass(frozen=True)
class GroupSpec:
    """A parsed group request: its name, the group, and any display notes."""

    name: str
    group: FiniteGroup
    notes: tuple[str, ...] = field(default=())


def _parse_token(token: str, offset: int) -> tuple[FiniteGroup, list[str]]:
    """One product factor's group and display notes. Every InputError,
    a constructor's included, names the factor's position; a SizeError
    passes as it is."""
    notes: list[str] = []
    try:
        if m := re.fullmatch(r"C(\d+)", token):
            return cyclic(int(m.group(1))), notes
        if m := re.fullmatch(r"D(\d+)", token):
            n = int(m.group(1))
            notes.append(f"D{n} denotes the dihedral group of order {2 * n}")
            return dihedral(n), notes
        if m := re.fullmatch(r"Dih(\d+)", token):
            order = int(m.group(1))
            if order % 2 or order < 2:
                raise InputError(f"Dih{order}: dihedral order must be even and >= 2")
            notes.append(f"Dih{order} denotes the dihedral group of order {order}")
            return dihedral(order // 2), notes
        if m := re.fullmatch(r"S(\d+)", token):
            n = int(m.group(1))
            if n > 5:
                raise InputError(f"S{n} is out of the enumeration budget")
            return symmetric(n), notes
        if m := re.fullmatch(r"A(\d+)", token):
            n = int(m.group(1))
            if n > 5:
                raise InputError(f"A{n} is out of the enumeration budget")
            return alternating(n), notes
        if token == "Q8":
            return quaternion(), notes
        if token == "V4":
            return elementary_abelian(2, 2), notes
        if token == "M16":
            return modular16(), notes
        if m := re.fullmatch(r"E(\d+)", token):
            pp = PrimePower.from_value(int(m.group(1)))
            return elementary_abelian(pp.p, pp.n), notes
        if m := re.fullmatch(r"P([SG])L\(2,(\d+)\)", token):  # q must be a prime power
            q = PrimePower.from_value(int(m.group(2))).q
            return (psl2 if m.group(1) == "S" else pgl2)(q), notes
        if m := re.fullmatch(r"perm(\d+):(.*)", token, re.DOTALL):
            degree = int(m.group(1))
            if degree < 1:
                raise InputError("permutation degree must be >= 1")
            _within_table("permutation degree", degree)
            gens = parse_generators(m.group(2), degree)
            return generate_group(degree, gens), notes
        raise InputError(f"unknown group token {token!r}")
    except InputError as exc:
        raise InputError(f"parse error at position {offset}: {exc}") from None


def _split_product(text: str) -> list[tuple[str, int]]:
    """Split on 'x' separators outside parentheses; keeps each token's offset."""
    parts: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "x" and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    parts.append((text[start:], start))
    return parts


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a catalog name, raw generator spec, or 'x'-separated product."""
    cleaned = text.strip()
    if not cleaned:
        raise InputError("parse error at position 0: empty group spec")
    factors: list[FiniteGroup] = []
    notes: list[str] = []
    for token, offset in _split_product(cleaned):
        token = token.strip()
        if not token:
            raise InputError(f"parse error at position {offset}: empty product factor")
        group, token_notes = _parse_token(token, offset)
        factors.append(group)
        notes.extend(token_notes)
    group = factors[0] if len(factors) == 1 else direct_product(factors)
    return GroupSpec(name=cleaned, group=group, notes=tuple(notes))


# Groups covered by `verify --catalog`; everything of order <= 60 plus the
# order-16 2-groups. PSL(2,7) stays out (order 168 makes the full identity
# suite noticeably slower); it remains available to every other command.
CATALOG_NAMES: tuple[str, ...] = (
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "E4", "E8", "E9", "E27", "V4", "Q8",
    "D4", "D5", "D6", "D8", "M16",
    "S3", "S4", "A4", "A5",
    "PSL(2,4)", "PSL(2,5)", "PGL(2,3)",
    "C2xC2xC3",
)


# (order, builder, name) per model, built only for a group of its order; at 60, q = 5 names A5
_MODELS = ([(order, partial(psl2, q), ("psl", q)) for q, (order, _) in _PSL_TABLES.items()]
           + [(24, partial(pgl2, 3), ("pgl", 3)), (120, partial(symmetric, 5), ("pgl", 5))])
_RECOGNITION: dict[int, dict[tuple, tuple[str, int]]] = {}  # order -> {model's key: name}


def recognize_projective(group: FiniteGroup) -> tuple[str, int] | None:
    """Identify a group as PSL(2,q) (q in the supported set), PGL(2,3), or PGL(2,5).

    Matching is by `FiniteGroup.iso_key` (order, abelian, exponent and
    element-order histogram), which separates these groups from everything
    else of the same order. PGL(2,5) is matched through its symmetric-group
    model on five points.
    """
    if group.order not in _RECOGNITION:
        _RECOGNITION[group.order] = {build().iso_key(): name
                                     for order, build, name in _MODELS if order == group.order}
    return _RECOGNITION[group.order].get(group.iso_key())
