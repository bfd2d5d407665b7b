"""Analytic formulas evaluated independently of any lattice, for cross-checking.

Closed forms for the factorization number of PSL(2,q) and PGL(2,q), the
classical census of PSL(2,q) subgroup types, and the known Möbius values for
p-groups and symmetric groups. Their lattice sizes are inputs, not computed
here: the caller wires in brute-force sizes when the group is small enough
to enumerate. The cyclic and dihedral families need no input beyond n: their
F2, lattice size and subgroup F2 sum are divisor sums, an oracle that
depends on neither the enumeration nor the pair test.

Where the published statements carry known transcription hazards (overlapping
branches for the symmetric-group Möbius value, even-characteristic census
counts), the result is flagged for confirmation against the lattice recursion
or the brute-force census instead of being silently "fixed".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InputError, SizeError

# The largest q accepted as a prime power, and the largest p `is_prime`
# tests: both trial-divide up to the square root, about 0.3 s at this bound.
Q_LIMIT = 10**12


@dataclass(frozen=True)
class PrimePower:
    p: int
    n: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise InputError(f"{self.p} is not prime")
        if self.n < 1:
            raise InputError("exponent must be >= 1")

    @property
    def q(self) -> int:
        return self.p ** self.n

    @classmethod
    def from_value(cls, q: int) -> "PrimePower":
        if q < 2:
            raise InputError(f"{q} is not a prime power")
        if q > Q_LIMIT:
            raise SizeError(f"q = {q} exceeds the bound {Q_LIMIT} on q")
        p = least_prime_factor(q)
        n = 0
        rest = q
        while rest % p == 0:
            rest //= p
            n += 1
        if rest != 1:
            raise InputError(f"{q} is not a prime power")
        return cls(p, n)


def least_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2, by trial division up to sqrt(n)."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(p: int) -> bool:
    """Primality by trial division; SizeError above Q_LIMIT, before any division."""
    if p > Q_LIMIT:
        raise SizeError(f"p = {p} exceeds the bound {Q_LIMIT} on p")
    return p >= 2 and least_prime_factor(p) == p


def _as_prime_power(q) -> PrimePower:
    return q if isinstance(q, PrimePower) else PrimePower.from_value(q)


# -- factorization numbers ----------------------------------------------------

_PSL_F2_TABLE = {
    2: 17, 3: 27, 5: 237, 7: 1_141, 9: 2_033, 11: 4_935,
    19: 17_223, 23: 48_261, 29: 68_799, 59: 780_695,
}

_PGL_F2_TABLE = {
    3: 177, 5: 1_103, 7: 3_083, 9: 4_919, 11: 15_549, 13: 14_529,
    17: 31_093, 19: 58_429, 23: 111_567, 25: 99_527, 27: 144_297, 29: 192_349,
}


def f2_psl_closed(q, lattice_size: int) -> int:
    """Factorization number of PSL(2,q) from the published closed form.

    The special-value table is consulted first; outside it the three branches
    need n > 1. `lattice_size` is |L(PSL(2,q))|, supplied by the caller.
    """
    pp = _as_prime_power(q)
    value = pp.q
    if value in _PSL_F2_TABLE:
        return _PSL_F2_TABLE[value]
    volume = value * (value * value - 1)
    if pp.p == 2 and pp.n > 1:
        return 2 * lattice_size + 2 * volume - 1
    if pp.p > 2 and pp.n > 1:
        if ((value - 1) // 2) % 2 == 1:
            return 2 * lattice_size + volume - 1
        return 2 * lattice_size - 1
    raise DomainError(f"no closed-form branch covers q = {value}")


def f2_pgl_closed(q, lattice_g: int, lattice_m: int) -> int:
    """Factorization number of PGL(2,q), q odd; M is its PSL(2,q) subgroup.

    `lattice_g` and `lattice_m` are |L(PGL(2,q))| and |L(M)|; they only enter
    the q > 29 branches.
    """
    pp = _as_prime_power(q)
    if pp.p == 2:
        raise DomainError("PGL(2,q) = PSL(2,q) in characteristic 2")
    value = pp.q
    if value in _PGL_F2_TABLE:
        return _PGL_F2_TABLE[value]
    volume = value * (value * value - 1)
    if pp.n % 2 == 0 or pp.p % 4 == 1:
        return 3 * volume + 4 * lattice_g - 2 * lattice_m - 3
    return 4 * volume + 4 * lattice_g - 2 * lattice_m - 3


# -- the cyclic and dihedral families ------------------------------------------


def f2_cyclic(n: int) -> int:
    """F2(C_n) = tau(n^2). C_n has one subgroup per divisor of n, and HK = C_n
    exactly when lcm(|H|, |K|) = n; the ordered divisor pairs of n with lcm d
    are as many as the divisors of d^2."""
    return len(_divisors(n * n))


def f2_dihedral(n: int) -> int:
    """F2 of the dihedral group D_2n of order 2n, n >= 1.

    Its subgroups are the rotation groups R_d = <r^(n/d)> (order d) and the
    dihedral H_(d,i) = <r^(n/d), r^i s> (order 2d), 0 <= i < n/d, one of each
    kind per divisor d of n; |HK| = |H||K| / |H meet K|. Over ordered divisor
    pairs (a, b) of n:
      lcm(a, b) = n: R_a with each H_(b,j) and H_(a,i) with R_b, 2n/b pairs
        summed symmetrically, and every H_(a,i), H_(b,j), (n/a)(n/b) pairs,
        since two dihedral subgroups share a reflection for a fraction
        1/gcd(n/a, n/b) = lcm(a, b)/n of the (i, j);
      lcm(a, b) = n/2, n even: the (n/a)(n/b)/2 dihedral pairs sharing no
        reflection, whose product has 4 lcm(a, b) = 2n elements.
    """
    total = 0
    divisors = _divisors(n)
    for a in divisors:
        for b in divisors:
            join = math.lcm(a, b)
            if join == n:
                total += 2 * n // b + (n // a) * (n // b)
            elif 2 * join == n:
                total += (n // a) * (n // b) // 2
    return total


def _family_counts(lattice_size: int, f2: int, f2_sum: int) -> dict[str, int]:
    """The exact fields a `verify` report derives from |L|, F2 and the subgroup
    F2 sum: sd is f2_sum over |L|^2, and 2|E| = |L|^2 - f2_sum."""
    return {"lattice_size": lattice_size, "f2": f2, "f2_sum": f2_sum,
            "two_e": lattice_size ** 2 - f2_sum}


def cyclic_counts(n: int) -> dict[str, int]:
    """|L(C_n)| = tau(n), F2, the sum of F2 over all subgroups (one C_d per
    d | n) and 2|E|, from n alone, with no group built."""
    divisors = _divisors(n)
    return _family_counts(len(divisors), f2_cyclic(n), sum(map(f2_cyclic, divisors)))


def dihedral_counts(n: int) -> dict[str, int]:
    """As `cyclic_counts`, for D_2n: every subgroup is C_d (one per d | n) or
    D_2d (n/d of them), so |L| = tau(n) + sigma(n) and the subgroup F2 sum is
    the sum over d | n of tau(d^2) + (n/d) F2(D_2d)."""
    divisors = _divisors(n)
    return _family_counts(len(divisors) + sum(divisors), f2_dihedral(n),
                          sum(f2_cyclic(d) + n // d * f2_dihedral(d) for d in divisors))


# -- the subgroup census of PSL(2,q) -------------------------------------------

STATED = "stated"
STATED_UNVERIFIED = "stated_unverified"
NOT_STATED = "not_stated"


@dataclass(frozen=True)
class CensusEntry:
    family: str
    label: str
    param: int | None
    count: int | None
    status: str
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "family": self.family,
            "label": self.label,
            "param": self.param,
            "count": self.count if self.count is not None else "not stated",
            "status": self.status,
        }
        if self.note:
            out["note"] = self.note
        return out


def _divisors(n: int) -> list[int]:
    """The divisors of n, ascending, found in pairs (d, n // d) with d <= sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def ratio_text(numerator: int, denominator: int) -> str:
    """numerator/denominator, denominator > 0, in lowest terms as str(Fraction)
    prints it: a whole number alone, else "p/q" with the sign on p."""
    common = math.gcd(numerator, denominator)
    p, q = numerator // common, denominator // common
    return str(p) if q == 1 else f"{p}/{q}"


def _integral(volume: int, divisor: int, family: str, label: str, param,
              status: str, note: str = "") -> CensusEntry:
    """The entry counting volume / divisor, or flagged when that is not an integer."""
    if volume % divisor:
        return CensusEntry(family, label, param, None, STATED_UNVERIFIED,
                           (note + "; " if note else "")
                           + f"formula value {ratio_text(volume, divisor)} is not an integer")
    return CensusEntry(family, label, param, volume // divisor, status, note)


def dickson_census(q) -> list[CensusEntry]:
    """Per-type subgroup counts of PSL(2,q) for q >= 4.

    Families with no published count (elementary abelian and the semidirect
    family) are emitted with count "not stated" so a caller holding the full
    lattice can fill them by subtraction. For even q the dihedral/alternating
    count formulas are flagged unverified: they are stated for odd
    characteristic and may fail to be integers.
    """
    pp = _as_prime_power(q)
    value = pp.q
    if value < 4:
        raise InputError("the census needs q >= 4")
    volume = value * (value * value - 1)
    even = pp.p == 2
    # torus orders: (q-1)/2 and (q+1)/2 for odd q, q-1 and q+1 for even q
    t_minus = value - 1 if even else (value - 1) // 2
    t_plus = value + 1 if even else (value + 1) // 2
    entries: list[CensusEntry] = []

    for torus, count in ((t_minus, value * (value + 1) // 2),
                         (t_plus, value * (value - 1) // 2)):
        for d in _divisors(torus):
            if d > 1:
                entries.append(CensusEntry("cyclic", f"C{d}", d, count, STATED))

    dihedral_status = STATED_UNVERIFIED if even else STATED
    dihedral_note = "odd-characteristic formula" if even else ""
    entries.append(_integral(volume, 24, "dihedral", "D4 (order 4)", 2,
                             dihedral_status, dihedral_note))
    for torus in (t_minus, t_plus):
        for d in _divisors(torus):
            if d > 2:
                entries.append(_integral(volume, 4 * d, "dihedral",
                                         f"D{2 * d} (order {2 * d})", d,
                                         dihedral_status, dihedral_note))

    entries.append(_integral(volume, 24, "alt4", "A4", None,
                             dihedral_status, dihedral_note))
    if value % 8 == 7:
        entries.append(_integral(volume, 24, "sym4", "S4", None, STATED))
    if value % 10 in (1, 9) or pp.p == 5:
        status = STATED_UNVERIFIED if value == 5 else STATED
        note = "counts proper copies only; not checkable inside the group itself" \
            if value == 5 else ""
        entries.append(_integral(volume, 60, "alt5", "A5", None, status, note))

    for m in _divisors(pp.n):
        sub_q = pp.p ** m
        sub_volume = sub_q * (sub_q * sub_q - 1)
        entries.append(_integral(volume, sub_volume, "psl",
                                 f"PSL(2,{sub_q})", m, STATED))

    for m in range(1, pp.n + 1):
        entries.append(CensusEntry("elementary_abelian", f"C{pp.p}^{m}", m,
                                   None, NOT_STATED))
    for m in range(1, pp.n + 1):
        for d in _divisors(math.gcd(t_minus, pp.p ** m - 1)):
            if d > 1:
                entries.append(CensusEntry("semidirect", f"C{pp.p}^{m}:C{d}", d,
                                           None, NOT_STATED))
    return entries


# -- Möbius closed forms --------------------------------------------------------


def mobius_hall(p: int, order_exponent: int, elementary_abelian: bool) -> int:
    """Bottom-to-top Möbius value of a p-group of order p^n.

    Zero unless the group is elementary abelian, where it is
    (-1)^n * p^binomial(n, 2).
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if order_exponent < 0:
        raise InputError("order exponent must be >= 0")
    if not elementary_abelian:
        return 0
    n = order_exponent
    return (-1) ** n * p ** (n * (n - 1) // 2)


@dataclass(frozen=True)
class MobiusSymmetricValue:
    """Transcribed Möbius number of a symmetric group, with its provenance rule.

    The published branches overlap and conflict at n = 4, so any value with
    `check_by_recursion` set must be confirmed against the lattice recursion
    before use.
    """

    value: int
    rule: str
    check_by_recursion: bool


def mobius_symmetric(n: int) -> MobiusSymmetricValue:
    if n < 2:
        raise InputError("defined for n >= 2")
    if is_prime(n):
        return MobiusSymmetricValue(
            (-1) ** (n - 1) * math.factorial(n) // 2, "n prime", False)
    if is_prime(n - 1) and (n - 1) % 4 == 3:
        return MobiusSymmetricValue(
            -math.factorial(n), "n-1 prime, congruent 3 mod 4", True)
    if n == 22:
        return MobiusSymmetricValue(math.factorial(n) // 2, "n = 22", True)
    return MobiusSymmetricValue(-math.factorial(n) // 2, "otherwise", True)


# -- brute-force census comparison ----------------------------------------------


def _iso_key(order: int, abelian: bool, histogram: dict[int, int]) -> tuple:
    """(order, abelian, exponent, element-order histogram): separates every
    isomorphism type occurring in the target groups."""
    exponent = 1
    for k in histogram:
        exponent = math.lcm(exponent, k)
    return (order, abelian, exponent, tuple(sorted(histogram.items())))


def _group_iso_key(group) -> tuple:
    return _iso_key(group.order, group.is_abelian(), group.element_order_histogram())


def _reference_key(entry: CensusEntry, pp: PrimePower, group) -> tuple | None:
    from . import catalog

    if entry.family == "cyclic":
        return _group_iso_key(catalog.cyclic(entry.param))
    if entry.family == "dihedral":
        return _group_iso_key(catalog.dihedral(entry.param))
    if entry.family == "alt4":
        return _group_iso_key(catalog.alternating(4))
    if entry.family == "sym4":
        return _group_iso_key(catalog.symmetric(4))
    if entry.family == "alt5":
        return _group_iso_key(catalog.alternating(5))
    if entry.family == "psl":
        sub_q = pp.p ** entry.param
        if sub_q == pp.q:  # the whole group: key it as enumerated, not built again
            return _group_iso_key(group)
        if sub_q in catalog.PSL_SUPPORTED:
            return _group_iso_key(catalog.psl2(sub_q))
        return None
    if entry.family == "elementary_abelian":
        return _group_iso_key(catalog.elementary_abelian(pp.p, entry.param))
    return None


def census_comparison(lattice, q) -> dict:
    """Analytic census vs the brute-force isomorphism-type census of PSL(2, q)'s lattice.

    Conjugate subgroups are isomorphic, so the brute-force census keys each
    conjugacy class once, by its representative cut as its own group
    (`SubgroupLattice.standalone_group`) and keyed as the reference groups
    are, and counts its size (`SubgroupLattice.classes`). Entries sharing an
    isomorphism type are compared as a sum (the families partition the
    subgroups); a comparison is made only when every entry for that type
    carries a stated integral count. Types not covered by any entry are
    reported under "unmatched", which also fills the not-stated families.
    """
    pp = _as_prime_power(q)
    entries = dickson_census(pp)

    brute: dict[tuple, int] = {}
    for rep, size in lattice.classes():
        key = _group_iso_key(lattice.standalone_group(rep))
        brute[key] = brute.get(key, 0) + size

    keys = [_reference_key(entry, pp, lattice.group) for entry in entries]
    keyed: dict[tuple | None, list[CensusEntry]] = {}
    for entry, key in zip(entries, keys):
        keyed.setdefault(key, []).append(entry)

    rows = []
    covered: set[tuple] = set()
    for entry, key in zip(entries, keys):
        brute_count = brute.get(key) if key is not None else None
        group_entries = keyed[key] if key is not None else [entry]
        comparable = (
            key is not None
            and brute_count is not None
            and all(e.status == STATED and e.count is not None for e in group_entries)
        )
        if key is not None:
            covered.add(key)
        match = None
        if comparable:
            match = sum(e.count for e in group_entries) == brute_count
        row = entry.to_json_dict()
        row["brute_count"] = brute_count
        row["match"] = match
        rows.append(row)

    unmatched = [
        {
            "description": f"order {key[0]}, "
                           f"{'abelian' if key[1] else 'nonabelian'}, "
                           f"exponent {key[2]}",
            "brute_count": count,
        }
        for key, count in sorted(brute.items())
        if key not in covered
    ]
    return {"q": pp.q, "entries": rows, "unmatched": unmatched}
