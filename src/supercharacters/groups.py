"""Finite abelian groups of shape C_p x (C_2)^d for d <= 3 - p an odd prime,
or absent - with exact characters, subgroups, quotients, and automorphisms.

Elements and characters are exponent vectors against the fixed generator list
(the odd-order generator first, then the involutions), stored in lexicographic
order so that index 0 is always the identity / trivial character.  A character
with exponents (m, n, o) takes the value zeta_p^(m*i) * (-1)^(n*j + o*k) at
the element with exponents (i, j, k).
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import lcm, prod

from .cyclotomic import CycInt, is_odd_prime

# the largest p that GroupSpec accepts, for the CLI, JSONL records and the
# enumerators alike
DEFAULT_MAX_P = 199

# the factor shape of each family, None standing for its odd prime p
_FAMILY_SHAPES = {
    "Trivial": (), "C2": (2,), "Klein": (2, 2), "C2cubed": (2, 2, 2),
    "Cp": (None,), "CpC2": (None, 2), "CpC2C2": (None, 2, 2),
}


# sets a field of a _Frozen instance, past the __setattr__ that forbids it
_set = object.__setattr__


class _Value:
    """Base of the value classes: _fields names the fields in constructor
    order, for a repr of the form ClassName(field=value, ...), and for
    equality: two values are equal when they are of the same class and
    their field tuples are equal."""

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._astuple() == other._astuple()


class _Frozen(_Value):
    """Base of the immutable value classes, hashed by their field tuple.
    The one __init__ takes the fields named in _fields, by position or by
    keyword, and sets them with _set; a class that checks its arguments
    calls it last.  Assigning or deleting an attribute raises
    AttributeError.  cached_property still works, since it writes to the
    instance __dict__.  No methods are generated when the module loads,
    which would cost an exec per class and the import of inspect and ast in
    every CLI call (see "Start-up" in the README)."""

    def __init__(self, *args, **kwargs):
        fields, given = self._fields, len(args)
        if kwargs or given != len(fields):
            name = type(self).__name__
            if given > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} fields, got {given} positionally")
            for f in kwargs:
                if f not in fields or fields.index(f) < given:
                    raise TypeError(f"{name}() got a repeated or unknown field {f!r}")
            missing = [f for f in fields[given:] if f not in kwargs]
            if missing:
                raise TypeError(f"{name}() is missing fields {missing}")
            args += tuple(map(kwargs.__getitem__, fields[given:]))
        # set in field order, so the instances of a class share one key layout
        for f, value in zip(fields, args):
            _set(self, f, value)

    def __hash__(self):
        # not kept in the instance: on CPython 3.11 the first write to an
        # instance __dict__ makes every later field read slower
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroupSpec(_Frozen):
    """One of the supported abelian groups, with derived data cached."""

    _fields = ("factors",)

    def __init__(self, factors: tuple[int, ...]):
        """The one gate for a group, however it is named: plain int factors,
        at most one odd factor, which leads, is at most DEFAULT_MAX_P and is
        prime, and at most three factors 2 (two beside p).  The bound is
        tested before primality, so a huge factor never reaches trial
        division."""
        # bool is an int subclass, but true and false are not numbers
        if any(type(f) is not int for f in factors):
            raise ValueError(f"factors must be integers, got {factors}")
        odd = [f for f in factors if f != 2]
        if len(odd) > 1:
            raise ValueError(f"at most one odd factor is supported, got {factors}")
        if odd and odd[0] > DEFAULT_MAX_P:
            raise ValueError(f"p={odd[0]} exceeds the bound {DEFAULT_MAX_P}")
        if odd and factors[0] != odd[0]:
            raise ValueError(f"odd factor must be a leading odd prime, got {factors}")
        if odd and not is_odd_prime(odd[0]):
            raise ValueError(f"p must be an odd prime, got {odd[0]}")
        if len(factors) - len(odd) > (2 if odd else 3):
            raise ValueError(f"unsupported factor shape {factors}")
        super().__init__(factors)

    @classmethod
    def of(cls, factors: tuple[int, ...]) -> "GroupSpec":
        """Interned constructor so equal specs share cached tables."""
        return cls._interned(*factors)

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def _interned(cls, *factors: int) -> "GroupSpec":
        # typed, so (2, 2.0), equal to (2, 2), still meets the gate
        return cls(factors)

    @classmethod
    def cp(cls, p: int) -> "GroupSpec":
        return cls.from_family("Cp", p)

    @classmethod
    def klein(cls) -> "GroupSpec":
        return cls.of((2, 2))

    @classmethod
    def cp_c2(cls, p: int) -> "GroupSpec":
        return cls.from_family("CpC2", p)

    @classmethod
    def c2_cubed(cls) -> "GroupSpec":
        return cls.of((2, 2, 2))

    @classmethod
    def cp_c2_c2(cls, p: int) -> "GroupSpec":
        return cls.from_family("CpC2C2", p)

    @classmethod
    def from_family(cls, family: str, p: int | None = None) -> "GroupSpec":
        """The group of a family name, given p for the C_p families and no p
        for the 2-groups.  Only the name is checked here, with the type of p
        and p = 2, which would name a 2-group; the bound and primality are
        the gate's, in GroupSpec.__init__."""
        shape = _FAMILY_SHAPES.get(family)
        if shape is None:
            raise ValueError(f"unknown family {family!r}")
        if None not in shape:
            if p is not None:
                raise ValueError(f"p does not apply to family {family}")
            return cls.of(shape)
        if p is None:
            raise ValueError(f"family {family} needs p")
        if type(p) is not int:
            raise ValueError(f"p must be an integer, got {p!r}")
        if p == 2:
            raise ValueError("p must be an odd prime, got 2")
        return cls.of((p,) + shape[1:])

    @property
    def p(self) -> int | None:
        """The odd prime factor, if present."""
        return self.factors[0] if self.factors and self.factors[0] != 2 else None

    @property
    def dim2(self) -> int:
        return len(self.factors) - (1 if self.p else 0)

    @property
    def family(self) -> str:
        shape = self.factors if self.p is None else (None,) + self.factors[1:]
        return next(f for f, s in _FAMILY_SHAPES.items() if s == shape)

    @property
    def order(self) -> int:
        return prod(self.factors)

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All exponent vectors in lexicographic order; index 0 is the identity."""
        return tuple(itertools.product(*(range(f) for f in self.factors)))

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {exps: i for i, exps in enumerate(self.elements)}

    def reduce(self, exps) -> tuple[int, ...]:
        """The exponents reduced mod the factors: the one check of an
        exponent sequence from outside, so of index_of, char_value, AutMap
        and aut_from_parts.  Each must be a plain int: 2.0 and True would
        reduce to numbers that equal an index key but are not ints."""
        if len(exps) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} exponents, got {len(exps)}")
        if any(type(e) is not int for e in exps):
            raise ValueError(f"exponents must be plain ints, got {tuple(exps)!r}")
        return tuple(e % f for e, f in zip(exps, self.factors))

    def index_of(self, exps) -> int:
        """The index of an element or character given by an exponent sequence."""
        return self._index[self.reduce(exps)]

    @cached_property
    def _split(self) -> tuple[int | None, int, int]:
        """(p, d, 2^d - 1): index i splits into its p exponent i >> d and its
        involution bits i & (2^d - 1)."""
        d = self.dim2
        return self.p, d, (1 << d) - 1

    def mul_idx(self, i: int, j: int) -> int:
        """Index of the product: p exponents add mod p, involution bits XOR."""
        p, d, mask = self._split
        if p is None:
            return i ^ j
        return ((i >> d) + (j >> d)) % p << d | (i ^ j) & mask

    @cached_property
    def mult_table(self) -> tuple[tuple[int, ...], ...]:
        n = self.order
        return tuple(tuple(self.mul_idx(i, j) for j in range(n)) for i in range(n))

    def convolve(self, a, b) -> list[int]:
        """The product of the sums of the element indices a and b in the
        group algebra: entry x counts the pairs (i, j) in a x b with i j = x."""
        table = self.mult_table
        coeff = [0] * len(table)
        for x in a:
            row = table[x]
            for y in b:
                coeff[row[y]] += 1
        return coeff

    def order_of_index(self, i: int) -> int:
        return lcm(*(f for e, f in zip(self.elements[i], self.factors) if e))

    # -- characters ---------------------------------------------------------

    def pairing_parts(self, chi_exps, g_exps) -> tuple[int, int]:
        """(sign, t) with chi(g) = sign * zeta_p^t; t is 0 when there is no p part."""
        # the odd slot contributes to t, the involution slots to the sign
        t = 0
        s = 0
        for c, g, f in zip(chi_exps, g_exps, self.factors):
            if f == 2:
                s += c * g
            else:
                t = (c * g) % f
        return (-1 if s % 2 else 1, t)

    def char_value(self, chi, g) -> "CycInt | int":
        """chi(g) for exponent sequences chi and g, reduced first: +-zeta_p^t
        off pairing_parts as a CycInt, or +-1 without a p part; no table."""
        sign, t = self.pairing_parts(self.reduce(chi), self.reduce(g))
        return sign if self.p is None else sign * CycInt.root_power(self.p, t)

    @cached_property
    def _kernel(self) -> tuple[int, tuple[int, ...]]:
        """(width, pos): the key encoding that both key tables and
        sigma_value share.  A key holds one signed digit of `width` bits per
        power zeta_p^t with t < p - 1, the coefficient that
        CycInt.from_power_counts stores: the count at zeta_p^t less the
        count at zeta_p^(p-1).  Two count vectors are the same element of
        Z[zeta_p] exactly when they differ by a constant vector, so keys
        are equal exactly when the values are.  pos[t] is the key of
        zeta_p^t: the digit 1 at power t, and -1 at every power for
        t = p - 1.  Without a p part, pos is (1,) and a key is its value.

        A character moves each digit by at most 1, so a sum of at most 2n
        characters keeps every digit below 2^(width-1) in absolute value,
        where a signed digit is still read back exactly."""
        width = (4 * self.order).bit_length()
        if self.p is None:
            return width, (1,)
        power = [1 << (width * t) for t in range(self.p - 1)]
        return width, (*power, -sum(power))

    def _key_rows(self, xs) -> tuple[tuple[int, ...], ...]:
        """Per character index c, the key of chi_c at each index x in xs:
        +-pos[a_c * a_x % p], the a being p exponents (index >> d), negated
        when the involution bits of c and x share an odd number of ones
        (without a p part both exponents are 0, and pos is (1,)).  Every
        entry is an object of pos or of its negation, so a table costs one
        reference per entry."""
        p, d, mask = self._split
        pos = self._kernel[1]
        neg = tuple(-q for q in pos)
        q = p or 1
        return tuple(
            tuple((neg if (c & x & mask).bit_count() & 1 else pos)[(c >> d) * (x >> d) % q]
                  for x in xs)
            for c in range(self.order))

    @cached_property
    def _lead_rows(self) -> tuple[tuple[int, ...], ...]:
        """The key rows at the 2^(d+1) lead indices x < 2 << d, whose p
        exponent is 0 or 1."""
        return self._key_rows(range(2 << self.dim2))

    @cached_property
    def _key_table(self) -> tuple[tuple[int, ...], ...]:
        """The character table as keys, n rows of n: built only when a sum
        is taken at every element, never by the enumerator, which reads the
        lead rows (at p = 199 this table holds 633,616 entries)."""
        return self._key_rows(range(self.order))

    def lead_keys(self, chars) -> list[int]:
        """The keys of sigma_X at the 2^(d+1) lead indices, the first
        2 << d entries of sigma_keys(chars): column sums of the lead rows."""
        return _column_sums(self._lead_rows, chars)

    @cached_property
    def _lead_table(self) -> tuple[dict, dict, itertools.count]:
        """(block -> lead ids, key -> id, the id counter), filled by
        lead_ids."""
        return {}, {}, itertools.count()

    def lead_ids(self, block: tuple[int, ...]) -> tuple[int, ...]:
        """lead_keys(block) as small ids, equal exactly when the keys are;
        computed once per block tuple and group.  Every key is interned
        through one dict, so each distinct key is stored once (at p = 199,
        3,602 values for 59,552 keys over 7,444 blocks).  setdefault takes
        a fresh id from the counter for every key; a key already interned
        keeps its own, so each id stands for one key."""
        table, ids, fresh = self._lead_table
        out = table.get(block)
        if out is None:
            out = table[block] = tuple(map(ids.setdefault, self.lead_keys(block), fresh))
        return out

    def sigma_keys(self, chars) -> list[int]:
        """Keys of sigma_X(x), the sum of chi_c(x) over the character indices
        c in X, at every element index x; keys are equal exactly when the
        values are (see _kernel).  Column sums of the key table.  The
        pairing is symmetric, so sigma_keys(block)[c] also sums chi_c over
        a block of elements."""
        return _column_sums(self._key_table, chars)

    def sigma_value(self, key: int) -> "CycInt | int":
        """The value a key from sigma_keys stands for."""
        p = self.p
        if p is None:
            return key
        width = self._kernel[0]
        base = 1 << width
        coeffs = []
        for _ in range(p - 1):
            digit = key & (base - 1)
            if digit >= base >> 1:
                digit -= base
            coeffs.append(digit)
            key = (key - digit) >> width
        return CycInt(p, tuple(coeffs))

    @cached_property
    def multiplier_perm(self) -> tuple[int, ...] | None:
        """Index permutation of the multiplier x -> x^m for an odd m that is a
        primitive root r mod p: (a, v) -> (r*a % p, v).  Its powers are all
        the multipliers of G.  chi_c(x^m) = chi_{c^m}(x), so it moves the
        characters by the same index permutation.  None for 2-groups, where
        every multiplier is the identity."""
        p, d, mask = self._split
        if p is None:
            return None
        r = _primitive_root(p)
        return tuple(r * a % p << d | v for a in range(p) for v in range(mask + 1))

    # -- subgroups ----------------------------------------------------------

    def subgroup(self, member_indices) -> "Subgroup":
        members = set(member_indices)
        # before the closure test, which reduces an index past the group
        # (mul_idx takes 3 + 3 to 0 in C_3) and would pass
        if any(type(i) is not int or not 0 <= i < self.order for i in members):
            raise ValueError(f"subgroup members must be plain ints in range({self.order})")
        members = tuple(sorted(members))
        if 0 not in members:
            raise ValueError("a subgroup must contain the identity")
        gens, generated = _generate(self.mul_idx, {0}, members)
        # the greedy generators generate a subgroup holding every member, so
        # it equals the member set exactly when that set is closed
        extra = generated.difference(members)
        if extra:
            raise ValueError(f"not closed under products: generates index {min(extra)}")
        return Subgroup(self, members, tuple(gens))

    @cached_property
    def all_subgroups(self) -> tuple["Subgroup", ...]:
        """Every subgroup; each splits as (p part) x (F_2 subspace of the 2
        part).  Index i is (p exponent) << d | (involution bits), so the
        subspaces are the subgroups of the XOR table of F_2^d."""
        d = self.dim2
        xor = [[v ^ w for w in range(1 << d)] for v in range(1 << d)]
        p_parts = [(0,)] if self.p is None else [(0,), range(self.p)]
        subs = [self.subgroup([a << d | w for a in p_part for w in space])
                for space in _subgroup_lattice(xor).values() for p_part in p_parts]
        return tuple(sorted(subs, key=lambda h: (h.order, h.members)))

    @lru_cache(maxsize=None)
    def complementary_pairs(self) -> tuple[tuple["Subgroup", "Subgroup"], ...]:
        """Unordered pairs of proper nontrivial subgroups that intersect trivially
        and jointly generate the group; the larger factor is listed first.
        Computed once per group."""
        subs = [h for h in self.all_subgroups if 1 < h.order < self.order]
        pairs = []
        for i, h1 in enumerate(subs):
            for h2 in subs[i + 1 :]:
                if h1.order * h2.order != self.order:
                    continue
                if len(set(h1.members) & set(h2.members)) == 1:
                    big, small = sorted((h1, h2), key=lambda h: (-h.order, h.members))
                    pairs.append((big, small))
        return tuple(sorted(pairs, key=lambda pr: (-pr[0].order, pr[0].members, pr[1].members)))

    def subgroup_embedding(self, h: "Subgroup") -> "SubgroupEmbedding":
        if h.group != self:
            raise ValueError("subgroup belongs to a different group")
        return _embedding(self, h.members)

    def quotient(self, n: "Subgroup") -> "QuotientMap":
        if n.group != self:
            raise ValueError("subgroup belongs to a different group")
        return _quotient(self, n.members)

    # -- automorphisms ------------------------------------------------------

    def aut_from_parts(self, u: int | None, mat: tuple[tuple[int, ...], ...]) -> "AutMap":
        """Automorphism from a unit u on the p part and an invertible F_2 matrix
        on the involution part."""
        return AutMap(self, _aut_images(self, u, mat))

    @lru_cache(maxsize=None)
    def aut_group(self) -> tuple["AutMap", ...]:
        """Every automorphism: unit action on the p part times GL(d, 2),
        listed unit by matrix, so in ascending order of generator images.
        Index i is the map _aut_map(self, i)."""
        units = self.p - 1 if self.p else 1
        return tuple(_aut_map(self, i) for i in range(units * len(_gl2_matrices(self.dim2))))

    @lru_cache(maxsize=None)
    def subgroups_of_aut(self) -> tuple[tuple[int, ...], ...]:
        """All subgroups of Aut(G), each the ascending tuple of its members'
        indices in aut_group(), sorted by order, then by members.  Computed
        once per group, without building an AutMap.

        Without p, Aut(G) is GL(d, 2).  For d = 3 its 179 subgroups are the
        generated constant of _gl32_generators, so no command builds
        _gl2_table(3) or its lattice; for d <= 2 _subgroup_lattice runs on
        the product table, of 1 or 6 rows.  With p, Aut(G) is U x GL(d, 2),
        U the units mod p, with d <= 2.  A subgroup S projects onto <r^f> in
        U for a primitive root r and some f dividing p - 1; let K be its
        part inside GL(d, 2).  For any (r^f, b) in S, S = <(r^f, b), K>, and
        only the coset bK of b matters.  So each S is the closure, under the
        index arithmetic of _aut_arithmetic, of (r^f, b) and K for some f, K
        in the lattice of GL(d, 2) and one b per coset of K; every such
        closure is a subgroup, and the set drops the repeats."""
        if self.factors == (2, 2, 2):
            return tuple(_gl32_generators())
        mul, e = _aut_arithmetic(self)
        gl = _gl2_table(self.dim2)
        kernels = _subgroup_lattice(gl).values()
        found = set(kernels)
        if self.p is not None:
            p, k = self.p, len(gl)
            units = [pow(_primitive_root(p), f, p) for f in range(1, p) if (p - 1) % f == 0]
            # a matrix with unit 1 keeps its GL(d, 2) index, so K's members
            # are indices of Aut(G) as they stand; b is the least of bK
            for u, kernel in itertools.product(units, kernels):
                for b in {min(gl[a][x] for x in kernel) for a in range(k)}:
                    found.add(tuple(sorted(_close(mul, {e}, [(u - 1) * k + b, *kernel]))))
        # aut_group() ascends by generator images, so sorting member indices
        # sorts the subgroups by order, then by generator images
        return tuple(sorted(found, key=lambda m: (len(m), m)))


def _column_sums(rows, chars) -> list[int]:
    """The sum of rows[c] over c in chars, column by column; zero keys when
    chars is empty."""
    return list(map(sum, zip(*map(rows.__getitem__, chars)))) or [0] * len(rows[0])


def _primitive_root(p: int) -> int:
    """The least generator of the units mod the odd prime p."""
    qs, m, q = [], p - 1, 2
    while m > 1:
        if m % q == 0:
            qs.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return next(r for r in range(2, p) if all(pow(r, (p - 1) // q, p) != 1 for q in qs))


@lru_cache(maxsize=None)
def _gl2_matrices(d: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Invertible d x d matrices over F_2 in lexicographic order, built row
    by row: each row, in ascending order, is a vector outside the span of
    the rows before it, so no matrix is ever tested for rank."""
    rows = [tuple(v >> k & 1 for k in reversed(range(d))) for v in range(1 << d)]
    mats = [((), {0})]  # (rows so far, their span)
    for _ in range(d):
        mats = [(m + (rows[v],), span | {x ^ v for x in span})
                for m, span in mats for v in range(1 << d) if v not in span]
    return tuple(m for m, _ in mats)


def _f2_basis(vectors) -> list[int]:
    """Reduced echelon basis of the F_2 span of bit vectors held as ints,
    by descending leading bit: each leading bit is set in its own vector
    only.  x ^ b is below x exactly when x has the leading bit of b."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = [min(b, b ^ v) for b in basis] + [v]
    return sorted(basis, reverse=True)


def _span(basis) -> list[int]:
    """Every XOR of a subset of basis, at the index whose bits select it,
    the first vector at the highest bit."""
    out = [0]
    for b in basis:
        out = [x ^ c for x in out for c in (0, b)]
    return out


def _pull_back(images, source: GroupSpec, target: GroupSpec) -> list[int]:
    """The character map chi -> chi o phi from Irr(target) to Irr(source),
    for the homomorphism phi: source -> target with index images `images`,
    as a list indexed by the characters of target: the transpose of phi.
    chi_(b, w)(a, v) = zeta_p^(ab) (-1)^popcount(w & v), so bit j of the
    image of chi_(b, w) is the parity of w against phi(bit j) and its p
    exponent is b times the p exponent of phi(1, 0); the p exponent is
    dropped when source has no p part and 0 when target has none."""
    ps, ds, _ = source._split
    pt, dt, mask = target._split
    bits = [sum((w & images[1 << j]).bit_count() % 2 << j for j in range(ds))
            for w in range(mask + 1)]
    if ps is None or pt is None:
        return bits * (pt or 1)
    m = images[1 << ds] >> dt
    return [b * m % ps << ds | w for b in range(pt) for w in bits]


class Subgroup(_Frozen):
    """A subgroup given by its sorted member indices and greedy generators."""

    _fields = ("group", "members", "generators")

    @property
    def order(self) -> int:
        return len(self.members)

    def generator_exps(self) -> list[list[int]]:
        return [list(self.group.elements[i]) for i in self.generators]


class SubgroupEmbedding(_Frozen):
    """A subgroup rebuilt as a standalone group plus the index maps in and out
    of the group that g.subgroup_embedding was called on."""

    _fields = ("group", "to_parent")

    @cached_property
    def from_parent(self) -> dict[int, int]:
        return {g: i for i, g in enumerate(self.to_parent)}


class QuotientMap(_Frozen):
    """A quotient group together with the index projection from the group
    that g.quotient was called on."""

    _fields = ("group", "projection")

    @cached_property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """Source indices over each quotient index, ascending."""
        out: list[list[int]] = [[] for _ in range(self.group.order)]
        for i, j in enumerate(self.projection):
            out[j].append(i)
        return tuple(tuple(f) for f in out)


@lru_cache(maxsize=None)
def _embedding(g: GroupSpec, members: tuple[int, ...]) -> SubgroupEmbedding:
    """The subgroup P x W (P the p part, W a subspace of F_2^d) as a group of
    its own: C_p if P is all of Z_p, times one C_2 per row of the reduced
    echelon basis of W.  Its index a << k | t maps to a << d | (XOR of the
    rows that the k bits of t select, the first row at the top bit)."""
    p, d, mask = g._split
    space = [i for i in members if i <= mask]
    basis = _f2_basis(space)
    has_p = len(space) < len(members)
    sub = GroupSpec.of(((p,) if has_p else ()) + (2,) * len(basis))
    to_parent = tuple(a << d | v for a in range(p if has_p else 1) for v in _span(basis))
    if sorted(to_parent) != list(members):
        raise ValueError("embedding does not cover the subgroup")
    return SubgroupEmbedding(sub, to_parent)


@lru_cache(maxsize=None)
def _quotient(g: GroupSpec, members: tuple[int, ...]) -> QuotientMap:
    """G / (P x W): C_p if P is trivial, times one C_2 per vector c_1 < ... <
    c_k, each the least vector outside the span of W and the earlier ones.
    Index a << d | v maps to the k bits that select the XOR of the c_j in
    the coset v + W, the first c_j at the top bit, after a when P is
    trivial."""
    p, d, mask = g._split
    space = [i for i in members if i <= mask]
    p_survives = p is not None and len(space) == len(members)
    gens = _generate(int.__xor__, space, range(mask + 1))[0]
    coset = [0] * (mask + 1)
    for t, x in enumerate(_span(gens)):
        for w in space:
            coset[x ^ w] = t
    k = len(gens)
    q_spec = GroupSpec.of(((p,) if p_survives else ()) + (2,) * k)
    if p_survives:
        projection = tuple(a << k | t for a in range(p) for t in coset)
    else:
        projection = tuple(coset) * (p or 1)
    return QuotientMap(q_spec, projection)


class AutMap(_Frozen):
    """An automorphism given by the images of the canonical generators."""

    _fields = ("group", "gen_images")

    def __init__(self, group: GroupSpec, gen_images: tuple[tuple[int, ...], ...]):
        g = group
        if len(gen_images) != len(g.factors):
            raise ValueError("one image per generator is required")
        for img in gen_images:
            if len(img) != len(g.factors):
                raise ValueError("image has wrong exponent length")
        super().__init__(g, tuple(g.reduce(img) for img in gen_images))
        for img, f in zip(self.gen_images, g.factors):
            if g.order_of_index(g._index[img]) != f:
                raise ValueError(f"image {img} does not have order {f}")
        # a unit on the p exponent and independent images of the involutions
        # give a bijection; an involution image of order 2 has no p part, so
        # its index is its bits
        if len(_f2_basis(self._bit_images)) != g.dim2:
            raise ValueError("generator images do not define a bijection")

    @property
    def _bit_images(self) -> list[int]:
        """Indices of the images of the involution generators."""
        g = self.group
        return [g._index[img] for img in self.gen_images[len(g.factors) - g.dim2:]]

    @cached_property
    def perm(self) -> tuple[int, ...]:
        """Index permutation x -> alpha(x).  Index i splits into its p exponent
        i >> d and its involution bits i & (2^d - 1); a generator of order p
        maps to a unit u times it and the involutions to bit patterns, so
        alpha(i) = (u * (i >> d) % p) << d | (XOR of the images of the bits)."""
        p, d, _ = self.group._split
        bits = _span(self._bit_images)
        if p is None:
            return tuple(bits)
        u = self.gen_images[0][0]
        return tuple(u * a % p << d | b for a in range(p) for b in bits)

    @cached_property
    def inverse_perm(self) -> tuple[int, ...]:
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return tuple(inv)

    @cached_property
    def char_perm(self) -> tuple[int, ...]:
        """Index permutation of Irr(G) under chi -> chi o alpha^(-1)."""
        return tuple(_pull_back(self.inverse_perm, self.group, self.group))


def _close(mul, have, gens) -> set:
    """The closure of the set `have` under right multiplication by gens,
    mul(x, s) being the product: from {identity}, the subgroup that gens
    generate, and from a subgroup inside that, the same.  O(|result| *
    len(gens)) products; in a finite group every inverse is a product of
    generators."""
    out = set(have)
    queue = list(out)
    while queue:
        x = queue.pop()
        for s in gens:
            z = mul(x, s)
            if z not in out:
                out.add(z)
                queue.append(z)
    return out


def _generate(mul, have, xs) -> tuple[list, set]:
    """The greedy generators of xs over the subgroup `have`: each x of xs, in
    order, that the closure of have under those before it does not reach;
    returned with the closure under all of them, which holds every x."""
    gens: list = []
    have = set(have)
    for x in xs:
        if x not in have:
            gens.append(x)
            have = _close(mul, have, gens)
    return gens, have


def _perm_table(perms) -> list[list[int]]:
    """Product table of a group of index permutations: entry [i][j] is the
    index in perms of perms[i] after perms[j]."""
    index = {a: i for i, a in enumerate(perms)}
    return [[index[tuple([a[k] for k in b])] for b in perms] for a in perms]


def _subgroup_lattice(table) -> dict[int, tuple[int, ...]]:
    """Every subgroup of the group with product table `table`, keyed by the
    bitmask of its member indices, valued by the sorted members.

    Cyclic extension: starting from the trivial subgroup, join each subgroup
    found with each cyclic subgroup of prime-power order it does not
    contain.  Every element is a product of its own powers of prime-power
    order, so every subgroup is generated by such cyclic subgroups and every
    one is reached.  A join K = <H, x> adds right cosets H y until each
    coset representative times each generator stays inside (Dimino's
    method).  The right cosets of H are numbered, with their bitmasks, once
    per queued H, so a join tracks the numbers of the cosets it reaches and
    ORs their masks at the end: n row lookups per queued H and one per
    coset representative.  Once K holds more than half the group it is the
    group."""
    n = len(table)
    e = next(i for i in range(n) if table[i][i] == i)
    cyclic: dict[int, int] = {}  # member mask -> least generator
    for x in range(n):
        mask, y = 1 << e, x
        while y != e:
            mask |= 1 << y
            y = table[y][x]
        if x != e and _is_prime_power(mask.bit_count()):
            cyclic.setdefault(mask, x)
    bits = [1 << y for y in range(n)]
    found = {1 << e: (e,)}
    queue = [(1 << e, ())]
    for h, gens in queue:
        joins = [x for c, x in cyclic.items() if c & ~h]
        if not joins:
            continue
        members = found[h]
        # right coset H y is number cid[y], with bitmask coset_mask[cid[y]]:
        # its members are distinct, so the sum of their bits is their OR
        cid: list = [None] * n
        coset_mask = []
        for y in range(n):
            if cid[y] is None:
                coset = [table[z][y] for z in members]
                for w in coset:
                    cid[w] = len(coset_mask)
                coset_mask.append(sum(map(bits.__getitem__, coset)))
        for x in joins:
            k_gens = gens + (x,)
            reached, reps = {cid[e]}, [e]
            for r in reps:
                row = table[r]
                for s in k_gens:
                    y = row[s]
                    if cid[y] not in reached:
                        reached.add(cid[y])
                        reps.append(y)
                if 2 * len(members) * len(reps) > n:
                    k = (1 << n) - 1
                    break
            else:
                k = sum(map(coset_mask.__getitem__, reached))
            if k not in found:
                found[k] = tuple(i for i in range(n) if k >> i & 1)
                queue.append((k, k_gens))
    return found


def _is_prime_power(n: int) -> bool:
    q = next(q for q in range(2, n + 1) if n % q == 0)
    while n % q == 0:
        n //= q
    return n == 1


@lru_cache(maxsize=None)
def _gl2_table(d: int) -> list[list[int]]:
    """The int product table of GL(d, 2), indexed as in _gl2_matrices:
    entry [a][b] is the index of a b.  A matrix is held as its d columns,
    each a vector index with the first coordinate at the top bit.  With E_ij
    the matrix unit (i != j), a (1 + E_ij) is a with column i added to
    column j, and these transvections generate GL(d, 2).  So the table is
    built by columns from the identity's: for c = b t with t a
    transvection, column c is column b mapped through right multiplication
    by t, one C-level map each; zip turns the columns into rows."""
    if d < 2:
        return [[0]]  # GL(0, 2) and GL(1, 2) are trivial
    cols = [tuple(sum(row[k] << (d - 1 - r) for r, row in enumerate(m)) for k in range(d))
            for m in _gl2_matrices(d)]
    index = {c: i for i, c in enumerate(cols)}
    right = [[index[c[:j] + (c[j] ^ c[i],) + c[j + 1:]] for c in cols]
             for i in range(d) for j in range(d) if i != j]
    e = index[tuple(1 << (d - 1 - k) for k in range(d))]
    column: list = [None] * len(cols)
    column[e] = list(range(len(cols)))
    queue = [e]
    for b in queue:
        for t in right:
            c = t[b]
            if column[c] is None:
                column[c] = list(map(t.__getitem__, column[b]))
                queue.append(c)
    return list(map(list, zip(*column)))


@lru_cache(maxsize=None)
def _aut_arithmetic(g: GroupSpec) -> tuple:
    """(product of indices of aut_group(), index of the identity).  With
    k = |GL(d, 2)|, index (u - 1) * k + a stands for unit u and matrix a,
    so (u, a)(v, b) has index (u*v % p - 1) * k + gl[a][b]; the identity
    is unit 1 with the identity matrix."""
    d = g.dim2
    e = _gl2_matrices(d).index(tuple(tuple(int(r == c) for c in range(d)) for r in range(d)))
    gl = _gl2_table(d)
    if g.p is None:
        return lambda i, j: gl[i][j], e
    p, k = g.p, len(gl)

    def mul(i: int, j: int) -> int:
        return ((i // k + 1) * (j // k + 1) % p - 1) * k + gl[i % k][j % k]
    return mul, e


def _aut_images(g: GroupSpec, u: int | None, mat) -> tuple[tuple[int, ...], ...]:
    """The generator images of the automorphism with unit u (default 1) on
    the p part and F_2 matrix mat on the involution part, as given: reduced
    when u is in range(1, p) and the rows of mat are 0/1 vectors, as
    _aut_map passes them, and reduced and checked by AutMap otherwise."""
    images = []
    if g.p:
        images.append((1 if u is None else u,) + (0,) * g.dim2)
    for row in mat:
        images.append(((0,) if g.p else ()) + tuple(row))
    return tuple(images)


@lru_cache(maxsize=None)
def _aut_map(g: GroupSpec, i: int) -> AutMap:
    """The automorphism at index i of aut_group(): unit i // k + 1 and
    matrix i % k of _gl2_matrices, k = |GL(d, 2)|; built once per index.
    A unit and an invertible matrix give a bijection by construction, so
    the map skips AutMap's checks; aut_from_parts is the checked path."""
    mats = _gl2_matrices(g.dim2)
    u, a = divmod(i, len(mats))
    m = AutMap.__new__(AutMap)
    _Frozen.__init__(m, g, _aut_images(g, u + 1, mats[a]))
    return m


def aut_generating_subset(g: GroupSpec, subgroup: tuple[int, ...]) -> tuple[int, ...]:
    """A small generating subset of a subgroup of Aut(G), both given by the
    indices of their members in aut_group(), as subgroups_of_aut() lists
    them: in ascending order of index, so of generator images, each member
    not in the closure of those before it.  _generate runs on the indices,
    multiplied by the index arithmetic of _aut_arithmetic; no AutMap is
    built.  A subgroup of GL(3, 2) = Aut((C_2)^3) is looked up in the
    generated constant of _gl32_generators, which holds what that walk
    picks."""
    members = tuple(sorted(subgroup))
    if g.factors == (2, 2, 2):
        gens = _gl32_generators().get(members)
        if gens is not None:
            return gens
    mul, e = _aut_arithmetic(g)
    return tuple(_generate(mul, {e}, members)[0])


def _gl32_generators() -> dict[tuple[int, ...], tuple[int, ...]]:
    """The subgroups of GL(3, 2) as subgroups_of_aut() of (C_2)^3 lists
    them, each mapped to its greedy generators: a generated constant,
    imported on first use, so that no other group loads it."""
    from ._gl32 import GENERATORS
    return GENERATORS
