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
from math import gcd
from operator import itemgetter

from .cyclotomic import CycInt, is_odd_prime

DEFAULT_MAX_P = 199

_FAMILY_BY_FACTORS = {
    (): "Trivial",
    (2,): "C2",
    (2, 2): "Klein",
    (2, 2, 2): "C2cubed",
}


# sets a field of a _Frozen instance, past the __setattr__ that forbids it
_set = object.__setattr__


class _Value:
    """Base of the value classes: _fields names the fields in constructor
    order, for a repr of the form ClassName(field=value, ...)."""

    _fields: tuple[str, ...] = ()

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class _Frozen(_Value):
    """Base of the immutable value classes.  Each class writes out its own
    __init__, which sets the fields with _set, and its own field-wise
    __eq__ and __hash__; assigning or deleting an attribute raises
    AttributeError.  cached_property still works, since it writes to the
    instance __dict__.  Written by hand rather than generated when the
    module loads, which would cost an exec per class and the import of
    inspect and ast in every CLI call (see "Start-up" in the README)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _ExponentVector(_Frozen):
    """An exponent vector; equal only to one of the same class."""

    _fields = ("exps",)

    def __init__(self, exps: tuple[int, ...]):
        _set(self, "exps", exps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        return hash((self.exps,))


class Element(_ExponentVector):
    """A group element as a reduced exponent vector."""


class Character(_ExponentVector):
    """An irreducible character as a reduced exponent vector."""


class GroupSpec(_Frozen):
    """One of the supported abelian groups, with derived data cached."""

    _fields = ("factors",)

    def __init__(self, factors: tuple[int, ...]):
        odd = [f for f in factors if f != 2]
        if len(odd) > 1:
            raise ValueError(f"at most one odd factor is supported, got {factors}")
        if odd and (not is_odd_prime(odd[0]) or factors[0] != odd[0]):
            raise ValueError(f"odd factor must be a leading odd prime, got {factors}")
        if len(factors) - len(odd) > (2 if odd else 3):
            raise ValueError(f"unsupported factor shape {factors}")
        _set(self, "factors", factors)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash((self.factors,))

    @classmethod
    @lru_cache(maxsize=None)
    def of(cls, factors: tuple[int, ...]) -> "GroupSpec":
        """Interned constructor so equal specs share cached tables."""
        return cls(factors)

    @classmethod
    def cp(cls, p: int) -> "GroupSpec":
        return cls.of((p,))

    @classmethod
    def klein(cls) -> "GroupSpec":
        return cls.of((2, 2))

    @classmethod
    def cp_c2(cls, p: int) -> "GroupSpec":
        return cls.of((p, 2))

    @classmethod
    def c2_cubed(cls) -> "GroupSpec":
        return cls.of((2, 2, 2))

    @classmethod
    def cp_c2_c2(cls, p: int) -> "GroupSpec":
        return cls.of((p, 2, 2))

    @classmethod
    def from_family(cls, family: str, p: int | None = None) -> "GroupSpec":
        needs_p = {"Cp": (), "CpC2": (2,), "CpC2C2": (2, 2)}
        if family in needs_p:
            if p is None:
                raise ValueError(f"family {family} needs p")
            return cls.of((p,) + needs_p[family])
        for factors, name in _FAMILY_BY_FACTORS.items():
            if name == family:
                return cls.of(factors)
        raise ValueError(f"unknown family {family!r}")

    @property
    def p(self) -> int | None:
        """The odd prime factor, if present."""
        return self.factors[0] if self.factors and self.factors[0] != 2 else None

    @property
    def dim2(self) -> int:
        return len(self.factors) - (1 if self.p else 0)

    @property
    def family(self) -> str:
        if self.p is None:
            return _FAMILY_BY_FACTORS[self.factors]
        return {1: "Cp", 2: "CpC2", 3: "CpC2C2"}[len(self.factors)]

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All exponent vectors in lexicographic order; index 0 is the identity."""
        return tuple(itertools.product(*(range(f) for f in self.factors)))

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {exps: i for i, exps in enumerate(self.elements)}

    def reduce(self, exps) -> tuple[int, ...]:
        if len(exps) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} exponents, got {len(exps)}")
        return tuple(e % f for e, f in zip(exps, self.factors))

    def element(self, exps) -> Element:
        return Element(self.reduce(exps))

    def character(self, exps) -> Character:
        return Character(self.reduce(exps))

    def index_of(self, x) -> int:
        exps = x.exps if isinstance(x, (Element, Character)) else tuple(x)
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

    @cached_property
    def inverse_table(self) -> tuple[int, ...]:
        return tuple(
            self._index[tuple(-a % f for a, f in zip(exps, self.factors))]
            for exps in self.elements
        )

    def order_of_index(self, i: int) -> int:
        exps = self.elements[i]
        n = 1
        for e, f in zip(exps, self.factors):
            if e:
                n = n * f // gcd(n, f)
        return n

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

    def char_value(self, chi: Character, g: Element) -> "CycInt | int":
        """chi(g), a cyclotomic integer when the group has a p part, else +-1."""
        key, = self.sigma_keys((self.index_of(chi),), (self.index_of(g),))
        return self.sigma_value(key)

    @cached_property
    def _kernel(self) -> tuple:
        """Factored character table, built on first use.  Index i splits into
        its p exponent i >> d and its involution bits i & (2^d - 1), and
        chi_c(x) = zeta_p^(a_c * a_x), negated when the bits of c and x share
        an odd number of ones; `sign` holds that +-1 at (v_c << d) | v_x.

        Keys hold one signed digit of `width` bits per power of zeta_p;
        power[t] is the digit 1 at power t (O(width * p^2) bits in all, 35 KB
        at p = 199) and `ones` a 1 at every power."""
        p, d, mask = self._split
        sign = tuple(-1 if bin(u & w).count("1") % 2 else 1
                     for u in range(mask + 1) for w in range(mask + 1))
        width = (4 * self.order).bit_length()
        power = tuple(1 << (width * t) for t in range(p or 0))
        return p, d, mask, sign, width, power, sum(power)

    @cached_property
    def _lead_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per character index c, the unnormalised key of chi_c at each of the
        2^(d+1) lead indices x < 2 << d (p exponent 0 or 1):
        +-power[a_c * a_x % p].  The entries are shared +-power objects, so
        the table costs n * 2^(d+1) references."""
        p, d, mask, sign, _, power, _ = self._kernel
        neg = tuple(-q for q in power)
        return tuple(
            tuple((power if sign[(c & mask) << d | v] > 0 else neg)[(c >> d) * a % p]
                  for a in (0, 1) for v in range(mask + 1))
            for c in range(self.order))

    def lead_keys(self, chars) -> list[int]:
        """sigma_keys(chars, range(2 << d)) for a group with a p part, summed
        column by column from the cached lead rows."""
        p, _, _, _, width, _, ones = self._kernel
        half = ones >> width << (width - 1)
        top_bit = width * (p - 1)
        rows = self._lead_rows
        return [key - ((key + half) >> top_bit) * ones
                for key in map(sum, zip(*[rows[c] for c in chars]))]

    def sigma_keys(self, chars, xs) -> list[int]:
        """Canonical keys of sigma_X(x), the sum of chi_c(x) over the character
        indices c in X, at each element index x in xs; keys are equal exactly
        when the values are.  The pairing is symmetric, so
        sigma_keys(block, cs) also sums each chi_c over a block of elements.

        For 2-groups the key is the value.  Otherwise it packs the power
        counts (counts[t] copies of zeta_p^t) as signed digits, less the count
        at zeta_p^(p-1): two count vectors are the same element of Z[zeta_p]
        exactly when they differ by a constant vector, and what remains are
        the coefficients CycInt.from_power_counts stores.  Each element costs
        O(len(chars)) big-int additions.  Every count must stay below
        2^(width-2) in absolute value, as a sum of at most n characters does."""
        p, d, mask, sign, width, power, ones = self._kernel
        if p is None:
            totals = [sum(sign[(c << d) | v] for c in chars) for v in range(mask + 1)]
            return [totals[x] for x in xs]
        # per value of the involution bits of x: (p exponent, +-1) of each c
        plans = [[(c >> d, sign[((c & mask) << d) | v]) for c in chars]
                 for v in range(mask + 1)]
        # adding half a digit below the top power makes the lower digits
        # nonnegative, so the shift reads off the count at power p - 1
        half = ones >> width << (width - 1)
        top_bit = width * (p - 1)
        out = []
        for x in xs:
            ax = x >> d
            key = 0
            for a, s in plans[x & mask]:
                if s > 0:
                    key += power[a * ax % p]
                else:
                    key -= power[a * ax % p]
            out.append(key - ((key + half) >> top_bit) * ones)
        return out

    def sigma_value(self, key: int) -> "CycInt | int":
        """The value a key from sigma_keys stands for."""
        p = self.p
        if p is None:
            return key
        width = self._kernel[4]
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

    def annihilator(self, members) -> tuple[int, ...]:
        """Indices of characters that are 1 on every listed element index."""
        if isinstance(members, Subgroup):
            members = members.members
        out = []
        for c, chi in enumerate(self.elements):
            for i in members:
                sign, t = self.pairing_parts(chi, self.elements[i])
                if sign != 1 or t != 0:
                    break
            else:
                out.append(c)
        return tuple(out)

    # -- subgroups ----------------------------------------------------------

    def subgroup(self, member_indices) -> "Subgroup":
        members = tuple(sorted(set(member_indices)))
        if 0 not in members:
            raise ValueError("a subgroup must contain the identity")
        gens: list[int] = []
        generated = {0}
        for i in members:
            if i not in generated:
                gens.append(i)
                generated = _close(self.mul_idx, generated, gens)
        # the greedy generators generate a subgroup holding every member, so
        # it equals the member set exactly when that set is closed
        extra = generated.difference(members)
        if extra:
            raise ValueError(f"not closed under products: generates index {min(extra)}")
        return Subgroup(self, members, tuple(gens))

    def generated_subgroup(self, generator_indices) -> "Subgroup":
        return self.subgroup(_close(self.mul_idx, {0}, generator_indices))

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
        images = []
        if self.p:
            images.append(((u if u is not None else 1) % self.p,) + (0,) * self.dim2)
        for row in mat:
            images.append(((0,) if self.p else ()) + tuple(row))
        return AutMap(self, tuple(images))

    def aut_group(self) -> tuple["AutMap", ...]:
        """Every automorphism: unit action on the p part times GL(d, 2)."""
        return _cached_aut_group(self)

    def subgroups_of_aut(self) -> tuple[tuple["AutMap", ...], ...]:
        """All subgroups of Aut(G), each a multiplication-closed set of maps.

        The automorphism group is the direct product of the unit group of
        the p part (trivial without one) and GL(d, 2).  aut_group() lists
        unit u by matrix a, so with k = |GL(d, 2)| the product of (u, a) and
        (v, b) has index (u*v % p - 1) * k + gl[a][b], gl being GL(d, 2)'s
        product table; _subgroup_lattice runs on that table.  Sorted by
        order, then by generator images.
        """
        return _cached_aut_subgroups(self)


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
    """Invertible d x d matrices over F_2 in lexicographic order."""
    out = []
    for bits in itertools.product((0, 1), repeat=d * d):
        mat = tuple(bits[i * d : (i + 1) * d] for i in range(d))
        if len(_f2_basis(int("".join(map(str, row)), 2) for row in mat)) == d:
            out.append(mat)
    return tuple(out)


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

    def __init__(self, group: GroupSpec, members: tuple[int, ...], generators: tuple[int, ...]):
        _set(self, "group", group)
        _set(self, "members", members)
        _set(self, "generators", generators)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group == other.group and self.members == other.members
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.group, self.members, self.generators))

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self._member_set

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def generator_exps(self) -> list[list[int]]:
        return [list(self.group.elements[i]) for i in self.generators]


class SubgroupEmbedding(_Frozen):
    """A subgroup rebuilt as a standalone group plus the index maps in and out."""

    _fields = ("parent", "group", "to_parent")

    def __init__(self, parent: GroupSpec, group: GroupSpec, to_parent: tuple[int, ...]):
        _set(self, "parent", parent)
        _set(self, "group", group)
        _set(self, "to_parent", to_parent)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent == other.parent and self.group == other.group
                and self.to_parent == other.to_parent)

    def __hash__(self):
        return hash((self.parent, self.group, self.to_parent))

    @cached_property
    def from_parent(self) -> dict[int, int]:
        return {g: i for i, g in enumerate(self.to_parent)}


class QuotientMap(_Frozen):
    """A quotient group together with the index projection from the source."""

    _fields = ("source", "group", "projection")

    def __init__(self, source: GroupSpec, group: GroupSpec, projection: tuple[int, ...]):
        _set(self, "source", source)
        _set(self, "group", group)
        _set(self, "projection", projection)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source == other.source and self.group == other.group
                and self.projection == other.projection)

    def __hash__(self):
        return hash((self.source, self.group, self.projection))

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
    return SubgroupEmbedding(g, sub, to_parent)


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
    gens, span = [], set(space)
    for v in range(mask + 1):
        if v not in span:
            gens.append(v)
            span |= {x ^ v for x in span}
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
    return QuotientMap(g, q_spec, projection)


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
        _set(self, "group", g)
        _set(self, "gen_images", tuple(g.reduce(img) for img in gen_images))
        for img, f in zip(self.gen_images, g.factors):
            if g.order_of_index(g._index[img]) != f:
                raise ValueError(f"image {img} does not have order {f}")
        # a unit on the p exponent and independent images of the involutions
        # give a bijection; an involution image of order 2 has no p part, so
        # its index is its bits
        if len(_f2_basis(self._bit_images)) != g.dim2:
            raise ValueError("generator images do not define a bijection")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.group == other.group and self.gen_images == other.gen_images

    def __hash__(self):
        return hash((self.group, self.gen_images))

    @classmethod
    def identity(cls, g: GroupSpec) -> "AutMap":
        # generator k of n has index 1 << (n - 1 - k), the first at the top bit
        return cls(g, tuple(g.elements[1 << k] for k in reversed(range(len(g.factors)))))

    def apply_exps(self, exps) -> tuple[int, ...]:
        g = self.group
        out = [0] * len(g.factors)
        for e, img in zip(exps, self.gen_images):
            if e:
                out = [x + e * y for x, y in zip(out, img)]
        return g.reduce(out)

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

    def act_on_character(self, chi: Character) -> Character:
        g = self.group
        return Character(g.elements[self.char_perm[g.index_of(chi)]])

    def compose(self, other: "AutMap") -> "AutMap":
        """self after other."""
        if other.group != self.group:
            raise ValueError("maps act on different groups")
        return AutMap(self.group, tuple(self.apply_exps(img) for img in other.gen_images))

    def inverse(self) -> "AutMap":
        g = self.group
        # the preimages of the generators, indexed as in identity()
        return AutMap(g, tuple(g.elements[self.inverse_perm[1 << k]]
                               for k in reversed(range(len(g.factors)))))


def close_aut_set(gens) -> tuple[AutMap, ...]:
    """Multiplicative closure of a set of automorphisms, sorted by generator
    images: _close on the indices of the maps in aut_group(), multiplied by
    the index arithmetic of subgroups_of_aut()."""
    if not gens:
        raise ValueError("need at least one map to infer the group")
    g = gens[0].group
    if any(a.group != g for a in gens):
        raise ValueError("maps act on different groups")
    maps, index, mul, e = _aut_arithmetic(g)
    closure = _close(mul, {e}, [index[a.gen_images] for a in gens])
    return tuple(maps[i] for i in sorted(closure))


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
    method), O(|K| + [K:H] * gens) table lookups; once K holds more than
    half the group it is the group.

    Unless the cyclic generators all commute, only one subgroup per
    conjugacy class is extended: each new join is queued, and its orbit
    under conjugation by a subset of the cyclic generators that generates
    the group is recorded without being queued.  Since
    g<H, c>g^-1 = <gHg^-1, gcg^-1> and gcg^-1 again generates a cyclic
    subgroup of prime-power order, the joins of a conjugate are conjugates
    of joins, and every subgroup is still reached."""
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
    conjugations = _conjugations(table, e, list(cyclic.values()))
    found = {1 << e: (e,)}
    queue = [(1 << e, ())]
    for h, gens in queue:
        members = found[h]
        for c, x in cyclic.items():
            if not c & ~h:
                continue
            k_gens = gens + (x,)
            k, reps = h, [e]
            for r in reps:
                for s in k_gens:
                    y = table[r][s]
                    if not k >> y & 1:
                        reps.append(y)
                        for z in members:
                            k |= 1 << table[z][y]
                if 2 * len(members) * len(reps) > n:
                    k = (1 << n) - 1
                    break
            if k in found:
                continue
            found[k] = tuple(i for i in range(n) if k >> i & 1)
            queue.append((k, k_gens))
            orbit = [k]
            for m in orbit:
                for conj in conjugations:
                    image = sorted(conj[y] for y in found[m])
                    mask = sum(1 << y for y in image)
                    if mask not in found:
                        found[mask] = tuple(image)
                        orbit.append(mask)
    return found


def _conjugations(table, e: int, gens: list[int]) -> list[list[int]]:
    """The maps y -> x y x^-1 for the x of a greedy subset of gens that
    generates what gens generate; none when gens commute pairwise."""
    if all(table[x][y] == table[y][x] for x in gens for y in gens):
        return []
    out = []
    reached, chosen = {e}, []
    for x in gens:
        if x in reached:
            continue
        chosen.append(x)
        reached = _close(lambda y, s: table[y][s], reached, chosen)
        inv = table[x].index(e)
        out.append([table[table[x][y]][inv] for y in range(len(table))])
    return out


def _is_prime_power(n: int) -> bool:
    q = next(q for q in range(2, n + 1) if n % q == 0)
    while n % q == 0:
        n //= q
    return n == 1


@lru_cache(maxsize=None)
def _gl2_table(d: int) -> list[list[int]]:
    """The int product table of GL(d, 2), indexed as in _gl2_matrices.  A
    matrix is held as its d columns, each a vector index with the first
    coordinate at the top bit; it maps vector v to the XOR of the columns
    its coordinates select, so its action on all vectors is the _span of
    its columns, and column k of a b is that action of a at column k of b."""
    if d < 2:
        return [[0]]  # GL(0, 2) and GL(1, 2) are trivial
    cols = [tuple(sum(row[k] << (d - 1 - r) for r, row in enumerate(m)) for k in range(d))
            for m in _gl2_matrices(d)]
    index = {c: i for i, c in enumerate(cols)}
    columns_of = [itemgetter(*c) for c in cols]
    return [[index[b(act)] for b in columns_of] for act in map(_span, cols)]


@lru_cache(maxsize=None)
def _cached_aut_group(g: GroupSpec) -> tuple[AutMap, ...]:
    units = [None] if g.p is None else list(range(1, g.p))
    return tuple(
        g.aut_from_parts(u, m) for u in units for m in _gl2_matrices(g.dim2)
    )


@lru_cache(maxsize=None)
def _cached_aut_subgroups(g: GroupSpec) -> tuple[tuple[AutMap, ...], ...]:
    maps = g.aut_group()
    table = gl = _gl2_table(g.dim2)
    if g.p is not None:
        p, k = g.p, len(gl)
        # shifted[w][a] is row a of gl moved to the block of unit w; rows
        # concatenate these lists, so the table shares their int objects
        shifted = [None] + [[[(w - 1) * k + b for b in row] for row in gl]
                            for w in range(1, p)]
        table = [list(itertools.chain.from_iterable(shifted[u * v % p][a]
                                                    for v in range(1, p)))
                 for u in range(1, p) for a in range(k)]
    # aut_group() ascends by generator images, so sorting member indices
    # sorts the subgroups by order, then by generator images
    lattice = sorted(_subgroup_lattice(table).values(), key=lambda m: (len(m), m))
    return tuple(tuple(maps[i] for i in members) for members in lattice)


@lru_cache(maxsize=None)
def _aut_arithmetic(g: GroupSpec) -> tuple:
    """(aut_group(), generator images -> index in it, product of indices,
    index of the identity).  With k = |GL(d, 2)|, index (u - 1) * k + a
    stands for unit u and matrix a, so (u, a)(v, b) has index
    (u*v % p - 1) * k + gl[a][b]."""
    maps = g.aut_group()
    index = {m.gen_images: i for i, m in enumerate(maps)}
    e = index[AutMap.identity(g).gen_images]
    gl = _gl2_table(g.dim2)
    if g.p is None:
        return maps, index, lambda i, j: gl[i][j], e
    p, k = g.p, len(gl)

    def mul(i: int, j: int) -> int:
        return ((i // k + 1) * (j // k + 1) % p - 1) * k + gl[i % k][j % k]
    return maps, index, mul, e


def aut_generating_subset(subgroup: tuple[AutMap, ...]) -> tuple[AutMap, ...]:
    """A small generating subset of a multiplication-closed set of
    automorphisms: in ascending order of generator images, each map not in
    the closure of those before it, until that closure is the whole set.
    Closes indices of aut_group() as close_aut_set does."""
    if not subgroup:
        return ()
    maps, index, mul, e = _aut_arithmetic(subgroup[0].group)
    gens: list[int] = []
    have = {e}
    for i in sorted(index[a.gen_images] for a in subgroup):
        if len(have) == len(subgroup):
            break
        if i not in have:
            gens.append(i)
            have = _close(mul, have, gens)
    return tuple(maps[i] for i in gens)
