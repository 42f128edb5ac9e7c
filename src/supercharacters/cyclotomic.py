"""Exact arithmetic in Z[zeta_p], the ring of integers of the p-th cyclotomic field.

Values are stored on the free basis 1, z, ..., z^(p-2) where z = zeta_p, using
the relation z^(p-1) = -(1 + z + ... + z^(p-2)).  All coefficients are plain
Python ints, so arithmetic is exact at any size.
"""

from __future__ import annotations


def is_odd_prime(p: int) -> bool:
    """Trial-division primality check for odd p >= 3."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class CycInt:
    """An element of Z[zeta_p] with exact integer coefficients."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple[int, ...]):
        # the count first: a huge p with few coefficients never reaches trial division
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p={p}, got {len(coeffs)}")
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("CycInt is immutable")

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls.from_int(p, 0)

    @classmethod
    def one(cls, p: int) -> "CycInt":
        return cls.from_int(p, 1)

    @classmethod
    def root_power(cls, p: int, k: int) -> "CycInt":
        """zeta_p^k, reduced onto the free basis."""
        counts = [0] * p
        counts[k % p] = 1
        return cls.from_power_counts(p, counts)

    @classmethod
    def from_power_counts(cls, p: int, counts) -> "CycInt":
        """Sum of counts[k] copies of zeta_p^k for k = 0..p-1."""
        if len(counts) != p:
            raise ValueError(f"need {p} power counts, got {len(counts)}")
        top = counts[p - 1]
        return cls(p, tuple(counts[i] - top for i in range(p - 1)))

    def _coerce(self, other) -> "CycInt | None":
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise ValueError(f"mixed moduli: p={self.p} vs p={other.p}")
            return other
        if isinstance(other, int):
            return CycInt.from_int(self.p, other)
        return None

    def __add__(self, other) -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CycInt":
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other) -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        counts = [0] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    counts[(i + j) % p] += a * b
        return CycInt.from_power_counts(p, counts)

    __rmul__ = __mul__

    def conjugate(self) -> "CycInt":
        """Complex conjugation, zeta -> zeta^(p-1)."""
        p = self.p
        counts = [0] * p
        for i, a in enumerate(self.coeffs):
            counts[(p - i) % p] += a
        return CycInt.from_power_counts(p, counts)

    def is_rational_integer(self) -> int | None:
        """The value as a plain int if it lies in Z, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, CycInt) and other.p != self.p:
            # Z[zeta_p] and Z[zeta_q] share only the rational integers
            n = self.is_rational_integer()
            return n is not None and n == other.is_rational_integer()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        """A rational integer hashes as its int, which it equals."""
        n = self.is_rational_integer()
        return hash((self.p, self.coeffs) if n is None else n)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            else:
                unit = "z" if i == 1 else f"z^{i}"
                if a == 1:
                    terms.append(unit)
                elif a == -1:
                    terms.append(f"-{unit}")
                else:
                    terms.append(f"{a}*{unit}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"CycInt(p={self.p}, {body})"
