"""Exact arithmetic in Z[zeta_p] on the power basis 1, zeta, ..., zeta^(p-2)."""

import random

import pytest

from supercharacters import CycInt, is_odd_prime


@pytest.mark.parametrize("n,expect", [
    (1, False), (2, False), (3, True), (4, False), (5, True), (7, True),
    (9, False), (15, False), (199, True), (201, False),
])
def test_is_odd_prime(n, expect):
    assert is_odd_prime(n) is expect


def test_power_basis_reduction():
    # zeta^4 = -(1 + zeta + zeta^2 + zeta^3) for p = 5
    z4 = CycInt.root_power(5, 4)
    assert z4.coeffs == (-1, -1, -1, -1)
    assert CycInt.root_power(5, 5) == CycInt.one(5)
    assert CycInt.root_power(5, 0) == CycInt.one(5)
    assert CycInt.root_power(5, 9) == CycInt.root_power(5, 4)


def test_golden_ratio_product():
    # (zeta + zeta^4)(zeta^2 + zeta^3) = -1 for p = 5, checked by hand
    a = CycInt.root_power(5, 1) + CycInt.root_power(5, 4)
    b = CycInt.root_power(5, 2) + CycInt.root_power(5, 3)
    assert a * b == CycInt.from_int(5, -1)
    assert (a * b).is_rational_integer() == -1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_geometric_sums(p):
    for j in range(p):
        total = sum(
            (CycInt.root_power(p, j * k) for k in range(p)), CycInt.zero(p)
        )
        assert total.is_rational_integer() == (p if j == 0 else 0)


def test_from_power_counts():
    counts = [0] * 5
    counts[1] = 2
    counts[4] = 1
    direct = 2 * CycInt.root_power(5, 1) + CycInt.root_power(5, 4)
    assert CycInt.from_power_counts(5, counts) == direct
    assert CycInt.from_power_counts(5, [1, 1, 1, 1, 1]).is_rational_integer() == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ring_axioms_random(p):
    rng = random.Random(20240 + p)
    for _ in range(40):
        a, b, c = (
            CycInt(p, tuple(rng.randrange(-4, 5) for _ in range(p - 1)))
            for _ in range(3)
        )
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        assert a * CycInt.one(p) == a
        assert a + CycInt.zero(p) == a


@pytest.mark.parametrize("p", [5, 7])
def test_conjugation(p):
    rng = random.Random(99 + p)
    for k in range(p):
        assert CycInt.root_power(p, k).conjugate() == CycInt.root_power(p, p - k)
    for _ in range(20):
        a, b = (
            CycInt(p, tuple(rng.randrange(-3, 4) for _ in range(p - 1)))
            for _ in range(2)
        )
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        norm = a * a.conjugate()
        # a fixed point of conjugation on a real value stays put
        assert norm.conjugate() == norm


def test_rational_detection():
    assert CycInt.from_int(7, 42).is_rational_integer() == 42
    z = CycInt.root_power(7, 1)
    assert z.is_rational_integer() is None
    full = sum((CycInt.root_power(7, k) for k in range(1, 7)), CycInt.zero(7))
    assert full.is_rational_integer() == -1


def test_int_mixing():
    z = CycInt.root_power(5, 1)
    assert 2 * z == z + z
    assert z + 1 == CycInt.one(5) + z
    assert 1 - z == -(z - 1)
    assert (0 * z) == CycInt.zero(5)
    assert not CycInt.zero(5)
    assert bool(z)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        CycInt.from_int(4, 1)
    with pytest.raises(ValueError):
        CycInt.from_int(2, 1)
    with pytest.raises(ValueError):
        CycInt(5, (1, 2, 3))
    with pytest.raises(ValueError):
        CycInt.root_power(5, 1) + CycInt.root_power(7, 1)
    with pytest.raises(ValueError):
        CycInt.from_power_counts(5, [1, 2, 3])


def test_hash_consistency():
    a = CycInt.root_power(5, 2) + CycInt.root_power(5, 3)
    b = CycInt(5, (0, 0, 1, 1))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # a rational value equals its int, so it hashes as that int
    three = CycInt.from_int(5, 3)
    assert three == 3 and hash(three) == hash(3)
    assert len({three, 3}) == 1
    assert {3: "x"}.get(three) == "x"
    # then equal rational values of different moduli share a hash, and
    # compare equal; other values of different moduli do not
    assert CycInt.one(5) == CycInt.one(7) and len({CycInt.one(5), CycInt.one(7)}) == 1
    assert CycInt.from_int(5, 2) != CycInt.from_int(7, 3)
    assert CycInt.root_power(5, 1) != CycInt.root_power(7, 1)
    assert CycInt.root_power(5, 1) != 1
