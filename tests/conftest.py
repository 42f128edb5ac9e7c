"""Shared fixtures: enumerations and brute-force results are computed once."""

import pytest

from supercharacters import (
    GroupSpec,
    all_scts_cp_c2_c2,
    all_theories,
    brute_force_enumerate,
)


@pytest.fixture(scope="session")
def records_by_p():
    """Full C_p x C_2 x C_2 enumerations (records, report) for small primes."""
    return {p: all_scts_cp_c2_c2(p) for p in (3, 5, 7, 11, 13)}


@pytest.fixture(scope="session")
def klein_records():
    return all_theories(GroupSpec.klein())


@pytest.fixture(scope="session")
def cpc2_records():
    return {p: all_theories(GroupSpec.cp_c2(p)) for p in (3, 5)}


@pytest.fixture(scope="session")
def c2cubed_records():
    return all_theories(GroupSpec.c2_cubed())


@pytest.fixture(scope="session")
def oracle_c3c2c2():
    return brute_force_enumerate(GroupSpec.cp_c2_c2(3))
