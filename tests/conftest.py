"""The tests' one enumeration cache.

Every enumeration and blind search that a test only reads comes from the
session fixture `enumerated`, which computes each one once per session, on
its first read.  The records and theories it hands out are shared by every
test that reads them: a test that mutates one copies it first.  A test that
must enumerate or search for itself (a timed run, a run with enumeration
internals patched or cleared, two runs compared) calls the library directly
and carries the `fresh` marker with its reason.
"""

import pytest

from supercharacters import all_scts_cp_c2_c2, all_theories, brute_force_enumerate


class Enumerated:
    """all_theories, all_scts_cp_c2_c2 and brute_force_enumerate, each run
    once per argument and kept for the session."""

    def __init__(self):
        self._kept = {}

    def _once(self, key, compute):
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    def theories(self, g):
        """The records of all_theories(g).  Those of C_p x C_2 x C_2 are
        read off cp_c2_c2(p), so that group is enumerated once too."""
        if g.family == "CpC2C2":
            return self.cp_c2_c2(g.p)[0]
        return self._once(("theories", g), lambda: all_theories(g))

    def cp_c2_c2(self, p):
        """(records, report) of all_scts_cp_c2_c2(p)."""
        return self._once(("cp_c2_c2", p), lambda: all_scts_cp_c2_c2(p))

    def search(self, g, budget=None):
        """The theories of brute_force_enumerate(g, budget)."""
        return self._once(("search", g, budget), lambda: brute_force_enumerate(g, budget))


@pytest.fixture(scope="session")
def enumerated():
    return Enumerated()
