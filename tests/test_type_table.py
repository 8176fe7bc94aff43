"""The class list and the character against their closed form, and the
verdict's two facts as polynomial identities in p (tests/type_table.py)."""

from collections import Counter

import pytest

from roquette import character as CH
from roquette.group import get_group

import type_table as T

# every prime the suite runs the pipeline for, and one with no golden
PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _order(p: int) -> int:
    return 2 * p * (p * p - 1)


@pytest.mark.parametrize("p", PRIMES)
def test_classes_and_character_match_the_type_table(p):
    G = get_group(p)
    chi = CH.lefschetz_character(G)
    found = Counter((T.class_type(p, c.rep), v, c.size)
                    for c, v in zip(G.conjugacy_classes, chi))
    expected = Counter({(kind, v, size): count
                        for (kind, v), (size, count) in T.table(p).items() if count})
    assert found == expected
    assert len(G.conjugacy_classes) == (2 * p + 2 if p % 4 == 1 else 2 * p + 4)
    square = T.square_chi(p)
    for c in G.conjugacy_classes:
        assert chi[G.class_of(G.mul(c.rep, c.rep))] == square[T.class_type(p, c.rep)], c.rep


@pytest.mark.parametrize("r", [1, 3])
def test_norm_and_indicator_are_identities_in_p(r):
    # each side has degree at most 3 in p, so four values prove each identity
    for p in (r + 4, r + 8, r + 12, r + 16):
        rows = T.table(p)
        assert T.norm_sum(rows) == _order(p)       # <chi, chi> = 1
        assert T.fs_sum(p, rows) == -_order(p)     # FS = -1


@pytest.mark.parametrize("r", [1, 3])
def test_identities_fail_with_the_residue_counts_swapped(r):
    # the identity checks can fail: the other residue's class counts break
    # both at each of the four values
    for p in (r + 4, r + 8, r + 12, r + 16):
        rows = T.swapped_counts(p)
        assert T.norm_sum(rows) != _order(p)
        assert T.fs_sum(p, rows) != -_order(p)
