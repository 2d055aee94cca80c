"""Shared fixtures: the worked-example string and its hand-transcribed
composition multiset, used as frozen ground truth across the suite."""

import pytest

from compcodes.core import Readout

EXAMPLE_S = "001010111"

# Full composition multiset of EXAMPLE_S, entry by entry, as (z, w) with
# multiplicity.  45 entries in total.
EXAMPLE_MULTISET = {
    1: {(1, 0): 4, (0, 1): 5},
    2: {(2, 0): 1, (1, 1): 5, (0, 2): 2},
    3: {(2, 1): 3, (1, 2): 3, (0, 3): 1},
    4: {(3, 1): 1, (2, 2): 3, (1, 3): 2},
    5: {(3, 2): 2, (2, 3): 2, (1, 4): 1},
    6: {(4, 2): 1, (3, 3): 1, (2, 4): 2},
    7: {(4, 3): 1, (3, 4): 1, (2, 5): 1},
    8: {(4, 4): 1, (3, 5): 1},
    9: {(4, 5): 1},
}

EXAMPLE_SIGMA = (1, 1, 2, 0, 1)

EXAMPLE_WEIGHTS = (5, 9, 12, 13, 14, 13, 12, 9, 5)


def sigma_of_string(s: str) -> tuple[int, ...]:
    """Pairwise mirror weights wt(s_i s_{n-i+1}), the centre bit alone if
    n is odd: the reference the weight-based decoders must agree with."""
    n = len(s)
    vals = [int(s[i]) + int(s[n - 1 - i]) for i in range(n // 2)]
    if n % 2:
        vals.append(int(s[n // 2]))
    return tuple(vals)


def readout_from_table(table: dict, n: int) -> Readout:
    """Readout whose class k counts the table's (z, w) entries by weight."""
    classes = {}
    for k, entries in table.items():
        counts = [0] * (k + 1)
        for (z, w), m in entries.items():
            assert z + w == k, (k, z, w)
            counts[w] += m
        classes[k] = tuple(counts)
    return Readout(n, classes)


@pytest.fixture
def example_readout() -> Readout:
    return readout_from_table(EXAMPLE_MULTISET, 9)
