"""Reference counts and census lookups that several test modules share.

`semigroup_tree_histograms` is the census's independent oracle: it walks
the tree of numerical semigroups and never touches Kunz coordinates or
compositions.  `composition_histograms` is its brute-force one: the tiling
walk over every composition, filtered through the Kunz system, walked once
per run.  `N_G` is the published n_g column.  `census_hist` and
`census_fgqm` read the census's own histograms, once per genus and
multiplicity.
"""

import functools
from collections import Counter
from itertools import count

from gapsets.census import CensusQuery, census_histograms
from gapsets.kunz import coords_violation
from gapsets.tilings import enumerate_compositions

# n_g, the number of gapsets of genus g, for g = 0..18 (OEIS A007323)
N_G = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806, 8045, 13467]


@functools.cache
def census_hist(g, mult=None):
    """The census's genus-g (depth, multiplicity) histogram, of one multiplicity if `mult` is set."""
    return census_histograms(CensusQuery(g, mult=mult))[g]


def census_fgqm(g, q, m):
    return census_hist(g, m)[q, m]


@functools.cache
def composition_histograms(gmax):
    """(depth, multiplicity) histograms by genus, g = 0..gmax, from the
    composition walk: a composition of g is the Kunz coordinates of a
    gapset of genus g when it passes `coords_violation`.  Shared: read it,
    never change it."""
    hists = [Counter({(0, 1): 1})]  # the empty gapset
    for g in range(1, gmax + 1):
        hist = Counter()
        for c in enumerate_compositions(g):
            if coords_violation(c) is None:
                hist[max(c), len(c) + 1] += 1
        hists.append(hist)
    return hists


def semigroup_tree_histograms(gmax, max_mult=None):
    """(depth, multiplicity) histograms by genus from the tree of numerical
    semigroups: a node's children remove one of its minimal generators
    above its Frobenius number.  No Kunz coordinates, no compositions.
    With `max_mult` set only the semigroups of that multiplicity or less
    are visited: a child's multiplicity is never below its parent's, so
    the cut drops whole subtrees."""
    hists = [Counter() for _ in range(gmax + 1)]

    def grow(gaps, frobenius):
        m = next(s for s in count(1) if s not in gaps)
        if max_mult is not None and m > max_mult:
            return
        conductor = frobenius + 1
        hists[len(gaps)][-(-conductor // m), m] += 1
        if len(gaps) == gmax:
            return
        # a generator is at most conductor + m - 1; x > frobenius lies in S
        for x in range(max(frobenius + 1, 1), conductor + m + 1):
            if all(a in gaps or x - a in gaps for a in range(1, x // 2 + 1)):
                grow(gaps | {x}, x)

    grow(frozenset(), -1)
    return hists
