"""Scheme lists of the benchmark workloads, built from a seed.

`theorem1` is the paper's input and ignores the seed.  The two sampled
workloads draw one scheme from each of a fixed list of strata.  A stratum
groups canonical schemes that give the engine the same amount of work: the
same outer count beta (pooled over every beta >= 14 for `highbeta`), the
same nest-size classes and the same number of distinct nest sizes.  Nest
sizes below 4 form classes of their own; larger sizes count only by parity.
Repeated nest sizes merge jump candidates, hence the distinct count.
Drawing one scheme per stratum keeps the work of a sample, and so the
timings, the same whatever the seed, while the seed still decides which
schemes the engine sees.
"""

from __future__ import annotations

import random

from nestprohibitor import enumerate_three_nest_schemes

WORKLOADS = ("theorem1", "lowbeta", "highbeta")

HIGH_BETA = 14  # highbeta pools every beta from here up

# (beta, sorted nest-size classes, distinct nest sizes) -> what the stratum
# loads.  Every stratum has at least two members except the first highbeta
# one, which holds the single beta = 22 scheme.
LOWBETA_STRATA = (
    ((6, ("o5+", "o5+", "o5+"), 2), "open, ~110k assignments checked"),
    ((0, ("1", "o5+", "o5+"), 3), "odd, beta = 0, excluded"),
    ((0, ("o5+", "o5+", "o5+"), 2), "odd, beta = 0, excluded"),
    ((3, ("e4+", "o5+", "o5+"), 3), "open, ~19k assignments checked"),
    ((1, ("e4+", "o5+", "o5+"), 3), "open"),
    ((2, ("2", "e4+", "o5+"), 3), "open"),
    ((1, ("e4+", "e4+", "e4+"), 3), "all-even, beta = 1, excluded"),
    ((5, ("2", "e4+", "e4+"), 3), "all-even, excluded"),
)
HIGHBETA_STRATA = (
    ((HIGH_BETA, ("1", "1", "1"), 1), "beta = 22, full product of ~4M nets"),
    ((HIGH_BETA, ("1", "2", "e4+"), 3), "open"),
    ((HIGH_BETA, ("1", "2", "o5+"), 3), "open"),
    ((HIGH_BETA, ("2", "2", "e4+"), 2), "all-even, excluded"),
    ((HIGH_BETA, ("2", "2", "o5+"), 2), "open"),
    ((HIGH_BETA, ("2", "3", "e4+"), 3), "open"),
    ((HIGH_BETA, ("1", "1", "e4+"), 2), "open"),
    ((HIGH_BETA, ("1", "3", "e4+"), 3), "open"),
)


def size_class(alpha: int) -> str:
    if alpha < 4:
        return str(alpha)
    return "o5+" if alpha % 2 else "e4+"


def stratum(scheme) -> tuple:
    beta = scheme.beta if scheme.beta < HIGH_BETA else HIGH_BETA
    classes = tuple(sorted(size_class(a) for a in scheme.alpha))
    return (beta, classes, len(set(scheme.alpha)))


def sample(strata, seed: int) -> list:
    """One scheme per stratum, drawn with `seed`, in canonical order."""
    members: dict[tuple, list] = {key: [] for key, _ in strata}
    for scheme in enumerate_three_nest_schemes():
        key = stratum(scheme)
        if key in members:
            members[key].append(scheme)
    rng = random.Random(seed)
    chosen = []
    for key, _ in strata:
        if not members[key]:
            raise ValueError(f"empty stratum {key}")
        chosen.append(rng.choice(members[key]))
    return sorted(chosen)


def build(workload: str, seed: int) -> list:
    """The workload's scheme list; the same seed gives the same list."""
    if workload == "theorem1":
        return enumerate_three_nest_schemes(lambda s: s.all_even)
    if workload == "lowbeta":
        return sample(LOWBETA_STRATA, seed)
    if workload == "highbeta":
        return sample(HIGHBETA_STRATA, seed)
    raise ValueError(f"unknown workload {workload!r}")
