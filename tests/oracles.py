"""Exact laws to check Monte Carlo estimates against.

The iid Rademacher sum S_n = (Y_1 + ... + Y_n)/sqrt(n) in R^k lives on the
lattice {(2j - n)/sqrt(n)}^k with product-binomial weights.  For small
(n + 1)^k the lattice is enumerated outright, and each point is built with
the float operations the sampler uses, so a set's `contains` sees the very
values a draw can take (a float level such as 1.5000000000000002 then puts
the lattice point 1.5 on the side that a sample puts it).  For large n,
`rademacher_delta_by_conditioning` gives the same value for the default
family's shapes from 1-D laws: it enumerates at most (n + 1)^(k - 1) points.

The sum of n uniform bytes, of which the iid uniform sampler draws two per
coordinate, has its exact counts in Python integers (`byte_sum_counts`) and
from them the exact inverse-CDF thresholds of a 64-bit word.
"""

import itertools
import math

import numpy as np

from steinclt import Ball, Box, HalfSpace


def rademacher_lattice(k, n):
    """(points, weights): every value of S_n in R^k, shape ((n + 1)^k, k), with its probability."""
    values, pmf = _lattice_axis(n)
    index = np.indices((n + 1,) * k).reshape(k, (n + 1) ** k).T
    return values[index], np.prod(pmf[index], axis=1)


def rademacher_delta(family, k, n):
    """max over the family of |P(S_n in C) - Phi(C)|: the exact value `delta_hat` estimates."""
    points, weights = rademacher_lattice(k, n)
    probabilities = np.array([weights[C.contains(points)].sum() for C in family.sets])
    return float(np.max(np.abs(probabilities - family.measures)))


def _lattice_axis(n):
    """(values, pmf) of one coordinate of S_n, the values with the sampler's float operations."""
    values = np.arange(n + 1) * 2.0
    values -= n
    values /= math.sqrt(n)
    return values, np.array([math.comb(n, j) / 2.0**n for j in range(n + 1)])


def _half_space_probabilities(sets, head, n, tol=1e-9):
    """P(S_n in H) for half-spaces of one normal, conditioning on all coordinates but one.

    The coordinate i with the largest |normal_i| is read through its binomial CDF
    at the threshold tau = (offset - x' . normal')/normal_i of each point x' of the
    other k - 1 coordinates (`head`: their lattice and weights).  The values of
    coordinate i are a uniform grid, so the count of them below tau is a floor;
    a lattice point within tol of tau is decided by `contains` itself (the
    origin lies on every half-space of offset 0).
    """
    normal = sets[0].normal
    values, pmf = _lattice_axis(n)
    cdf = np.concatenate([[0.0], np.cumsum(pmf)])
    head, head_weights = head
    i = int(np.argmax(np.abs(normal)))
    others = [c for c in range(len(normal)) if c != i]
    tau = (np.array([[H.offset] for H in sets]) - head @ normal[others]) / normal[i]
    u = tau * (math.sqrt(n) / 2.0) + n / 2.0  # tau on the scale of the index j
    below = np.clip(np.floor(u) + 1.0, 0, n + 1).astype(int)  # the values <= tau, up to ties
    inside = cdf[below] if normal[i] > 0.0 else 1.0 - cdf[below]
    nearest = np.clip(np.rint(u), 0, n).astype(int)
    for s, r in zip(*np.nonzero(np.abs(values[nearest] - tau) <= tol)):
        j = nearest[s, r]
        point = np.insert(head[r], i, values[j])
        counted = bool(j < below[s, r]) == (normal[i] > 0.0)
        inside[s, r] += (int(sets[s].contains(point)) - counted) * pmf[j]
    return inside @ head_weights


def _ball_probabilities(balls, k, n, rel_tol=1e-12):
    """P(|S_n| <= r) for centred balls from the law of the integer n |S_n|^2 = sum_i (2 j_i - n)^2.

    The law is the k-fold convolution of (2j - n)^2 under the binomial pmf.  A
    level n r^2 within rel_tol of an integer is a float tie that the integers
    cannot decide, and raises.
    """
    _, pmf = _lattice_axis(n)
    squares = (2 * np.arange(n + 1) - n) ** 2
    law = np.bincount(squares, weights=pmf)
    for _ in range(k - 1):
        support = np.flatnonzero(law)
        law = np.bincount(np.add.outer(support, squares).ravel(),
                          weights=np.multiply.outer(law[support], pmf).ravel())
    cdf = np.cumsum(law)
    out = []
    for B in balls:
        level = n * B.radius**2
        nearest = round(level)
        assert abs(level - nearest) > rel_tol * level, f"{B} has a lattice point on its sphere"
        out.append(cdf[min(math.floor(level), len(cdf) - 1)] if B.radius >= 0.0 else 0.0)
    return out


def _box_probability(box, n):
    """P(S_n in box) as a product of 1-D probabilities, each compared as `contains` compares."""
    values, pmf = _lattice_axis(n)
    return math.prod(pmf[(values >= lo) & (values <= hi)].sum()
                     for lo, hi in zip(box.lower, box.upper))


def rademacher_delta_by_conditioning(family, k, n):
    """`rademacher_delta` for a family of half-spaces, centred balls and boxes.

    The half-spaces of one normal share their conditioning, and the balls the
    law of n |S_n|^2; any other set raises.
    """
    groups = {}
    for index, C in enumerate(family.sets):
        assert not isinstance(C, Ball) or not C.center.any(), f"{C} is not centred"
        key = C.normal.tobytes() if isinstance(C, HalfSpace) else type(C)
        groups.setdefault(key, []).append(index)
    p = np.empty(len(family.sets))
    head = rademacher_lattice(k - 1, n)
    for key, members in groups.items():
        sets = [family.sets[i] for i in members]
        if key is Box:
            p[members] = [_box_probability(C, n) for C in sets]
        elif key is Ball:
            p[members] = _ball_probabilities(sets, k, n)
        else:
            assert isinstance(sets[0], HalfSpace), f"no conditioning for {sets[0]}"
            p[members] = _half_space_probabilities(sets, head, n)
    return float(np.max(np.abs(p - family.measures)))


def byte_sum_counts(n):
    """The number of n-tuples of bytes (0..255) with sum s, for s = 0..255 n, as Python ints.

    Each byte adds a convolution with 256 ones, taken as a difference of prefix sums.
    """
    counts = [1]
    for _ in range(n):
        prefix = [0, *itertools.accumulate(counts)]
        counts = [prefix[min(s + 1, len(counts))] - prefix[max(s - 255, 0)]
                  for s in range(len(counts) + 255)]
    return counts


def byte_sum_thresholds(n):
    """floor(P(X <= s) 2^64) for s < 255 n and X the sum of n uniform bytes, exactly, as uint64.

    A 64-bit word w draws X = searchsorted(thresholds, w, side="right").
    """
    cumulative = itertools.accumulate(byte_sum_counts(n)[:-1])
    return np.array([(c << 64) // 256**n for c in cumulative], dtype=np.uint64)
