"""Every set form and row hook on rows that mix 0.3, +-inf, NaN, 1e300 and -1e200.

Each hook must raise no warning, must give every finite row (far ones
included) the bits of a call on the finite rows alone, and must give a row
with a NaN entry NaN (or not-a-member).  The limits of the infinite rows that
used to warn are pinned at the end.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from steinclt import Ball, Box, Ellipsoid, HalfSpace, IndicatorFunction, SetFamily
from steinclt import semigroup_apply, semigroup_derivative, semigroup_jet
from steinclt.convex import DilatedBox, shifted_measure_batch

_VALUES = [0.3, math.inf, -math.inf, math.nan, 1e300, -1e200]
_DIMS = [1, 2, 3, 5]
_ALPHA, _W = np.array([0.9, 0.5]), np.array([0.43, 0.86])
_TIMES = [0.2, 0.5]
# rows per call of a hook that integrates h by quadrature, one row at a time
_QUADRATURE_ROWS = 6


def _forms(k):
    """Every set form at dimension k, by name."""
    axis = np.zeros(k)
    axis[0] = 1.0
    slab_lower = np.full(k, -1.0)
    slab_lower[-1] = -math.inf
    box = Box(np.full(k, -1.0), np.full(k, 0.5))
    slab = Box(slab_lower, np.ones(k))
    ellipsoid = Ellipsoid(np.full(k, 0.1), np.diag(np.arange(1.0, k + 1.0)))
    forms = {
        "half-space": HalfSpace(np.ones(k) / math.sqrt(k), 0.2),
        "ball": Ball(np.full(k, 0.1), 1.1),
        "box": box,
        "infinite-bound-box": slab,
        "centred-cube": Box(-np.ones(k), np.ones(k)),
        "ellipsoid": ellipsoid,
        "dilated-box": box.dilate(0.2),  # closed-form Phi up to k = 4, QMC above
        "dilated-infinite-bound-box": slab.dilate(0.2),
        "dilated-ellipsoid": ellipsoid.dilate(0.2),
        "eroded-ellipsoid": ellipsoid.erode(0.2),
    }
    if k > 1:
        forms["axis-half-space"] = HalfSpace(axis, -0.3)
    if k > 2:
        normal = np.zeros(k)
        normal[[0, -1]] = 0.6, -0.8
        forms["zero-normal-half-space"] = HalfSpace(normal, 0.1)
    return forms


def _orders(k):
    return [(0,), (0, k - 1), (k - 1, k - 1), (0, 0, k - 1)]


def _has_derivatives(C):
    return C.smoothed_derivative(_ALPHA, _W, np.zeros((1, C.dim)), (0,)) is not None


def _by_quadrature(C, hook):
    """Whether the hook falls back to quadrature, which integrates h one row at a time."""
    if hook == "semigroup_apply":
        return not C.has_closed_form
    return hook.startswith("semigroup") and not _has_derivatives(C)


def _hooks(C):
    """name -> (hook, row axis, NaN-row value) for every row hook C defines.

    A hook returns a tuple of arrays with their rows along the axis given.
    The semigroup hooks give a NaN row NaN whether a closed form or the
    quadrature fallback (ellipsoids, their parallel bodies, a dilated box
    above k = 4, the derivatives of a dilated box) evaluates them.
    """
    k, h = C.dim, IndicatorFunction(C)
    hooks = {"contains": (lambda X: (C.contains(X),), 0, False)}
    if hasattr(C, "boundary_distance"):
        hooks["boundary_distance"] = (lambda X: (C.boundary_distance(X),), 0, math.nan)
        hooks["boundary_distance_bounds"] = (C.boundary_distance_bounds, 0, math.nan)
    if C.has_closed_form:
        hooks["shifted_measure"] = (lambda X: (shifted_measure_batch(C, X, 0.7),), 0, math.nan)
    if _has_derivatives(C):
        hooks["smoothed_derivative"] = (
            lambda X: tuple(C.smoothed_derivative(_ALPHA, _W, X, idx) for idx in _orders(k)),
            1, math.nan,
        )
        hooks["smoothed_jet"] = (lambda X: C.smoothed_jet(_ALPHA, _W, X), 1, math.nan)
    hooks["semigroup_apply"] = (lambda X: (semigroup_apply(h, 0.3, X),), 0, math.nan)
    hooks["semigroup_derivative"] = (
        lambda X: (semigroup_derivative(h, _TIMES, X, (0, k - 1)),), 1, math.nan
    )
    hooks["semigroup_jet"] = (lambda X: semigroup_jet(h, _TIMES, X), 1, math.nan)
    return hooks


def _rows(k):
    """Rows of the five values (all of them up to k = 2, 48 of them above), and Gaussian rows."""
    rng = np.random.default_rng(k)
    combos = np.array(list(itertools.product(_VALUES, repeat=k)))
    if len(combos) > 48:
        combos = combos[rng.choice(len(combos), 48, replace=False)]
    X = np.concatenate([combos, rng.standard_normal((8, k))])
    return X[rng.permutation(len(X))]


def _quiet(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


_CASES = [
    pytest.param(k, form, hook, id=f"k{k}-{form}-{hook}")
    for k in _DIMS
    for form, C in _forms(k).items()
    for hook in _hooks(C)
]


@pytest.mark.parametrize("k, form, hook", _CASES)
def test_a_hook_on_non_finite_rows_warns_not_and_keeps_the_finite_rows(k, form, hook):
    C = _forms(k)[form]
    call, axis, nan_value = _hooks(C)[hook]
    X = _rows(k)
    if _by_quadrature(C, hook):
        X = X[:_QUADRATURE_ROWS]
    finite = np.isfinite(X).all(axis=1)
    with_nan = np.isnan(X).any(axis=1)
    assert finite.any() and with_nan.any()
    got = _quiet(call, X)
    alone = _quiet(call, X[finite])
    for out, out_alone in zip(got, alone):
        out = np.moveaxis(np.asarray(out), axis, 0)
        assert np.moveaxis(np.asarray(out_alone), axis, 0).tobytes() == out[finite].tobytes()
        if nan_value is False:
            assert not out[with_nan].any()
        else:
            assert np.isnan(out[with_nan]).all()


@pytest.mark.parametrize("k", _DIMS)
def test_family_counts_on_non_finite_rows_warn_not_and_add_up(k):
    family = SetFamily(sets=tuple(_forms(k).values()))
    X = _rows(k)
    finite = np.isfinite(X).all(axis=1)
    counts = _quiet(family.counts, X)
    members = [np.count_nonzero(_quiet(C.contains, X)) for C in family.sets]
    assert counts.tolist() == members
    assert np.array_equal(counts, family.counts(X[finite]) + family.counts(X[~finite]))


@pytest.mark.parametrize(
    "box, row, excess",
    [
        # inside a slab, running off towards its infinite bound
        (Box([-math.inf], [1.0]), [-math.inf], 0.0),
        # an infinite and a far finite excess: the squares of the norm would overflow
        (Box([-1.0, -1.0], [0.5, 0.5]), [math.inf, 1e300], math.inf),
        # an infinite bound is never a nearer face, so the finite bounds decide, as at -1e300
        (Box([-1.0, -math.inf], [1.0, 1.0]), [0.0, -math.inf], 0.0),
        (Box([-1.0, -math.inf], [1.0, 1.0]), [1.5, -1e300], 0.5),
        (Box([-math.inf, -1.0], [math.inf, 1.0]), [math.inf, 2.0], 1.0),
    ],
)
def test_a_dilated_box_decides_an_infinite_row_by_its_excess(box, row, excess):
    for eps in (1e-300, 0.2, 0.5, 1e200):
        assert _quiet(box.dilate(eps).contains, [row]).tolist() == [excess <= eps]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_dilated_box_leaves_out_an_infinite_row_with_a_far_entry(k):
    C = Box(np.full(k, -1.0), np.full(k, 0.5)).dilate(0.2)
    assert type(C) is DilatedBox
    row = np.full((1, k), 0.3)
    row[0, :2] = math.inf, 1e300
    assert _quiet(C.contains, row).tolist() == [False]
    assert _quiet(SetFamily(sets=(C,)).counts, row).tolist() == [0]


def test_ball_jet_of_a_nan_row_with_a_far_entry_is_nan():
    row = np.array([[math.nan, 1e300]])
    grad, lap = _quiet(Ball(np.zeros(2), 1.0).smoothed_jet, _ALPHA, _W, row)
    assert np.isnan(grad).all() and np.isnan(lap).all()

