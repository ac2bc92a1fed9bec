import itertools
import math

import numpy as np
import pytest
from scipy import special

from steinclt import (
    RngStream,
    abs_d3_integral,
    abs_hermite_moment,
    chi_cdf,
    d3_phi,
    norm_pdf,
    phi,
    quantile_a,
    sample_std_normal,
)
from steinclt.errors import DomainError


def test_phi_at_origin():
    assert phi(np.zeros(1)) == pytest.approx((2 * math.pi) ** -0.5, abs=1e-15)
    assert phi(np.zeros(3)) == pytest.approx((2 * math.pi) ** -1.5, abs=1e-15)


def test_phi_product_oracle():
    x = np.array([1.0, math.sqrt(3.0)])
    prod = float(norm_pdf(1.0) * norm_pdf(math.sqrt(3.0)))
    assert phi(x) == pytest.approx(prod, abs=1e-14)


def test_phi_rejects_nonfinite():
    with pytest.raises(DomainError):
        phi(np.array([np.nan, 0.0]))


def _fd_third(x, idx, h=1e-3):
    """Central-difference oracle for mixed third partials of phi."""
    mult = {}
    for i in idx:
        mult[i] = mult.get(i, 0) + 1

    def shifted(steps):
        y = x.copy()
        for i, s in steps.items():
            y[i] += s * h
        return phi(y)

    axes = sorted(mult)
    if len(axes) == 3:
        total = 0.0
        for sa, sb, sc in itertools.product((1, -1), repeat=3):
            total += sa * sb * sc * shifted({axes[0]: sa, axes[1]: sb, axes[2]: sc})
        return total / (8 * h**3)
    if len(axes) == 2:
        (rep,) = [a for a in axes if mult[a] == 2]
        (single,) = [a for a in axes if mult[a] == 1]
        total = 0.0
        for ss in (1, -1):
            inner = (
                shifted({rep: 1, single: ss})
                - 2 * shifted({single: ss})
                + shifted({rep: -1, single: ss})
            )
            total += ss * inner
        return total / (2 * h**3)
    (a,) = axes
    return (
        shifted({a: 2}) - 2 * shifted({a: 1}) + 2 * shifted({a: -1}) - shifted({a: -2})
    ) / (2 * h**3)


def test_d3_odd_symmetry_at_origin():
    assert d3_phi(np.zeros(1), (0, 0, 0)) == 0.0


def test_d3_all_distinct_value():
    x = np.ones(3)
    assert d3_phi(x, (0, 1, 2)) == pytest.approx(-phi(x), rel=1e-14)


def test_d3_permutation_symmetric():
    x = np.array([0.3, -1.1, 0.7])
    vals = {d3_phi(x, p) for p in itertools.permutations((0, 1, 2))}
    assert len(vals) == 1
    vals2 = {d3_phi(x, p) for p in itertools.permutations((0, 0, 2))}
    assert len(vals2) == 1


@pytest.mark.parametrize("idx", [(0, 0, 0), (0, 0, 1), (0, 1, 2), (1, 2, 2), (2, 2, 2)])
def test_d3_matches_finite_differences(idx):
    gen = RngStream(31, stream_id=1).generator()
    for x in gen.standard_normal((100, 3)):
        exact = d3_phi(x, idx)
        fd = _fd_third(x, idx)
        # scale floor: the derivative vanishes on a codimension-1 set
        assert abs(exact - fd) <= 1e-5 * max(abs(exact), 1e-2)


def test_d3_index_out_of_range():
    with pytest.raises(DomainError):
        d3_phi(np.zeros(2), (0, 1, 2))


def test_abs_hermite_moments_against_closed_forms():
    assert abs_hermite_moment(1) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-15)
    assert abs_hermite_moment(2) == pytest.approx(4 * float(norm_pdf(1.0)), abs=1e-15)
    expected = 2 * float(norm_pdf(0.0)) + 8 * float(norm_pdf(math.sqrt(3.0)))
    assert abs_hermite_moment(3) == pytest.approx(expected, abs=1e-15)


def test_abs_d3_integral_values_and_caps():
    distinct = abs_d3_integral("distinct", 3)
    pair = abs_d3_integral("pair", 2)
    triple = abs_d3_integral("triple", 1)
    assert distinct == pytest.approx((2 / math.pi) ** 1.5, abs=1e-12)
    assert pair == pytest.approx(4 * float(norm_pdf(1.0)) * math.sqrt(2 / math.pi), abs=1e-12)
    assert triple == pytest.approx(
        2 * float(norm_pdf(0.0)) + 8 * float(norm_pdf(math.sqrt(3.0))), abs=1e-12
    )
    assert distinct <= 1.0 and pair <= 1.0 and triple <= math.sqrt(6.0)


def test_abs_d3_integral_quadrature_crosscheck():
    # independent numerical oracle over a wide 1D grid
    z = np.linspace(-12, 12, 200_001)
    w = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    e1 = w(np.abs(z) * norm_pdf(z), z)
    e2 = w(np.abs(z * z - 1) * norm_pdf(z), z)
    e3 = w(np.abs(z**3 - 3 * z) * norm_pdf(z), z)
    assert abs_d3_integral("distinct", 3) == pytest.approx(e1**3, abs=1e-8)
    assert abs_d3_integral("pair", 2) == pytest.approx(e2 * e1, abs=1e-8)
    assert abs_d3_integral("triple", 1) == pytest.approx(e3, abs=1e-8)


def test_abs_d3_needs_enough_dimensions():
    with pytest.raises(DomainError):
        abs_d3_integral("distinct", 2)


def test_quantile_k1_error_function_oracle():
    # P(|Z| < a) = erf(a / sqrt 2) = 7/8
    oracle = math.sqrt(2.0) * special.erfinv(7.0 / 8.0)
    assert quantile_a(1).a_k == pytest.approx(oracle, abs=2e-15)


def test_quantile_k2_rayleigh_closed_form():
    assert quantile_a(2).a_k == pytest.approx(math.sqrt(-2 * math.log(1 / 8)), abs=2e-15)


def test_quantile_achieved_mass():
    # the bisection this replaced left the mass up to 1.3e-12 off
    for k in range(1, 129):
        res = quantile_a(k)
        assert abs(res.achieved_mass - 7 / 8) <= 1e-15


def test_quantile_monotone_and_sqrt_band():
    vals = [quantile_a(k).a_k for k in range(1, 65)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    ratios = [v / math.sqrt(k) for k, v in enumerate(vals, start=1)]
    assert all(0.9 < r < 2.2 for r in ratios)


def test_quantile_large_k():
    res = quantile_a(10**6)
    assert abs(res.achieved_mass - 7 / 8) <= 5e-14


def test_chi_cdf_zero_below_zero():
    assert chi_cdf(-1.0, 3) == 0.0


def test_chi_cdf_is_nan_at_nan_and_unchanged_above_zero():
    # NaN fails `r > 0`, so a NaN radius used to read as probability 0
    assert math.isnan(chi_cdf(math.nan, 3))
    r = np.array([math.nan, -1.0, 0.0, 1e-300, 0.3, 1.7, 40.0, math.inf])
    for k in (1, 2, 5):
        out = chi_cdf(r, k)
        assert math.isnan(out[0]) and out[1] == out[2] == 0.0
        assert np.array_equal(out[3:], special.gammainc(0.5 * k, 0.5 * np.square(r[3:])))


@pytest.mark.parametrize(
    "call",
    [
        lambda: quantile_a(math.nan),
        lambda: quantile_a(math.inf),
        lambda: quantile_a(2.5),
        lambda: quantile_a(True),
        lambda: abs_d3_integral("pair", 2.5),
        lambda: sample_std_normal(3, 2.5, RngStream(0)),
    ],
    ids=["quantile_a-nan", "quantile_a-inf", "quantile_a-fraction", "quantile_a-bool",
         "abs_d3_integral-fraction", "sample_std_normal-fraction"],
)
def test_dimension_argument_is_checked(call):
    # a NaN or infinite k used to pass `k < 1` and fail later in the quantile's
    # bracketing loop, a fractional or bool k was accepted, and sample_std_normal raised TypeError
    with pytest.raises(DomainError):
        call()
