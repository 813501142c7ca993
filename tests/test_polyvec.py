"""Vector-coefficient polynomial arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polyval

import reference

from isothermic.minkowski import minkowski_inner
from isothermic.polyvec import (
    mp_divide_linear,
    mp_divide_one_minus,
    mp_eval,
    mp_inner_vec,
    mp_max_coeff,
    mp_norm_poly,
    mp_scale_arg,
    mp_scale_poly,
    mp_shift,
    mp_trim,
)
from isothermic.transforms import _darboux_coefficients


def direct_eval(coeffs, lam):
    return sum(c * lam ** k for k, c in enumerate(coeffs))


def test_eval_matches_direct_sum(rng):
    coeffs = rng.normal(size=(4, 5))
    for lam in rng.uniform(-3, 3, 20):
        np.testing.assert_allclose(mp_eval(coeffs, lam), direct_eval(coeffs, lam),
                                   rtol=1e-12, atol=1e-12)


def test_inner_vec_exact():
    # integer data keeps the coefficient arithmetic exact
    coeffs = np.array([[1, 2, 0, 0, 3], [0, 1, 1, 0, 0]], dtype=float)
    X = np.array([2.0, 1, 0, 0, 1])
    got = mp_inner_vec(coeffs, X)
    expected = np.array([minkowski_inner(coeffs[0], X), minkowski_inner(coeffs[1], X)])
    np.testing.assert_array_equal(got, expected)


def test_norm_poly(rng):
    c = rng.integers(-3, 4, size=(3, 5)).astype(float)
    prod = mp_norm_poly(c)
    assert prod.shape == (5,)
    for lam in (0.0, 1.0, -2.0, 0.5):
        direct = minkowski_inner(mp_eval(c, lam), mp_eval(c, lam))
        assert polyval(lam, prod) == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_norm_poly_over_a_grid(rng):
    """Leading axes, against the square of the values at every vertex."""
    c = rng.normal(size=(3, 4, 2, 5))
    prod = mp_norm_poly(c)
    assert prod.shape == (3, 4, 3)
    for lam in (0.0, 1.0, -2.0, 0.5):
        for m in range(3):
            for n in range(4):
                direct = minkowski_inner(mp_eval(c[m, n], lam), mp_eval(c[m, n], lam))
                assert polyval(lam, prod[m, n]) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_scale_poly(rng):
    c = rng.normal(size=(3, 5))
    p = np.array([2.0, -1.0, 0.5])
    out = mp_scale_poly(c, p)
    for lam in (0.3, -1.2):
        np.testing.assert_allclose(mp_eval(out, lam), polyval(lam, p) * mp_eval(c, lam),
                                   rtol=1e-12)


def test_divide_linear_roundtrip(rng):
    q = rng.normal(size=(3, 5))
    mu = 0.7
    prod = mp_scale_poly(q, np.array([-mu, 1.0]))
    got, rem = mp_divide_linear(prod, mu)
    np.testing.assert_allclose(got, q, atol=1e-13)
    np.testing.assert_allclose(rem, np.zeros(5), atol=1e-13)
    np.testing.assert_allclose(mp_divide_linear(prod, 0.3)[1], mp_eval(prod, 0.3),
                               atol=1e-12)


def test_divide_one_minus(rng):
    q = rng.normal(size=(3, 5))
    a = -1.4
    prod = mp_scale_poly(q, np.array([1.0, -a]))
    got, rem = mp_divide_one_minus(prod, a)
    np.testing.assert_allclose(got, q, atol=1e-12)
    np.testing.assert_allclose(rem, np.zeros(5), atol=1e-12)


@pytest.mark.parametrize("a", [0.0, -1.4, 0.6])
def test_divide_one_minus_leaves_top_remainder(rng, a):
    """P = (1 - a lam) Q + r lam^(K-1), for a = 0 too (division by 1), on
    real polynomials passed with a trailing axis of 1."""
    p = rng.normal(size=(4, 1))
    q, rem = mp_divide_one_minus(p, a)
    back = np.zeros(4)
    back[:3] += q[:, 0]
    back[1:] -= a * q[:, 0]
    back[3] += rem[0]
    np.testing.assert_allclose(back, p[:, 0], atol=1e-12)


def test_division_helpers_broadcast_over_leading_axes(rng):
    c = rng.normal(size=(3, 4, 5))
    a = rng.uniform(-2.0, 2.0, size=(3, 1))
    q, rem = mp_divide_one_minus(c, a)
    ql, reml = mp_divide_linear(c, 0.7)
    for i in range(3):
        qi, ri = mp_divide_one_minus(c[i], float(a[i, 0]))
        np.testing.assert_array_equal(q[i], qi)
        np.testing.assert_array_equal(rem[i], ri)
        qi, ri = mp_divide_linear(c[i], 0.7)
        np.testing.assert_array_equal(ql[i], qi)
        np.testing.assert_array_equal(reml[i], ri)


def test_shift_and_scale_arg(rng):
    c = rng.normal(size=(4, 5))
    for lam in (0.0, 0.4, -1.7):
        np.testing.assert_allclose(mp_eval(mp_shift(c, 0.9), lam),
                                   mp_eval(c, lam + 0.9), rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(mp_eval(mp_scale_arg(c, -2.0), lam),
                                   mp_eval(c, -2.0 * lam), rtol=1e-12, atol=1e-12)


def test_apply_and_trim(rng):
    c = rng.normal(size=(3, 5))
    padded = np.concatenate([c, np.full((2, 5), 1e-15)], axis=0)
    assert mp_trim(padded, 1.0 + mp_max_coeff(padded)).shape == (3, 5)


#: Reals with both zeros drawn often, as the division turns on their signs.
REALS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))


def _bits(arrays):
    return [(x.dtype, x.shape, x.tobytes()) for x in map(np.asarray, arrays)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 5), lead=st.sampled_from([(), (3,), (2, 3)]),
       a_kind=st.sampled_from(["scalar", "array"]))
def test_the_one_division_is_the_reference_loops_bitwise(data, k, lead, a_kind):
    """mp_eval and mp_divide_one_minus, both read off one synthetic division
    by (lam - x), give the results of their former loops in
    tests/reference.py bit for bit, for one to five coefficients and scalar
    or array-valued a (negative, zero or positive).  The one difference: the
    former division's first step added a * 0.0 to the constant coefficient,
    which turns a -0.0 there into +0.0 when a >= 0."""
    c = np.array(data.draw(st.lists(REALS, min_size=k * 5 * int(np.prod(lead)),
                                    max_size=k * 5 * int(np.prod(lead))))).reshape(lead + (k, 5))
    lam = data.draw(REALS)
    assert _bits([mp_eval(c, lam)]) == _bits([reference.mp_eval(c, lam)])

    if a_kind == "scalar":
        a = data.draw(REALS)
    else:
        a = np.array(data.draw(st.lists(REALS, min_size=int(np.prod(lead)),
                                        max_size=int(np.prod(lead))))).reshape(lead + (1,))
    old = _bits(reference.mp_divide_one_minus(c, a))
    if k > 1:
        c_first = c.copy()
        c_first[..., 0, :] = c[..., 0, :] + a * 0.0
        assert _bits(mp_divide_one_minus(c_first, a)) == old
    zeros = c[..., 0, :][c[..., 0, :] == 0.0]
    if k == 1 or not np.signbit(zeros).any():
        assert _bits(mp_divide_one_minus(c, a)) == old


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(1, 4), lead=st.sampled_from([(), (3,), (2, 3)]))
def test_the_per_coefficient_builds_are_the_reference_accumulations_bitwise(data, k, lead):
    """mp_norm_poly, mp_scale_poly, mp_shift and the coefficients of
    pcq_darboux, each coefficient built once from its terms by ascending
    index from +0, give the accumulations into a zeroed array of
    tests/reference.py bit for bit, for one to four coefficients, with
    signed zeros drawn often; mp_norm_poly reads each symmetric product
    <c_a, c_b> once for both orders."""
    def draw(shape):
        n = int(np.prod(shape))
        return np.array(data.draw(st.lists(REALS, min_size=n, max_size=n))).reshape(shape)

    c = draw(lead + (k, 5))
    assert _bits([mp_norm_poly(c)]) == _bits([reference.mp_inner_poly(c, c)])
    p = draw((data.draw(st.integers(1, 3)),))
    assert _bits([mp_scale_poly(c, p)]) == _bits([reference.mp_scale_poly(c, p)])
    mu = data.draw(REALS)
    assert _bits([mp_shift(c, mu)]) == _bits([reference.mp_shift(c, mu)])
    F, Fh = draw(lead + (5,)), draw(lead + (5,))
    with np.errstate(all="ignore"):  # mu = 0 and <F, Fh> = 0 divide by zero on both sides
        assert (_bits([_darboux_coefficients(c, F, Fh, mu)])
                == _bits([reference.darboux_coefficients(c, F, Fh, mu)]))
