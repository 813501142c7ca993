"""Polynomials in a real spectral parameter with vector coefficients.

A polynomial of degree N is an ndarray of shape ``(..., N+1, 5)`` holding
ascending coefficients; real polynomials are ndarrays of shape ``(..., K)``
(the division helpers take them with a trailing axis of length 1).
All helpers broadcast over leading axes, so a whole grid of polynomials can
be processed in one call.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .minkowski import SIGNATURE
from .tolerances import tol


def _divide(c, x):
    """Synthetic division of the coefficients ``c`` by (lam - x): the quotient,
    of one coefficient fewer, and the remainder P(x), carried by Horner's rule."""
    k = c.shape[-2]
    q = np.zeros(c.shape[:-2] + (k - 1, c.shape[-1]))
    carry = c[..., k - 1, :].copy()
    for j in range(k - 2, -1, -1):
        q[..., j, :] = carry
        carry = c[..., j, :] + x * carry
    return q, carry


def mp_eval(coeffs, lam):
    """Horner evaluation; returns shape (..., 5)."""
    return _divide(np.asarray(coeffs, dtype=float), lam)[1]


def mp_inner_vec(coeffs, X):
    """Real polynomial <P(lam), X>; coefficients shape (..., K)."""
    c = np.asarray(coeffs, dtype=float)
    return np.einsum("...j,...j->...", c, np.asarray(X, dtype=float) * SIGNATURE)


def mp_inner_poly(c1, c2):
    """Real polynomial <P(lam), R(lam)> of two coefficient arrays (no broadcasting
    over the polynomial axis; leading axes broadcast)."""
    c1 = np.asarray(c1, dtype=float) * SIGNATURE
    c2 = np.asarray(c2, dtype=float)
    k1, k2 = c1.shape[-2], c2.shape[-2]
    out = np.zeros(np.broadcast_shapes(c1.shape[:-2], c2.shape[:-2]) + (k1 + k2 - 1,))
    for a in range(k1):
        for b in range(k2):
            out[..., a + b] += np.einsum("...j,...j->...", c1[..., a, :], c2[..., b, :])
    return out


def mp_scale_poly(coeffs, p):
    """Multiply a vector polynomial by a real polynomial."""
    c = np.asarray(coeffs, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.zeros(c.shape[:-2] + (c.shape[-2] + len(p) - 1, 5))
    for a in range(len(p)):
        out[..., a : a + c.shape[-2], :] += p[a] * c
    return out


def mp_divide_linear(coeffs, mu):
    """Synthetic division by (lam - mu): returns (quotient, remainder vector).

    The remainder equals P(mu)."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-2] < 2:
        raise ValueError("cannot divide a constant polynomial by (lam - mu)")
    return _divide(c, mu)


def mp_divide_one_minus(coeffs, a):
    """Division by (1 - a*lam) of a polynomial of degree K-1: returns the
    quotient Q of degree K-2 and the remainder vector r with
    P = (1 - a*lam) Q + r lam^(K-1).

    This is the division of the reversed coefficients by (lam - a).  Exact
    division leaves a zero remainder, which happens iff P(1/a) = 0, or, for
    a = 0, iff the top coefficient vanishes.  ``a`` may be an array
    broadcasting against the remainder's shape (..., 5).  A constant
    polynomial has the zero quotient of one coefficient.
    """
    c = np.asarray(coeffs, dtype=float)
    q, remainder = _divide(c[..., ::-1, :], a)
    return (q[..., ::-1, :] if q.shape[-2] else np.zeros_like(c)), remainder


def mp_shift(coeffs, mu):
    """Reparametrize lam -> lam + mu (binomial recombination)."""
    c = np.asarray(coeffs, dtype=float)
    k = c.shape[-2]
    out = np.zeros_like(c)
    for j in range(k):
        for i in range(j + 1):
            out[..., i, :] += comb(j, i) * (mu ** (j - i)) * c[..., j, :]
    return out


def mp_scale_arg(coeffs, alpha):
    """Reparametrize lam -> alpha * lam."""
    c = np.asarray(coeffs, dtype=float)
    powers = alpha ** np.arange(c.shape[-2])
    return c * powers[:, None]


def mp_max_coeff(coeffs):
    """Largest coefficient norm, for tolerance scaling."""
    c = np.asarray(coeffs, dtype=float)
    return float(np.sqrt(np.einsum("...j,...j->...", c, c).max())) if c.size else 0.0


def mp_trim(coeffs, scale):
    """Drop trailing coefficient blocks that vanish within tol(scale)."""
    c = np.asarray(coeffs, dtype=float)
    k = c.shape[-2]
    while k > 1:
        top = c[..., k - 1, :]
        if np.sqrt(np.einsum("...j,...j->...", top, top).max()) > tol(scale):
            break
        k -= 1
    return c[..., :k, :].copy()
