"""References computed apart from halfspace6v.

Nothing here imports the package under test: the closed forms, the
determinant, the ASEP generator and its exponential, the Poisson tail and
the family-wise binomial test are written from the paper's formulas and
from textbook numerics, so a fault in the engine cannot hide in its own
reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Closed forms of the triangular partition function
# ---------------------------------------------------------------------------


def h(x, a, c):
    """Boundary function h(x) = ac(1-x^2)/((a-x)(c-x)) at finite c."""
    return a * c * (1 - x * x) / ((a - x) * (c - x))


def z1(x, q, a, c):
    """Z_1(x) = 1 - h(x)."""
    return 1 - h(x, a, c)


def z2(x1, x2, q, a, c):
    """Z_2 = (1-h1)(1-h2) - h1 h2/(ac) (1-q) x1 x2/(1 - q x1 x2)."""
    h1, h2 = h(x1, a, c), h(x2, a, c)
    return (1 - h1) * (1 - h2) - h1 * h2 / (a * c) * (1 - q) * x1 * x2 / (1 - q * x1 * x2)


# ---------------------------------------------------------------------------
# Exact determinant (Bareiss fraction-free elimination)
# ---------------------------------------------------------------------------


def det_bareiss(M) -> Fraction:
    """Determinant over the rationals by Bareiss' fraction-free elimination."""
    A = [[Fraction(v) for v in row] for row in M]
    n = len(A)
    if n == 0:
        return Fraction(1)
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if A[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) / prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Half-line ASEP on sites 1..S (bit s-1 <-> site s)
# ---------------------------------------------------------------------------


def asep_generator(sites: int, q: float, alpha: float, gamma: float) -> np.ndarray:
    """Dense rate matrix built from the rates with vectorised bit operations.

    Entry at site 1 at rate alpha, exit at rate gamma, right hops at rate 1
    and left hops at rate q under exclusion; no hop leaves site S.
    """
    dim = 1 << sites
    m = np.arange(dim)
    L = np.zeros((dim, dim))
    empty1 = (m & 1) == 0
    L[m[empty1], m[empty1] | 1] += alpha
    L[m[~empty1], m[~empty1] & ~1] += gamma
    for s in range(sites - 1):
        lo, hi = 1 << s, 1 << (s + 1)
        right = ((m & lo) != 0) & ((m & hi) == 0)
        L[m[right], m[right] ^ (lo | hi)] += 1.0
        left = ((m & hi) != 0) & ((m & lo) == 0)
        L[m[left], m[left] ^ (lo | hi)] += q
    L[m, m] = -L.sum(axis=1)
    return L


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.abs(A).sum(axis=1).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    X = A / 2.0**squarings
    E = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 40):
        term = term @ X / k
        E = E + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(squarings):
        E = E @ E
    return E


def config_mask(cfg) -> int:
    mask = 0
    for p in cfg:
        mask |= 1 << (p - 1)
    return mask


def asep_law(mu, sites: int, q: float, alpha: float, gamma: float, t: float) -> np.ndarray:
    """Row mu of exp(tL): the time-t law of the truncated chain."""
    return expm(t * asep_generator(sites, q, alpha, gamma))[config_mask(mu)]


def poisson_tail(lam: float, k: int) -> float:
    """P(Poisson(lam) >= k)."""
    if k <= 0:
        return 1.0
    cdf = sum(math.exp(-lam) * lam**j / math.factorial(j) for j in range(k))
    return max(0.0, 1.0 - cdf)


def front_leakage(mu, sites: int, t: float) -> float:
    """Chance that the rightmost particle, which advances only through its
    own rate-1 hops, crosses from its start to site S by time t."""
    return poisson_tail(t, sites - max(max(mu, default=0), 1))


def family_wise_rejects(counts, law, samples: int, alpha: float = 1e-6) -> list:
    """States whose count is incompatible with `law` at family-wise level alpha.

    For each state the two-sided Chernoff bound 2 exp(-n KL(p_hat || p))
    dominates the binomial p-value; Bonferroni over all states of the law
    keeps the chance of any false rejection below alpha.  Returns the
    rejected (mask, count, p) triples.
    """
    threshold = math.log(2 * len(law) / alpha)
    out = []
    for mask, p in enumerate(law):
        c = counts.get(mask, 0)
        p = min(max(float(p), 0.0), 1.0)
        if samples * _kl(c / samples, p) > threshold:
            out.append((mask, c, p))
    return out


def _kl(a: float, b: float) -> float:
    """Kullback-Leibler divergence of Bernoulli(a) from Bernoulli(b)."""
    if b <= 0.0:
        return 0.0 if a <= 0.0 else math.inf
    if b >= 1.0:
        return 0.0 if a >= 1.0 else math.inf
    out = 0.0
    if a > 0.0:
        out += a * math.log(a / b)
    if a < 1.0:
        out += (1 - a) * math.log((1 - a) / (1 - b))
    return out
