"""Pfaffians of skew-symmetric matrices over both backends.

One skew LTL^T (Parlett-Reid) elimination serves every backend: exact
entries stay exact (pivot on the first nonzero entry), floats and complex
numbers pivot on the largest modulus, and an ndarray of shape (..., n, n)
is eliminated lane by lane in one pass.  Also houses the exact determinant
used as the independent Pf^2 = det oracle, the Pfaffian summation
identity Pf(A+B) and the Stembridge factorisation used by the triangular
partition function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import DivisionByZero, NotSkewSymmetric
from .scalars import is_exact


def check_skew(M) -> int:
    """Validate exact skew-symmetry of a matrix or a stack; return the order."""
    if not isinstance(M, np.ndarray) and any(len(row) != len(M) for row in M):
        raise NotSkewSymmetric("matrix is not square")
    A = np.asarray(M)
    n = A.shape[-1]
    if A.ndim < 2 or A.shape[-2] != n:
        raise NotSkewSymmetric("matrix is not square")
    if np.any(np.abs(np.diagonal(A, axis1=-2, axis2=-1)) > 0):
        raise NotSkewSymmetric("nonzero diagonal entry")
    if np.any(np.abs(A + np.swapaxes(A, -1, -2)) > 0):
        raise NotSkewSymmetric("M[i][j] != -M[j][i]")
    return n


def pfaffian(M, validate: bool = True):
    """Pfaffian of an even-order skew-symmetric matrix.

    M is a nested list (exact rationals/ints give an exact Fraction, floats
    or complex numbers a complex) or an ndarray of shape (..., n, n), whose
    Pfaffians come back as a complex array of shape (...).
    """
    batched = isinstance(M, np.ndarray)
    if not batched and len(M) == 0:
        return 1
    if validate:
        check_skew(M)
    exact = not batched and all(is_exact(v) for row in M for v in row)
    if exact:
        A = np.array([[Fraction(v) for v in row] for row in M], dtype=object)
    else:
        A = np.array(M, dtype=complex)
    n = A.shape[-1]
    if n % 2 != 0:
        raise NotSkewSymmetric("Pfaffian requires even order (border odd inputs)")
    lead = A.shape[:-2]
    pf = _skew_ltlt(A.reshape(math.prod(lead), n, n), exact)
    return pf.reshape(lead) if batched else pf[0]


def _skew_ltlt(A, exact: bool):
    """Pfaffians of the stack A (lanes, n, n), reduced in place.

    Step k moves the pivot row into place k+1 (a swap negates the
    Pfaffian), takes the factor A[k, k+1] and replaces the trailing block
    by its Schur complement.  A lane whose pivot column is zero has
    Pfaffian 0; its trailing block is left alone.
    """
    lanes, n, _ = A.shape
    one = Fraction(1) if exact else 1.0
    lane = np.arange(lanes)
    pf = np.full(lanes, one, dtype=A.dtype)
    for k in range(0, n - 1, 2):
        below = A[:, k + 1 :, k]
        p = k + 1 + np.argmax(below != 0 if exact else np.abs(below), axis=1)
        swap = p != k + 1
        if swap.any():
            rows = A[lane, p].copy()
            A[lane, p] = A[:, k + 1]
            A[:, k + 1] = rows
            cols = A[lane, :, p].copy()
            A[lane, :, p] = A[:, :, k + 1]
            A[:, :, k + 1] = cols
            pf = np.where(swap, -pf, pf)
        pivot = A[:, k, k + 1]
        pf = pf * pivot
        if k + 2 < n:
            live = pivot != 0
            inv = np.where(live, one / np.where(live, pivot, one), 0 * one)
            tau = A[:, k, k + 2 :] * inv[:, None]
            col = A[:, k + 2 :, k + 1]
            A[:, k + 2 :, k + 2 :] += (
                tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
            )
    return pf


def det_exact(M):
    """Exact determinant by fraction-free-ish Gaussian elimination.

    Independent of the Pfaffian code path; used as the Pf^2 = det oracle.
    """
    n = len(M)
    A = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[piv], A[col] = A[col], A[piv]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        for r in range(col + 1, n):
            f = A[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
    return det


def pfaffian_sum(A, B):
    """Right-hand side of the Pfaffian summation identity:

        Pf(A+B) = sum_r (-1)^(r/2) sum_{|S|=r} (-1)^(sum S) Pf(A_S) Pf(B_Sc)

    with 1-based index sums and odd-order principal Pfaffians zero.
    """
    n = check_skew(A)
    if check_skew(B) != n:
        raise NotSkewSymmetric("orders differ")
    total = 0
    for r in range(0, n + 1, 2):
        sgn_r = (-1) ** (r // 2)
        for S in combinations(range(n), r):
            comp = tuple(i for i in range(n) if i not in S)
            sgn = sgn_r * (-1) ** (sum(S) + r)  # sum of 1-based indices
            pa = pfaffian([[A[i][j] for j in S] for i in S], validate=False)
            pb = pfaffian([[B[i][j] for j in comp] for i in comp], validate=False)
            total = total + sgn * pa * pb
    return total


def pfaffian_sum_check(A, B) -> bool:
    """Verify Pf(A+B) against the summation identity (exact backends exactly)."""
    n = len(A)
    AB = [[A[r][c] + B[r][c] for c in range(n)] for r in range(n)]
    lhs = pfaffian(AB)
    rhs = pfaffian_sum(A, B)
    return lhs == rhs


def stembridge_check(x_alphabet) -> bool:
    """Pf of the kernel S(x_i, x_j) = (x_i-x_j)/(1-x_i x_j) equals the
    product over i<j of the same factors, exactly."""
    xs = list(x_alphabet)
    n = len(xs)
    if n % 2 != 0:
        raise NotSkewSymmetric("even alphabet required")
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                den = 1 - xs[i] * xs[j]
                if den == 0:
                    raise DivisionByZero("1 - x_i x_j vanished")
                M[i][j] = (xs[i] - xs[j]) / den
    prod = 1
    for i in range(n):
        for j in range(i + 1, n):
            prod = prod * M[i][j]
    return pfaffian(M) == prod
