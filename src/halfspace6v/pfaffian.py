"""Pfaffians of skew-symmetric matrices over both backends.

One fraction-free (Bareiss-type) skew elimination of a single matrix
serves every backend, with the entry of largest modulus as every pivot.
Exact entries are cleared to integers with the lcm D of their
denominators, eliminated with exact integer division, and give the
Fraction +-p_last / D^(n/2); anything else is converted to complex and
eliminated with true division.  Also houses the exact determinant used as
the independent Pf^2 = det oracle, the Pfaffian summation identity
Pf(A+B) and the Stembridge factorisation used by the triangular
partition function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, repeat
from numbers import Number
from operator import floordiv, truediv

from .errors import DivisionByZero, NotSkewSymmetric
from .scalars import is_exact, numerator


def check_skew(M) -> int:
    """Validate exact skew-symmetry of one square matrix; return the order."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise NotSkewSymmetric("matrix is not square")
    # built-in scalar types pass without the slower ABC isinstance
    if not all(type(v) in (int, Fraction, float, complex) or isinstance(v, Number)
               for row in M for v in row):
        raise NotSkewSymmetric("entries must be scalars (one matrix, not a stack)")
    for i in range(n):
        if M[i][i] != 0:
            raise NotSkewSymmetric("nonzero diagonal entry")
        if any(M[i][j] != -M[j][i] for j in range(i + 1, n)):
            raise NotSkewSymmetric("M[i][j] != -M[j][i]")
    return n


def pfaffian(M, validate: bool = True):
    """Pfaffian of an even-order skew-symmetric matrix.

    M is a sequence of rows (nested lists, or a 2-D ndarray).  All-exact
    entries (rationals/ints) give an exact Fraction; otherwise every entry
    is converted with complex() and the result is a complex.
    """
    n = len(M)
    if n == 0:
        return 1
    exact = all(is_exact(v) for row in M for v in row)
    if exact:
        # Pf(D M) = D^(n/2) Pf(M), D > 0: validate and eliminate over ints
        den = math.lcm(*(v.denominator for row in M for v in row))
        M = [[numerator(v, den) for v in row] for row in M]
    if validate:
        check_skew(M)
    if n % 2 != 0:
        raise NotSkewSymmetric("Pfaffian requires even order (border odd inputs)")
    if exact:
        return Fraction(pfaffian_upper(M, True), den ** (n // 2))
    return pfaffian_upper([[complex(v) for v in row] for row in M], False)


def pfaffian_upper(A, exact: bool):
    """Pfaffian of the skew matrix A (a list of rows), without validation,
    reduced in place by fraction-free skew elimination: A holds integers
    when exact (and every division is exact), else complex numbers.

    Step k swaps index k+1 with the p > k of the largest |A[k][p]| (a swap
    negates the Pfaffian) and takes the pivot p_k = A[k][k+1].  Every entry
    of the trailing block becomes

        (p_k A[i][j] - A[k][i] A[k+1][j] + A[k][j] A[k+1][i]) / p_{k-1},

    the Pfaffian of A restricted to the indices 0..k+1, i and j (p_{-1} = 1),
    so over the integers every division is exact and every entry stays an
    integer.  Only the upper triangle is kept, and the last pivot is the
    Pfaffian.  A zero pivot column means Pfaffian 0.
    """
    n, div = len(A), floordiv if exact else truediv
    sign, prev = 1, 1
    for k in range(0, n - 1, 2):
        row_k, s = A[k], k + 1
        p = max(range(s, n), key=lambda i: abs(row_k[i]))
        if row_k[p] == 0:
            return 0 * row_k[p]
        if p != s:
            # swap indices s < p in the upper triangle: A[i][p] = -A[p][i]
            # for s < i < p, and rows above k are never read again
            row_s, row_p = A[s], A[p]
            row_k[s], row_k[p] = row_k[p], row_k[s]
            row_s[p] = -row_s[p]
            for i in range(s + 1, p):
                row_s[i], A[i][p] = -A[i][p], -row_s[i]
            row_s[p + 1 :], row_p[p + 1 :] = row_p[p + 1 :], row_s[p + 1 :]
            sign = -sign
        pivot, row_s = row_k[s], A[s]
        for i in range(s + 1, n - 1):
            a_i, b_i, row_i = row_k[i], row_s[i], A[i]
            row_i[i + 1 :] = map(div, [
                pivot * v - a_i * b_j + a_j * b_i
                for v, a_j, b_j in zip(row_i[i + 1 :], row_k[i + 1 :], row_s[i + 1 :])
            ], repeat(prev))
        prev = pivot
    return sign * prev


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
