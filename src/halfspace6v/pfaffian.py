"""Pfaffians of skew-symmetric matrices over both backends.

One skew LTL^T (Parlett-Reid) elimination of a single matrix serves every
backend: exact entries give an exact Fraction, anything else is converted
to complex, and every pivot is the entry of largest modulus (for exact
entries any nonzero pivot gives the same value).  Also houses the exact
determinant used as the independent Pf^2 = det oracle, the Pfaffian
summation identity Pf(A+B) and the Stembridge factorisation used by the
triangular partition function.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from numbers import Number

from .errors import DivisionByZero, NotSkewSymmetric
from .scalars import is_exact


def check_skew(M) -> int:
    """Validate exact skew-symmetry of one square matrix; return the order."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise NotSkewSymmetric("matrix is not square")
    if not all(isinstance(v, Number) for row in M for v in row):
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
    if validate:
        check_skew(M)
    if n % 2 != 0:
        raise NotSkewSymmetric("Pfaffian requires even order (border odd inputs)")
    if all(is_exact(v) for row in M for v in row):
        return _skew_ltlt([[Fraction(v) for v in row] for row in M], Fraction(1))
    return _skew_ltlt([[complex(v) for v in row] for row in M], 1 + 0j)


def _skew_ltlt(A, one):
    """Pfaffian of the skew matrix A (a list of rows), reduced in place.

    Step k swaps row and column k+1 with the p > k of the largest |A[k][p]|
    (a swap negates the Pfaffian), takes the factor A[k][k+1] and replaces
    the trailing block by its Schur complement, updating the upper
    triangle and mirroring it.  A zero pivot column means Pfaffian 0.
    """
    n = len(A)
    pf = one
    for k in range(0, n - 1, 2):
        row_k = A[k]
        p = max(range(k + 1, n), key=lambda i: abs(row_k[i]))
        if row_k[p] == 0:
            return 0 * one
        if p != k + 1:
            A[p], A[k + 1] = A[k + 1], A[p]
            for row in A[k:]:  # rows above k are never read again
                row[p], row[k + 1] = row[k + 1], row[p]
            pf = -pf
        pivot = row_k[k + 1]
        pf = pf * pivot
        inv = 1 / pivot
        tau = [v * inv for v in row_k[k + 2 :]]
        col = [row[k + 1] for row in A[k + 2 :]]
        for i, (t_i, c_i) in enumerate(zip(tau, col)):
            row_i = A[k + 2 + i]
            for j in range(i + 1, len(tau)):
                v = row_i[k + 2 + j] + (t_i * col[j] - c_i * tau[j])
                row_i[k + 2 + j] = v
                A[k + 2 + j][k + 2 + i] = -v
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
