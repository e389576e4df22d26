import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace6v.errors import NotSkewSymmetric
from halfspace6v.pfaffian import (
    check_skew,
    det_exact,
    pfaffian,
    pfaffian_sum,
    pfaffian_sum_check,
    stembridge_check,
)


def rand_skew(rng, n):
    M = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(-9, 9), rng.randint(1, 9))
            M[i][j], M[j][i] = v, -v
    return M


def test_two_by_two():
    a = F(5, 3)
    assert pfaffian([[F(0), a], [-a, F(0)]]) == a
    pf = pfaffian([[0, 2], [-2, 0]])
    assert pf == 2 and type(pf) is F


def test_four_by_four_expansion():
    M = rand_skew(random.Random(1), 4)
    assert pfaffian(M) == M[0][1] * M[2][3] - M[0][2] * M[1][3] + M[0][3] * M[1][2]


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_pf_squared_is_det(n):
    M = rand_skew(random.Random(n), n)
    pf = pfaffian(M)
    assert pf * pf == det_exact(M)


def test_float_backend_matches_exact():
    rng = random.Random(7)
    for n in (4, 6, 8):
        M = rand_skew(rng, n)
        pf_exact = pfaffian(M)
        pf_float = pfaffian([[complex(v) for v in row] for row in M])
        assert type(pf_exact) is F and type(pf_float) is complex
        assert abs(pf_float - complex(pf_exact)) <= 1e-9 * max(1.0, abs(complex(pf_exact)))


def test_ndarray_rows_match_nested_lists():
    A = np.array(rand_skew(random.Random(4), 6), dtype=complex)
    assert pfaffian(A) == pfaffian(A.tolist())


@pytest.mark.parametrize("zero", [0, 3])
def test_zero_pivot_column_gives_ring_zero(zero):
    # a zero row/column 0 stops the first step; a zero row/column 3 leaves
    # a zero trailing block, which stops the second
    M = rand_skew(random.Random(9), 4)
    for i in range(4):
        M[zero][i] = M[i][zero] = F(0)
    pf = pfaffian(M)
    assert pf == 0 and type(pf) is F
    pf = pfaffian([[complex(v) for v in row] for row in M])
    assert pf == 0 and type(pf) is complex


def test_swap_negates():
    M = rand_skew(random.Random(3), 6)
    P = [row[:] for row in M]
    i, j = 1, 4
    P[i], P[j] = P[j], P[i]
    for row in P:
        row[i], row[j] = row[j], row[i]
    assert pfaffian(P) == -pfaffian(M)


def test_not_skew_raises():
    with pytest.raises(NotSkewSymmetric):
        pfaffian([[F(0), F(1)], [F(1), F(0)]])
    with pytest.raises(NotSkewSymmetric):
        pfaffian([[F(1)]])
    # one matrix only: a stack of matrices is not a matrix
    for shape in ((3, 4, 4), (4, 4, 4)):
        with pytest.raises(NotSkewSymmetric):
            pfaffian(np.zeros(shape))


def test_exact_validation_messages():
    """An exact matrix is validated after its denominators are cleared; each
    defect raises the message check_skew gives on the Fractions themselves."""
    h = F(1, 2)
    cases = [
        ([[F(0), h], [-h]], "matrix is not square"),
        ([[F(0), h, 0], [-h, F(1, 3), 0], [0, 0, 0]], "nonzero diagonal entry"),
        ([[F(0), h], [h, F(0)]], "M[i][j] != -M[j][i]"),
        ([[0, F(1, 3), 0, 0], [F(-1, 3), 0, 0, 0], [0, 0, 0, h], [0, 0, h, 0]],
         "M[i][j] != -M[j][i]"),
    ]
    for M, msg in cases:
        with pytest.raises(NotSkewSymmetric, match=re.escape(msg)):
            check_skew(M)
        with pytest.raises(NotSkewSymmetric, match=re.escape(msg)):
            pfaffian(M)
    with pytest.raises(NotSkewSymmetric, match="even order"):
        pfaffian([[F(0), h, 0], [-h, 0, 0], [0, 0, 0]])


def test_sum_identity_trivial_sides():
    rng = random.Random(11)
    A = rand_skew(rng, 4)
    Z = [[F(0)] * 4 for _ in range(4)]
    assert pfaffian_sum(A, Z) == pfaffian(A)
    assert pfaffian_sum(Z, A) == pfaffian(A)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sum_identity_random(n):
    rng = random.Random(n + 20)
    assert pfaffian_sum_check(rand_skew(rng, n), rand_skew(rng, n))


def test_stembridge_m2_is_single_entry():
    xs = [F(1, 2), F(1, 3)]
    assert stembridge_check(xs)


def test_stembridge_m4_random():
    rng = random.Random(5)
    while True:
        xs = [F(rng.randint(1, 40), rng.randint(41, 80)) for _ in range(4)]
        if len(set(xs)) == 4:
            break
    assert stembridge_check(xs)


def test_stembridge_coinciding_arguments_vanish():
    xs = [F(1, 2), F(1, 2), F(1, 3), F(1, 5)]
    # both sides are 0 by antisymmetry
    assert stembridge_check(xs)


def pf_first_row(M):
    """Pf by expansion along the first row: sum_j (-1)^(j+1) M[0][j]
    Pf(M without rows and columns 0 and j), independent of any elimination."""
    n = len(M)
    if n == 0:
        return 1
    total = 0
    for j in range(1, n):
        if M[0][j] != 0:
            rest = [i for i in range(1, n) if i != j]
            total += (-1) ** (j + 1) * M[0][j] * pf_first_row([[M[a][b] for b in rest] for a in rest])
    return total


@st.composite
def skew_matrices(draw, entries):
    n = 2 * draw(st.integers(1, 4))
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(entries)
            M[i][j], M[j][i] = v, -v
    return M


PF_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)
# exact zeros make some pivot columns, or whole rows, vanish
fractions = st.one_of(st.just(F(0)), st.builds(F, st.integers(-40, 40), st.integers(1, 40)))


@PF_SETTINGS
@given(skew_matrices(fractions))
def test_exact_pfaffian_matches_first_row_expansion(M):
    pf = pfaffian(M)
    assert type(pf) is F and pf == pf_first_row(M)


@PF_SETTINGS
@given(skew_matrices(st.one_of(st.just(0), st.integers(-30, 30))))
def test_int_rows_give_the_fraction_rows_value(M):
    pf = pfaffian(M)
    assert type(pf) is F
    assert pf == pfaffian([[F(v) for v in row] for row in M]) == pf_first_row(M)
