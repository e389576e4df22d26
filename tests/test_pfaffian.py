import random
from fractions import Fraction as F

import numpy as np
import pytest

from halfspace6v.errors import NotSkewSymmetric
from halfspace6v.pfaffian import (
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
