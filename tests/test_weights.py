import random
from fractions import Fraction as F

import pytest

from halfspace6v.errors import DivisionByZero
from halfspace6v.scalars import COMPLEX, RATIONAL, rand_rational
from halfspace6v.weights import (
    DOTTED,
    LOCAL_RELATIONS,
    ROTATED,
    STOCHASTIC,
    ModelParams,
    boundary_weight,
    bulk_table,
    bulk_weight,
    h_func,
    params_from_json,
    random_relation_point,
    verify_local_relation,
)

P = ModelParams(q=F(1, 3), a=F(2), c=F(3), y=(F(1),))

ICE_TUPLES = [(i, j, k, l) for i in (0, 1) for j in (0, 1) for k in (0, 1) for l in (0, 1)]


def test_h_closed_values():
    assert h_func(F(0), P) == 1
    assert h_func(F(1), P) == 0
    assert h_func(F(-1), P) == 0
    # hand substitution: a=2, c=3, x=1/2 -> 6*(3/4)/((3/2)(5/2)) = 6/5
    assert h_func(F(1, 2), P) == F(6, 5)


def test_h_pole_raises():
    with pytest.raises(DivisionByZero):
        h_func(F(2), P)


def test_h_c_infinite():
    pci = ModelParams(q=F(1, 4), a=F(3), c_infinite=True)
    assert h_func(F(1, 2), pci) == F(3) * F(3, 4) / F(5, 2)


def test_bulk_examples():
    q, z = F(1, 3), F(2, 7)
    assert bulk_weight(0, 0, 0, 0, z, STOCHASTIC, q) == 1
    assert bulk_weight(1, 0, 1, 0, z, STOCHASTIC, q) == q * (1 - z) / (1 - q * z)
    # z = 1 factorization: delta_{i,l} delta_{j,k}
    for i, j, k, l in ICE_TUPLES:
        expect = 1 if (i == l and j == k) else 0
        assert bulk_weight(i, j, k, l, F(1), STOCHASTIC, q) == expect


def test_ice_rule_nullity():
    q, z = F(1, 3), F(2, 7)
    for variant in (STOCHASTIC, ROTATED):
        for i, j, k, l in ICE_TUPLES:
            if i + j != k + l:
                assert bulk_weight(i, j, k, l, z, variant, q) == 0


def test_sum_to_unity_exact():
    rng = random.Random(0)
    for _ in range(20):
        q = F(rng.randint(-20, 20), rng.randint(1, 20))
        z = F(rng.randint(-20, 20), rng.randint(1, 20))
        if 1 - q * z == 0:
            continue
        for i in (0, 1):
            for j in (0, 1):
                s = sum(
                    bulk_weight(i, j, k, l, z, STOCHASTIC, q)
                    for k in (0, 1)
                    for l in (0, 1)
                )
                assert s == 1


def test_boundary_rows_sum_to_unity():
    for x in (F(1, 2), F(-3, 7), F(5, 9)):
        for i in (0, 1):
            assert boundary_weight(i, 0, x, P) + boundary_weight(i, 1, x, P) == 1


def test_boundary_examples():
    # x = +-1 gives the identity matrix
    for x in (F(1), F(-1)):
        for i in (0, 1):
            for j in (0, 1):
                assert boundary_weight(i, j, x, P) == (1 if i == j else 0)
    assert boundary_weight(0, 1, F(1, 2), P) == F(6, 5)
    assert boundary_weight(1, 0, F(1, 2), P) == -F(1, 5)


def test_boundary_c_infinite_table():
    pci = ModelParams(q=F(1, 4), a=F(3), c_infinite=True)
    x = F(1, 2)
    assert boundary_weight(1, 0, x, pci) == 0
    assert boundary_weight(1, 1, x, pci) == 1
    assert boundary_weight(0, 0, x, pci) + boundary_weight(0, 1, x, pci) == 1


def test_dotted_ratio():
    q, z = F(1, 5), F(3, 11)
    ratio = (1 - q * z) / (1 - z)
    for key in ICE_TUPLES:
        s = bulk_weight(*key, z, STOCHASTIC, q)
        d = bulk_weight(*key, z, DOTTED, q)
        assert d == ratio * s


def _closed_form(i, j, k, l, z, variant, q):
    # the stochastic table written out; dotted = stochastic (1-qz)/(1-z);
    # rotated = stochastic at (j, i; l, k)
    if variant == ROTATED:
        i, j, k, l = j, i, l, k
    w = {
        (0, 0, 0, 0): 1,
        (1, 0, 1, 0): q * (1 - z) / (1 - q * z),
        (1, 0, 0, 1): (1 - q) / (1 - q * z),
        (1, 1, 1, 1): 1,
        (0, 1, 0, 1): (1 - z) / (1 - q * z),
        (0, 1, 1, 0): z * (1 - q) / (1 - q * z),
    }.get((i, j, k, l), 0)
    return w * (1 - q * z) / (1 - z) if variant == DOTTED else w


def test_bulk_weight_is_its_table_entry():
    rng = random.Random(18)
    for _ in range(40):
        q, z = rand_rational(rng), rand_rational(rng)
        if (1 - q * z) * (1 - z) == 0:
            continue
        for variant in (STOCHASTIC, DOTTED, ROTATED):
            table = bulk_table(z, variant, q)
            assert list(table) == [(0, 0), (0, 1), (1, 0), (1, 1)]
            for i, j, k, l in ICE_TUPLES:
                entry = [w for kk, ll, w in table[i, j] if (kk, ll) == (k, l)]
                assert len(entry) <= 1 and all(w != 0 for w in entry)
                w = bulk_weight(i, j, k, l, z, variant, q)
                assert w == (entry[0] if entry else 0)
                assert w == _closed_form(i, j, k, l, z, variant, q), (i, j, k, l, variant)


def test_bulk_weight_at_pole():
    # z = 1/q: only the stochastic (and rotated) empty and full vertices do
    # not divide by 1 - qz; z = 1 is a pole of every dotted input
    for q, z in ((F(1, 3), F(3)), (0.25, 4.0)):
        for variant in (STOCHASTIC, ROTATED):
            assert list(bulk_table(z, variant, q)) == [(0, 0), (1, 1)]
            assert bulk_weight(0, 0, 0, 0, z, variant, q) == 1
            assert bulk_weight(1, 1, 1, 1, z, variant, q) == 1
            for i, j, k, l in ICE_TUPLES:
                if i != j and i + j == k + l:
                    with pytest.raises(DivisionByZero):
                        bulk_weight(i, j, k, l, z, variant, q)
        assert bulk_table(1 + 0 * z, DOTTED, q) == {}
        for i, j, k, l in ICE_TUPLES:
            if i + j == k + l:
                with pytest.raises(DivisionByZero):
                    bulk_weight(i, j, k, l, 1 + 0 * z, DOTTED, q)
            else:
                assert bulk_weight(i, j, k, l, z, STOCHASTIC, q) == 0


def test_bulk_weights_reject_bad_input():
    with pytest.raises(ValueError):
        bulk_table(F(1, 2), "rotate", F(1, 3))
    # an edge state of 2 is not a pole of input (2, 0)
    for key in ((2, 0, 2, 0), (2, 0, 1, 1), (0, 0, 0, -1)):
        with pytest.raises(ValueError):
            bulk_weight(*key, F(1, 2), STOCHASTIC, F(1, 3))


def test_ybe_reference_point():
    ok, resid = verify_local_relation(
        "ybe", {"q": F(1, 3), "x": F(2), "y": F(5, 7), "z": F(3, 2)}
    )
    assert ok and resid == 0.0


def test_k_unitarity_reference_point():
    ok, resid = verify_local_relation(
        "k_unitarity", {"q": F(1, 2), "a": F(3), "c": F(-2), "x": F(4, 5)}
    )
    assert ok and resid == 0.0


def test_r_unitarity_trivial_at_equal_arguments():
    ok, resid = verify_local_relation("r_unitarity", {"q": F(1, 3), "x": F(2, 5), "y": F(2, 5)})
    assert ok and resid == 0.0


@pytest.mark.parametrize("relation", LOCAL_RELATIONS)
def test_relations_at_random_points(relation):
    rng = random.Random(99)
    for _ in range(20):
        pt = random_relation_point(relation, rng)
        ok, resid = verify_local_relation(relation, pt)
        assert ok and resid == 0.0, (relation, pt)


def test_params_json_roundtrip():
    obj = {"q": "1/3", "a": "2", "c": "5", "x": ["1/2"], "y": ["1"], "z": [], "c_infinite": False}
    p = params_from_json(obj)
    assert p.q == F(1, 3) and p.x == (F(1, 2),)
    assert p.y_at(1) == 1 and p.y_at(10) == 1  # constant tail


@pytest.mark.parametrize("backend", [RATIONAL, COMPLEX])
def test_params_json_null_c_with_c_infinite(backend):
    """A parameter file may spell the infinite boundary as "c": null."""
    obj = {"q": "1/4", "a": "3", "y": ["1"], "c_infinite": True}
    absent = params_from_json(obj, backend)
    null = params_from_json({**obj, "c": None}, backend)
    assert null == absent and null.c is None and null.c_infinite
    with pytest.raises(ValueError):
        params_from_json({**obj, "c": None, "c_infinite": False}, backend)


def test_relations_float_backend_tolerance():
    ok, resid = verify_local_relation("ybe", {"q": 0.3 + 0.1j, "x": 1.7, "y": 0.5 + 0.2j, "z": 2.3})
    assert ok and resid < 1e-10
    ok, resid = verify_local_relation(
        "reflection", {"q": 0.3, "x": 0.7, "y": 1.3, "a": 2.5, "c": -1.2}
    )
    assert ok and resid < 1e-10
