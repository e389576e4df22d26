"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with -s / -rA) carrying
the measured residuals, and asserts the criterion.
"""

import math
import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from halfspace6v.asep import (
    AsepParams,
    simulate_gillespie,
    transition_distribution_exact,
    transition_prob_exact,
    transition_prob_formula,
    vertex_limit_check,
)
from halfspace6v.pfaffian import det_exact, pfaffian, pfaffian_sum_check, stembridge_check
from halfspace6v.rowops import g_lattice, partition_G
from halfspace6v.symfun import cauchy_check, g_contour, g_subset, orthogonality_check
from halfspace6v.triangular import (
    TriangularSpec,
    verify_z_properties,
    z_altform,
    z_enumerate,
    z_kuperberg,
    z_pfaffian,
    z_shuffle,
    z_subset_kuperberg,
)
from halfspace6v.weights import (
    LOCAL_RELATIONS,
    ModelParams,
    h_func,
    random_relation_point,
    verify_local_relation,
)

P_RAT = ModelParams(q=F(1, 3), a=F(2), c=F(5), y=(F(1),))


def _report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def sample_alphabet(rng, m, params, check_h=True):
    xs = []
    while len(xs) < m:
        v = F(rng.randint(-40, 40), rng.randint(1, 30))
        if v == 0 or v in (1, -1) or v in xs or v in (params.a, params.c):
            continue
        if any(
            v * o == 1 or params.q * v * o == 1 or v == params.q * o or o == params.q * v
            for o in xs
        ):
            continue
        if any(params.q * v * y == 1 for y in set(params.y)):
            continue
        if check_h:
            try:
                if h_func(v, params) == 1:
                    continue
            except ZeroDivisionError:
                continue
        xs.append(v)
    return tuple(xs)


def test_criterion_01_local_relations():
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    for idx, relation in enumerate(LOCAL_RELATIONS):
        rng = random.Random(9001 + idx)
        for _ in range(20):
            pt = random_relation_point(relation, rng)
            good, resid = verify_local_relation(relation, pt)
            ok = ok and good and resid == 0.0
            worst = max(worst, resid)
    dt = time.monotonic() - t0
    _report(1, "local relations exact at 20 random points each", ok and dt < 5.0,
            f"max residual {worst}, {dt:.1f}s")


def test_criterion_02_five_way_z_agreement():
    t0 = time.monotonic()
    rng = random.Random(202)
    ok = True
    for m in range(1, 7):
        for _ in range(5):
            xs = sample_alphabet(rng, m, P_RAT)
            spec = TriangularSpec(xs, P_RAT)
            ref = z_enumerate(spec)
            ok = ok and ref == z_pfaffian(spec) == z_subset_kuperberg(spec)
            ok = ok and ref == z_shuffle(spec) == z_altform(spec)
            if not ok:
                break
    dt = time.monotonic() - t0
    _report(2, "five-way Z agreement m=1..6, 5 points each, exact", ok and dt < 120.0,
            f"{dt:.1f}s")


def test_criterion_03_kuperberg_specialization():
    pk = ModelParams(q=F(1, 4), a=F(1), c=F(-1))
    rng = random.Random(33)
    ok = True
    for m in (2, 3, 4, 5, 6):
        xs = sample_alphabet(rng, m, pk, check_h=False)
        zp = z_pfaffian(TriangularSpec(xs, pk))
        if m % 2 == 0:
            ok = ok and zp == z_kuperberg(xs, pk.q)
        else:
            ok = ok and zp == 0
    _report(3, "Kuperberg specialization a=1, c=-1 (even matches, odd vanishes)", ok)


def test_criterion_04_z_recursions_and_degree():
    rng = random.Random(44)
    ok = True
    details = []
    for m in range(1, 6):
        xs = sample_alphabet(rng, m, P_RAT)
        rep = verify_z_properties(TriangularSpec(xs, P_RAT), rng=rng)
        good = all(v[0] for v in rep.values())
        details.append(f"m={m}:{'ok' if good else 'FAIL'}")
        ok = ok and good
    _report(4, "Z recursions, recur3 freeze, degree bound exact for m <= 5", ok,
            " ".join(details))


def test_criterion_05_g_oracle_equivalence():
    rng = random.Random(55)
    params = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(4, 5), F(6, 5), F(1)))
    nus = [c for r in range(4) for c in (tuple(sorted(s, reverse=True)) for s in combinations(range(1, 7), r))]
    checked = 0
    ok = True
    for nu in nus:
        n = len(nu)
        for L in range(max(n, 1), 5):
            for _ in range(5):
                xs = sample_alphabet(rng, L, params)
                lhs = g_subset(nu, xs, params)
                rhs = partition_G(nu, (), xs, params)
                ok = ok and lhs == rhs
                checked += 1
            if not ok:
                break
    # Thm G = Z: empty nu reduces to the triangular function, y-independent
    y_alt = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(7, 9), F(9, 7)))
    for L in range(1, 6):
        xs = sample_alphabet(rng, L, params)
        z_ref = z_enumerate(TriangularSpec(xs, params))
        # z_enumerate sums the same triangle as g_lattice; z_pfaffian shares no code
        ok = ok and z_pfaffian(TriangularSpec(xs, params)) == z_ref
        ok = ok and g_lattice((), xs, params) == z_ref
        ok = ok and g_lattice((), xs, y_alt) == z_ref
    _report(5, "g_subset == partition_G exactly (|nu|<=3, nu1<=6, L<=4) and G=Z for L<=5",
            ok, f"{checked} pairs")


def test_criterion_06_contour_formula():
    p = ModelParams(q=F(1, 10), a=F(3), c=F(-2), y=(F(1),))
    cases = [
        ((1,), (F(1, 2),)),
        ((1,), (F(1, 2), F(2, 5))),
        ((2, 1), (F(4, 5), F(7, 10))),
    ]
    ok = True
    details = []
    for nu, xs in cases:
        ref = complex(g_subset(nu, xs, p))
        v512 = g_contour(nu, xs, p, nodes=512, check_convergence=False)
        v256 = g_contour(nu, xs, p, nodes=256, check_convergence=False)
        rel = abs(v512 - ref) / abs(ref)
        ok = ok and rel < 1e-6 and abs(v512 - ref) <= abs(v256 - ref) + 1e-15
        details.append(f"n={len(nu)},L={len(xs)}:{rel:.1e}")
    _report(6, "contour integral matches subset formula at 512 nodes, improving under doubling",
            ok, " ".join(details))


def test_criterion_07_skew_cauchy():
    p = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(1),))
    cases = [
        ((F(9, 10),), (F(1, 3),)),
        ((F(9, 10), F(19, 20)), (F(1, 3), F(1, 4))),
    ]
    ok = True
    details = []
    for xs, zs in cases:
        for nu in [(), (1,)]:
            rep = cauchy_check((), nu, xs, zs, p, cutoff=12)
            tail = [r for _, r in rep["residuals"][-6:]]
            geometric = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
            ok = ok and rep["final_residual"] < 1e-8 and geometric
            details.append(f"L={len(xs)},nu={list(nu)}:{rep['final_residual']:.1e}")
    _report(7, "skew Cauchy truncated at 12 within 1e-8 with geometric decay", ok,
            " ".join(details))


def test_criterion_08_orthogonality():
    params = ModelParams(
        q=0.25, a=3.0, c=None,
        y=tuple(1.0 / (1.5 + 0.1 * j) for j in range(1, 6)),
        c_infinite=True,
    )
    ok = True
    worst = 0.0
    def kappas_up_to(n, maxp):
        out = [()]
        for r in range(1, n + 1):
            out += [tuple(sorted(c, reverse=True)) for c in combinations(range(1, maxp + 1), r)]
        return out
    pairs = 0
    for nu in [(k,) for k in range(1, 5)]:
        for kappa in kappas_up_to(1, 4):
            v = orthogonality_check(kappa, nu, params, nodes=256)
            worst = max(worst, abs(v - (1.0 if kappa == nu else 0.0)))
            pairs += 1
    for nu in (tuple(sorted(c, reverse=True)) for c in combinations(range(1, 5), 2)):
        for kappa in kappas_up_to(2, 4):
            v = orthogonality_check(kappa, nu, params, nodes=160)
            worst = max(worst, abs(v - (1.0 if kappa == nu else 0.0)))
            pairs += 1
    ok = worst < 1e-6
    _report(8, "orthogonality delta reproduced for n <= 2, parts <= 4", ok,
            f"{pairs} pairs, worst {worst:.1e}")


def _bernoulli_kl(a: float, b: float) -> float:
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


def family_wise_rejects(counts, law, samples, level=0.0027):
    """States (mask, count, p) whose count rejects `law` at family-wise level
    `level` (0.27%, the two-sided 3-sigma level).

    Per state the two-sided Chernoff bound 2 exp(-n KL(p_hat || p)) dominates
    the binomial p-value; Bonferroni over all states of the law bounds the
    chance of any false rejection by `level`.
    """
    threshold = math.log(2 * len(law) / level)
    bad = []
    for mask, p in enumerate(law):
        c = counts.get(mask, 0)
        if samples * _bernoulli_kl(c / samples, min(max(float(p), 0.0), 1.0)) > threshold:
            bad.append((mask, c, float(p)))
    return bad


ASEP_09 = AsepParams(q=0.25, alpha=0.5, gamma=0.0, t=1.0, sites=8)


def _gillespie_counts(seed, samples=100000):
    emp = simulate_gillespie((), ASEP_09, samples=samples, seed=seed)
    return {
        sum(1 << (s - 1) for s in cfg): round(ph * samples) for cfg, (ph, _, _) in emp.items()
    }


def test_criterion_09_asep_triangle():
    ap = ASEP_09
    ok = True
    details = []
    for nu in [(), (1,), (2,), (3,), (2, 1), (3, 1), (3, 2)]:
        pf = transition_prob_formula(nu, ap, nodes=128)
        px, _ = transition_prob_exact((), nu, ap)
        ok = ok and abs(pf - px) < 1e-5
        details.append(f"{list(nu)}:{abs(pf - px):.1e}")
    p0, _ = transition_prob_exact((), (), ap)
    ok = ok and abs(p0 - math.exp(-0.5)) < 1e-12
    dist = transition_distribution_exact((), ap)
    rejected = family_wise_rejects(_gillespie_counts(42), dist, 100000)
    ok = ok and not rejected
    _report(9, "ASEP formula == exact (1e-5), MC family-wise 3 sigma at 1e5, survival exact",
            ok, " ".join(details) + f"; rejected={rejected}")


def test_criterion_09_monte_carlo_seeds():
    dist = transition_distribution_exact((), ASEP_09)
    for seed in range(40, 48):
        assert not family_wise_rejects(_gillespie_counts(seed), dist, 100000), seed


def test_criterion_09_rejects_shifted_samples():
    # negative control: 5% of the top state's samples moved to the next state
    dist = transition_distribution_exact((), ASEP_09)
    counts = _gillespie_counts(42)
    top, second = sorted(counts, key=counts.get, reverse=True)[:2]
    moved = round(0.05 * counts[top])
    counts[top] -= moved
    counts[second] += moved
    assert family_wise_rejects(counts, dist, 100000)


def test_criterion_10_vertex_asep_limit():
    t0 = time.monotonic()
    vp = ModelParams(q=0.25, a=3.0, c_infinite=True, y=(1.0,))
    ok = True
    details = []
    for nu in [(), (1,)]:
        rep = vertex_limit_check((), nu, vp, t=0.5, L_list=(32, 64, 128, 256), sites=8)
        errs = [row[3] for row in rep["rows"]]
        good = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        good = good and all(0.8 < o < 1.2 for o in rep["orders"])
        details.append(f"nu={list(nu)} orders=" + ",".join(f"{o:.2f}" for o in rep["orders"]))
        ok = ok and good
    dt = time.monotonic() - t0
    _report(10, "vertex-model limit converges to ASEP at order ~1 in 1/L", ok and dt < 60.0,
            "; ".join(details) + f"; {dt:.1f}s")


def test_criterion_11_pfaffian_kernel():
    rng = random.Random(111)
    ok = True
    for n in (2, 4, 6, 8, 10):
        M = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = F(rng.randint(-9, 9), rng.randint(1, 9))
                M[i][j], M[j][i] = v, -v
        ok = ok and pfaffian(M) ** 2 == det_exact(M)
    for n in (2, 4):
        A = [[F(0)] * n for _ in range(n)]
        B = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a, b = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9))
                A[i][j], A[j][i] = a, -a
                B[i][j], B[j][i] = b, -b
        ok = ok and pfaffian_sum_check(A, B)
    for m in (2, 4, 6):
        while True:
            xs = [F(rng.randint(1, 40), rng.randint(41, 90)) for _ in range(m)]
            if len(set(xs)) == m:
                break
        ok = ok and stembridge_check(xs)
    _report(11, "Pf^2 = det to order 10; Pfaffian sum and Stembridge factorisation exact", ok)
