"""The three workloads: fixed, ordered lists of calls into halfspace6v.

Each operation carries the call that a pass times, a check of its output,
the reference the check compares against (computed once per run, outside
set-up and outside the timed passes), and a deliberately wrong variant of
an output that the check must reject (see selftest.py).

The calls go through module attributes looked up at call time, so that the
traced run's wrappers (tracing.py) see them.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable

import numpy as np

import reference as ref
from inputs import alphabet, near, rng_for

asep = importlib.import_module("halfspace6v.asep")
pfaffian = importlib.import_module("halfspace6v.pfaffian")
rowops = importlib.import_module("halfspace6v.rowops")
symfun = importlib.import_module("halfspace6v.symfun")
triangular = importlib.import_module("halfspace6v.triangular")
weights = importlib.import_module("halfspace6v.weights")

WORKLOADS = ("exact", "quadrature", "markov")
GILLESPIE_SEED = 42
GILLESPIE_SAMPLES = 20000


def perturb_value(v):
    """A wrong version of an output: the first scalar leaf moved by 1e-3."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, tuple):
        return (perturb_value(v[0]),) + v[1:]
    if isinstance(v, (int, F)):
        return v * F(1001, 1000) + F(1, 1000)
    return v * (1 + 1e-3) + 1e-3


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any, Any], str | None]  # (output, reference) -> failure
    reference: Callable[[], Any] = lambda: None
    perturb: Callable[[Any], Any] = perturb_value


def build(workload: str, seed: int) -> list:
    return {"exact": exact_ops, "quadrature": quadrature_ops, "markov": markov_ops}[
        workload
    ](rng_for(workload, seed))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def all_equal(out, expected):
    """Every route's value is the same (and equals `expected` when given)."""
    if any(v != out[0] for v in out[1:]):
        return f"routes disagree: {out}"
    if expected is not None and out[0] != expected:
        return f"{out[0]} != reference {expected}"
    return None


def equals(expected):
    return lambda out, _ref: None if out == expected else f"{out} != {expected}"


def relative(tol):
    def check(out, expected):
        err = abs(out - expected) / max(abs(expected), 1e-300)
        return None if err <= tol else f"relative error {err:.2e} > {tol:.0e}"

    return check


def exact_relation(out, _ref):
    ok, resid = out
    return None if ok is True and resid == 0.0 else f"relation fails, residual {resid}"


def pf_squared_is_det(out, det):
    return None if out * out == det else "Pf^2 != det"


def cauchy_ok(rep, _ref):
    """Residual |lhs - rhs| below 1e-8, non-increasing over the last six cutoffs."""
    final = float(abs(rep["lhs"] - rep["rhs"]))
    tail = [r for _, r in rep["residuals"][-6:]]
    if final >= 1e-8:
        return f"Cauchy residual {final:.2e} >= 1e-8"
    if any(b > a for a, b in zip(tail, tail[1:])):
        return f"Cauchy residuals do not decay: {tail}"
    return None


def perturb_cauchy(rep):
    return dict(rep, lhs=perturb_value(rep["lhs"]))


def delta_within(expected, tol):
    return lambda out, _ref: (
        None if abs(out - expected) <= tol else f"|{out} - {expected}| > {tol:.0e}"
    )


def asep_value(tol_extra):
    """|value - reference| within the reference's truncation bound plus tol."""

    def check(out, expected):
        value, bound = expected
        err = abs(out - value)
        return None if err <= bound + tol_extra else f"error {err:.2e} > bound {bound:.2e}"

    return check


def law_matches(out, law):
    err = float(np.abs(out - law).max())
    return None if err <= 1e-10 else f"law differs from exp(tL) by {err:.2e}"


def gillespie_ok(out, law):
    counts = {}
    total = 0
    for cfg, (p_hat, _lo, _hi) in out.items():
        c = round(p_hat * GILLESPIE_SAMPLES)
        counts[ref.config_mask(cfg)] = c
        total += c
    if total != GILLESPIE_SAMPLES:
        return f"counts sum to {total}, not {GILLESPIE_SAMPLES}"
    bad = ref.family_wise_rejects(counts, law, GILLESPIE_SAMPLES)
    return None if not bad else f"{len(bad)} states reject the exact law, e.g. {bad[0]}"


def perturb_gillespie(out):
    """Move 5% of the samples from the most frequent state to the next."""
    order = sorted(out, key=lambda k: -out[k][0])
    top, second = order[0], order[1]
    moved = round(0.05 * out[top][0] * GILLESPIE_SAMPLES) / GILLESPIE_SAMPLES
    wrong = dict(out)
    wrong[top] = (out[top][0] - moved,) + out[top][1:]
    wrong[second] = (out[second][0] + moved,) + out[second][1:]
    return wrong


def vertex_limit_ok(rep, expected):
    rows = rep["rows"]
    if abs(rows[0][2] - expected) > 1e-10:
        return f"ASEP reference {rows[0][2]} != exp(tL) value {expected}"
    errs = [row[3] for row in rows]
    if any(b >= a for a, b in zip(errs, errs[1:])):
        return f"errors do not shrink with L: {errs}"
    if len(rep["orders"]) != len(rows) - 1 or not all(
        0.8 < o < 1.2 for o in rep["orders"]
    ):
        return f"orders {rep['orders']} outside (0.8, 1.2)"
    return None


def perturb_vertex_limit(rep):
    """Make the error at the largest L as large as at the one before."""
    rows = [list(r) for r in rep["rows"]]
    rows[-1][1] = rows[-1][2] + 2 * rows[-2][3]
    rows[-1][3] = 2 * rows[-2][3]
    return dict(rep, rows=[tuple(r) for r in rows])


# ---------------------------------------------------------------------------
# exact: rational identity checking
# ---------------------------------------------------------------------------


def _relation_point(rng):
    """Rational point for the local relations, off their denominators.

    With 0 < q < 0.3 and x, y, z in (1/2, 3/2) every 1 - q w stays positive;
    a > 5/2 and c < 0 keep a, c away from x, y, 1/x, 1/y.
    """
    while True:
        x, y, z = (F(rng.randint(19, 55), 37) for _ in range(3))
        if len({x, y, z}) == 3 and x * y != 1:
            break
    return {
        "q": F(rng.randint(1, 9), 31),
        "x": x,
        "y": y,
        "z": z,
        "a": F(rng.randint(73, 116), 29),
        "c": F(-rng.randint(24, 68), 23),
    }


def _skew(rng, n):
    M = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(-30, 30), 31)
            M[i][j], M[j][i] = v, -v
    return M


def exact_ops(rng) -> list:
    q, a, c = F(1, 4), F(3), F(-2)
    ops = []
    for relation in weights.LOCAL_RELATIONS:
        for _ in range(4):
            pt = _relation_point(rng)
            ops.append(
                Op(
                    f"local relation {relation}",
                    lambda r=relation, pt=pt: weights.verify_local_relation(r, pt),
                    exact_relation,
                )
            )

    P = weights.ModelParams(q=q, a=a, c=c, y=(F(1),))
    for m in range(1, 7):
        spec = triangular.TriangularSpec(alphabet(rng, m, 0, 1, 97, q, a, c, P.y), P)
        closed = {1: lambda s=spec: ref.z1(*s.x, q, a, c),
                  2: lambda s=spec: ref.z2(*s.x, q, a, c)}.get(m, lambda: None)
        ops.append(
            Op(
                f"Z_{m} by five routes",
                lambda s=spec: (
                    triangular.z_enumerate(s),
                    triangular.z_pfaffian(s),
                    triangular.z_subset_kuperberg(s),
                    triangular.z_shuffle(s),
                    triangular.z_altform(s),
                ),
                all_equal,
                closed,
            )
        )

    for n in (8, 10, 12, 14):
        M = _skew(rng, n)
        ops.append(
            Op(
                f"Pf^2 = det, order {n}",
                lambda M=M: pfaffian.pfaffian(M),
                pf_squared_is_det,
                lambda M=M: ref.det_bareiss(M),
            )
        )

    PY = weights.ModelParams(q=q, a=a, c=c, y=(F(4, 5), F(6, 5), F(1)))
    for nu in ((2, 1), (3, 1), (3, 2, 1)):
        xs = alphabet(rng, 3, 0, 1, 89, q, a, c, PY.y)
        ops.append(
            Op(
                f"G_{nu} by lattice, subset and stack",
                lambda nu=nu, xs=xs: (
                    rowops.partition_G(nu, (), xs, PY, method="lattice"),
                    symfun.g_subset(nu, xs, PY),
                    rowops.partition_G(nu, (), xs, PY, method="stack"),
                ),
                all_equal,
            )
        )
    xs = alphabet(rng, 3, 0, 1, 89, q, a, c, PY.y)
    ops.append(
        Op(
            "G_(3,2)/(1) symmetric in x",
            lambda xs=xs: (
                rowops.partition_G((3, 2), (1,), xs, PY, method="stack"),
                rowops.partition_G((3, 2), (1,), xs[::-1], PY, method="stack"),
            ),
            all_equal,
        )
    )
    for mu in ((1,), (2, 1)):
        xs = alphabet(rng, 2, 0, 1, 89, q, a, c, PY.y)
        ops.append(
            Op(
                f"stochastic row sum from {mu}",
                lambda mu=mu, xs=xs: rowops.stochastic_row_sum(mu, xs, PY),
                equals(1),
            )
        )
    zs = alphabet(rng, 2, 0, F(1, 2), 83, q, a, c, PY.y)
    ops.append(
        Op(
            "F_(2,1)/(1) symmetric in z",
            lambda zs=zs: (
                rowops.partition_F((2, 1), (1,), zs, PY),
                rowops.partition_F((2, 1), (1,), zs[::-1], PY),
            ),
            all_equal,
        )
    )

    # x close to 1 and z near 1/4 keep the Cauchy guard rho below ~0.2, so
    # the cutoff-12 residual sits far below 1e-8.
    Pc = weights.ModelParams(q=q, a=a, c=c, y=(F(1),))
    for mu, nu, L in (((), (), 2), ((), (1,), 2), ((1,), (), 1)):
        xs = alphabet(rng, L, F(9, 10), F(97, 100), 101, q, a, c, Pc.y)
        zs = alphabet(rng, L, F(1, 5), F(17, 50), 103, q, a, c, Pc.y, taken=xs)
        ops.append(
            Op(
                f"Cauchy mu={mu} nu={nu} L={L}",
                lambda mu=mu, nu=nu, xs=xs, zs=zs: symfun.cauchy_check(
                    mu, nu, xs, zs, Pc, cutoff=12
                ),
                cauchy_ok,
                perturb=perturb_cauchy,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# quadrature: complex and ndarray evaluation
# ---------------------------------------------------------------------------


def quadrature_ops(rng) -> list:
    ops = []
    q, a, c = F(1, 10), F(3), F(-2)
    Pq = weights.ModelParams(q=q, a=a, c=c, y=(F(1),))
    for nu, nodes in (((1,), 128), ((2,), 128), ((2, 1), 64)):
        xs = alphabet(rng, 2, F(6, 10), F(8, 10), 67, q, a, c, Pq.y)
        ops.append(
            Op(
                f"G_{nu} by contour, {nodes} nodes doubled",
                lambda nu=nu, xs=xs, N=nodes: symfun.g_contour(nu, xs, Pq, nodes=N),
                relative(1e-8),
                lambda nu=nu, xs=xs: complex(
                    rowops.partition_G(nu, (), xs, Pq, method="lattice")
                ),
            )
        )

    shift = near(rng, 0.0, 0.02)
    Po = weights.ModelParams(
        q=0.25,
        a=near(rng, 3.0, 0.2),
        c=None,
        y=tuple(1.0 / (1.5 + shift + 0.1 * j) for j in range(1, 6)),
        c_infinite=True,
    )
    for kappa, nu, nodes in (((1,), (1,), 256), ((), (3,), 256), ((2,), (3,), 256),
                             ((2, 1), (2, 1), 160), ((1,), (3, 1), 160),
                             ((3,), (4, 2), 160)):
        ops.append(
            Op(
                f"orthogonality F_{kappa} vs {nu}, {nodes} nodes",
                lambda k=kappa, nu=nu, N=nodes: symfun.orthogonality_check(k, nu, Po, nodes=N),
                delta_within(1.0 if kappa == nu else 0.0, 1e-6),
            )
        )

    ap = asep.AsepParams(q=near(rng, 0.25, 0.03), alpha=near(rng, 0.5, 0.05), t=1.0)
    law = functools.cache(lambda: ref.asep_law((), 10, ap.q, ap.alpha, 0.0, ap.t))
    bound = ref.front_leakage((), 10, ap.t)
    for nu in ((1,), (2, 1), (3, 2, 1)):
        ops.append(
            Op(
                f"ASEP formula P(empty -> {nu}), 64 nodes",
                lambda nu=nu: asep.transition_prob_formula(nu, ap, nodes=64),
                asep_value(1e-9),
                lambda nu=nu: (law()[ref.config_mask(nu)], bound),
            )
        )

    Pz = weights.ModelParams(q=complex(1 / 4), a=complex(3), c=complex(-2), y=(1.0,))
    Pexact = weights.ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(1),))
    for m in range(1, 7):
        # one point per slot of (0, 1): well separated points keep the float
        # Pfaffian's cancellation, and so its rounding error, small
        xs = sum((alphabet(rng, 1, F(i, m), F(i + 1, m), 97, F(1, 4), F(3), F(-2), (F(1),))
                  for i in range(m)), ())
        closed = {
            1: lambda xs=xs: complex(ref.z1(*xs, F(1, 4), F(3), F(-2))),
            2: lambda xs=xs: complex(ref.z2(*xs, F(1, 4), F(3), F(-2))),
        }.get(m, lambda xs=xs: complex(
            triangular.z_pfaffian(triangular.TriangularSpec(xs, Pexact))))
        spec = triangular.TriangularSpec(tuple(complex(x) for x in xs), Pz)
        ops.append(
            Op(
                f"complex Z_{m} by Pfaffian",
                lambda s=spec: triangular.z_pfaffian(s),
                relative(1e-9),
                closed,
            )
        )
    for n in (8, 12, 16):
        M = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                M[i, j] = complex(near(rng, 0, 1), near(rng, 0, 1))
                M[j, i] = -M[i, j]
        rows = M.tolist()
        ops.append(
            Op(
                f"complex Pf^2 = det, order {n}",
                lambda rows=rows: pfaffian.pfaffian(rows) ** 2,
                relative(1e-9),
                lambda M=M: complex(np.linalg.det(M)),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# markov: float ASEP
# ---------------------------------------------------------------------------


def markov_ops(rng) -> list:
    q, alpha, gamma = near(rng, 0.25, 0.02), near(rng, 0.5, 0.05), near(rng, 0.2, 0.05)
    sized = {S: asep.AsepParams(q=q, alpha=alpha, gamma=gamma, t=1.0, sites=S)
             for S in (8, 10, 12)}
    law10 = functools.cache(lambda: ref.asep_law((2, 1), 10, q, alpha, gamma, 1.0))
    law8 = functools.cache(lambda: ref.asep_law((), 8, q, alpha, gamma, 1.0))
    ops = [
        Op(
            "P(21 -> 31), 12 sites, against 10 sites",
            lambda: asep.transition_prob_exact((2, 1), (3, 1), sized[12])[0],
            asep_value(1e-10),
            lambda: (
                law10()[ref.config_mask((3, 1))],
                ref.front_leakage((2, 1), 10, 1.0) + ref.front_leakage((2, 1), 12, 1.0),
            ),
        ),
        Op(
            "law from (2,1), 10 sites",
            lambda: asep.transition_distribution_exact((2, 1), sized[10]),
            law_matches,
            law10,
        ),
        Op(
            "law from empty, 8 sites",
            lambda: asep.transition_distribution_exact((), sized[8]),
            law_matches,
            law8,
        ),
        Op(
            f"Gillespie, {GILLESPIE_SAMPLES} samples, 8 sites",
            lambda: asep.simulate_gillespie(
                (), sized[8], GILLESPIE_SAMPLES, seed=GILLESPIE_SEED
            ),
            gillespie_ok,
            law8,
            perturb_gillespie,
        ),
    ]

    qv, av = near(rng, 0.25, 0.02), near(rng, 3.0, 0.2)
    vp = weights.ModelParams(q=qv, a=av, c_infinite=True, y=(1.0,))
    alpha_v = av * (1 - qv) / (av - 1)
    ops.append(
        Op(
            "vertex-model limit to ASEP, L = 32, 64, 128, 7 sites",
            lambda: asep.vertex_limit_check(
                (), (1,), vp, t=0.5, L_list=(32, 64, 128), sites=7
            ),
            vertex_limit_ok,
            lambda: ref.asep_law((), 7, qv, alpha_v, 0.0, 0.5)[ref.config_mask((1,))],
            perturb_vertex_limit,
        )
    )
    return ops
