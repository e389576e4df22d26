"""Batch command-line front end.

Commands
  z               triangular partition function (method: enum|pfaffian|subset|shuffle|alt)
  g               G_nu (method: operators|subset|contour)
  f               F_{mu/nu}
  cauchy          truncated skew-Cauchy identity report
  orthogonality   orthogonality-conjecture quadrature
  verify SUITE    local-relations | operators | triangular | g-recursions | pfaffian
  asep MODE       prob | sim | limit

Scalars in parameter files are "p/q" strings (rational backend) or numbers
/ [re, im] pairs (complex backend).  Results are printed as JSON
({"num","den"} for exact rationals, {"re","im"} otherwise); sweep commands
emit plot-ready CSV.
Exit codes: 0 ok / all checks passed, 1 a verification failed, 2 bad
input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import asep as asep_mod
from . import rowops, symfun, triangular, weights
from .errors import HalfSpaceError
from .pfaffian import det_exact, pfaffian, pfaffian_sum_check, stembridge_check
from .scalars import COMPLEX, RATIONAL, format_scalar, parse_scalar

def _parse_config(text: str) -> tuple:
    if text.strip() == "-":
        return ()
    return rowops.as_config([int(p) for p in text.split(",") if p.strip()])


def _emit(payload: dict, args) -> None:
    _write(json.dumps(payload, sort_keys=True), args)


def _emit_csv(rows, header, args) -> None:
    _write("\n".join([",".join(header)] + [",".join(str(v) for v in row) for row in rows]), args)


def _write(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_z(args) -> int:
    params = weights.load_params(args.params, args.backend)
    if args.m < 0:
        raise ValueError(f"--m must be >= 0, got {args.m}")
    xs = params.x[: args.m] if args.m else params.x
    if args.m and len(xs) < args.m:
        raise ValueError(f"parameter file provides {len(params.x)} x values, need {args.m}")
    spec = triangular.TriangularSpec(xs, params, u=parse_scalar(args.u, args.backend))
    fn = {
        "enum": triangular.z_enumerate,
        "pfaffian": triangular.z_pfaffian,
        "subset": triangular.z_subset_kuperberg,
        "shuffle": triangular.z_shuffle,
        "alt": triangular.z_altform,
    }[args.method]
    _emit({"command": "z", "method": args.method, "m": len(xs), "value": format_scalar(fn(spec))}, args)
    return 0


def cmd_g(args) -> int:
    if args.method == "contour" and args.backend != COMPLEX:
        raise ValueError("contour method requires the complex backend")
    params = weights.load_params(args.params, args.backend)
    nu = _parse_config(args.nu)
    mu = _parse_config(args.mu)
    if args.method == "operators":
        val = rowops.partition_G(nu, mu, params.x, params)
    elif args.method == "subset":
        if mu != ():
            raise ValueError("subset formula requires empty mu")
        val = symfun.g_subset(nu, params.x, params)
    else:  # contour
        if mu != ():
            raise ValueError("contour formula requires empty mu")
        val = symfun.g_contour(nu, params.x, params, nodes=args.nodes)
    _emit({"command": "g", "method": args.method, "nu": list(nu), "mu": list(mu), "value": format_scalar(val)}, args)
    return 0


def cmd_f(args) -> int:
    params = weights.load_params(args.params, args.backend)
    mu = _parse_config(args.mu)
    nu = _parse_config(args.nu)
    val = rowops.partition_F(mu, nu, params.z, params)
    _emit({"command": "f", "mu": list(mu), "nu": list(nu), "value": format_scalar(val)}, args)
    return 0


def cmd_cauchy(args) -> int:
    params = weights.load_params(args.params, args.backend)
    report = symfun.cauchy_check(
        _parse_config(args.mu),
        _parse_config(args.nu),
        params.x,
        params.z,
        params,
        cutoff=args.cutoff,
    )
    ok = report["decay_ok"] and report["final_residual"] < args.tol
    _emit(
        {
            "command": "cauchy",
            "rho": report["rho"],
            "final_residual": report["final_residual"],
            "decay_ok": report["decay_ok"],
            "residuals": report["residuals"],
            "status": "pass" if ok else "fail",
        },
        args,
    )
    return 0 if ok else 1


def cmd_orthogonality(args) -> int:
    if args.backend != COMPLEX:
        raise ValueError("orthogonality requires the complex backend")
    params = weights.load_params(args.params, args.backend)
    kappa = _parse_config(args.kappa)
    nu = _parse_config(args.nu)
    val = symfun.orthogonality_check(kappa, nu, params, nodes=args.nodes)
    expect = 1.0 if kappa == nu else 0.0
    resid = abs(val - expect)
    _emit(
        {
            "command": "orthogonality",
            "kappa": list(kappa),
            "nu": list(nu),
            "value": {"re": val.real, "im": val.imag},
            "residual": resid,
            "status": "pass" if resid < args.tol else "fail",
        },
        args,
    )
    return 0 if resid < args.tol else 1


def _verify_local_relations(args) -> tuple[bool, dict]:
    report = weights.verify_all_local_relations(trials=args.trials, seed=args.seed)
    return all(ok for ok, _ in report.values()), {
        rel: {"ok": ok, "max_residual": res} for rel, (ok, res) in report.items()
    }


def _verify_operators(args) -> tuple[bool, dict]:
    out = {}
    all_ok = True
    p = weights.ModelParams(
        q=Fraction(1, 4), a=Fraction(3), c=Fraction(-2), y=(Fraction(1),)
    )
    checks = [
        ("a_at_zero", ()),
        ("a_at_one", ()),
        ("a_inverse_pair", (Fraction(9, 10),)),
        ("aa_commute", (Fraction(1, 2), Fraction(2, 5))),
        ("bb_commute", (Fraction(1, 3), Fraction(2, 7))),
        ("ab_exchange", (Fraction(1, 2), Fraction(1, 3))),
        ("stochastic_rows", (Fraction(1, 2),)),
        ("branching", (Fraction(1, 2), Fraction(2, 5))),
    ]
    for name, spectral in checks:
        ok, res = rowops.verify_operator_identity(name, p, spectral)
        out[name] = {"ok": ok, "residual": res}
        all_ok = all_ok and ok
    return all_ok, out


def _verify_triangular(args) -> tuple[bool, dict]:
    rng = random.Random(args.seed)
    p = weights.ModelParams(q=Fraction(1, 3), a=Fraction(2), c=Fraction(5))
    out = {}
    all_ok = True
    for m in range(2, 5):
        xs = triangular._generic_alphabet(rng, m, p, ())
        rep = triangular.verify_z_properties(triangular.TriangularSpec(xs, p), rng=rng)
        ok = all(v[0] for v in rep.values())
        out[f"m={m}"] = {k: v[0] for k, v in rep.items()}
        all_ok = all_ok and ok
    return all_ok, out


def _verify_g_recursions(args) -> tuple[bool, dict]:
    p = weights.ModelParams(q=0.25, a=3.0, c=-2.0, y=(1.0,))
    out = {}
    all_ok = True
    for nu, xs in [((1,), (0.5,)), ((2, 1), (0.5, 0.4)), ((), (0.5,))]:
        rep = symfun.verify_g_recursion_suite(nu, xs, p)
        ok = all(v[0] for v in rep.values())
        out[str(list(nu))] = {k: (v[0], v[1]) for k, v in rep.items()}
        all_ok = all_ok and ok
    return all_ok, out


def _verify_pfaffian(args) -> tuple[bool, dict]:
    rng = random.Random(args.seed)
    out = {}
    all_ok = True
    for n in (2, 4, 6, 8, 10):
        M = _random_skew(rng, n)
        ok = pfaffian(M) ** 2 == det_exact(M)
        out[f"pf2_det_n{n}"] = ok
        all_ok = all_ok and ok
    A, B = _random_skew(rng, 4), _random_skew(rng, 4)
    out["sum_identity"] = pfaffian_sum_check(A, B)
    xs = [Fraction(rng.randint(1, 30), rng.randint(31, 60)) for _ in range(4)]
    out["stembridge"] = stembridge_check(xs)
    all_ok = all_ok and out["sum_identity"] and out["stembridge"]
    return all_ok, out


def _random_skew(rng, n):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            M[i][j], M[j][i] = v, -v
    return M


def cmd_verify(args) -> int:
    if args.backend != RATIONAL and args.suite not in ("g-recursions",):
        raise ValueError("exact-identity suites require the rational backend")
    runner = {
        "local-relations": _verify_local_relations,
        "operators": _verify_operators,
        "triangular": _verify_triangular,
        "g-recursions": _verify_g_recursions,
        "pfaffian": _verify_pfaffian,
    }[args.suite]
    ok, report = runner(args)
    _emit({"command": "verify", "suite": args.suite, "ok": ok, "report": report}, args)
    return 0 if ok else 1


def cmd_asep(args) -> int:
    # asep computations are inherently numeric; the backend flag is ignored
    nu = _parse_config(args.nu)
    mu = _parse_config(args.mu)
    ap = asep_mod.AsepParams(
        q=args.q, alpha=args.alpha, gamma=args.gamma, t=args.t, sites=args.sites
    )
    if args.mode == "prob":
        if args.method == "exact":
            val, leak = asep_mod.transition_prob_exact(mu, nu, ap)
            payload = {"method": "exact", "value": val, "error_bound": leak}
        elif args.method == "formula":
            val = asep_mod.transition_prob_formula(nu, ap, nodes=args.nodes)
            ref = asep_mod.transition_prob_formula(nu, ap, nodes=2 * args.nodes)
            payload = {"method": "formula", "value": ref, "error_bound": abs(ref - val)}
        else:  # mc
            emp = asep_mod.simulate_gillespie(mu, ap, samples=args.samples, seed=args.seed)
            # a configuration no replica reached is bounded by the Wilson interval of 0
            ph, lo, hi = emp.get(nu) or (0.0, *asep_mod.wilson_interval(0, args.samples))
            payload = {"method": "mc", "value": ph, "error_bound": max(ph - lo, hi - ph)}
        payload.update({"command": "asep prob", "nu": list(nu)})
        _emit(payload, args)
        return 0
    if args.mode == "sim":
        emp = asep_mod.simulate_gillespie(mu, ap, samples=args.samples, seed=args.seed)
        payload = {
            "command": "asep sim",
            "samples": args.samples,
            "seed": args.seed,
            "distribution": {
                ",".join(map(str, cfg)): {"p": ph, "lo": lo, "hi": hi}
                for cfg, (ph, lo, hi) in sorted(emp.items())
            },
        }
        _emit(payload, args)
        return 0
    # limit
    if args.a is None:
        raise ValueError("asep limit needs the vertex boundary parameter --a")
    vparams = weights.ModelParams(
        q=args.q, a=args.a, c=args.c, y=(1.0,), c_infinite=args.c is None
    )
    L_list = [int(v) for v in args.L.split(",")]
    rep = asep_mod.vertex_limit_check(mu, nu, vparams, args.t, L_list, sites=args.sites)
    bound, leak = rep["asep_bound"], rep["window_leak"]
    _emit_csv(
        [
            (L, f"{v!r}", f"{r!r}", f"{e!r}", f"{bound!r}", f"{leak[L]!r}")
            for (L, v, r, e) in rep["rows"]
        ],
        ("L", "value", "reference", "abs_error", "asep_bound", "window_leak"),
        args,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hsv", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--backend", default=RATIONAL, choices=(RATIONAL, COMPLEX))
    ap.add_argument("--output", help="also write the result to this path")
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    z = sub.add_parser("z", help="triangular partition function")
    z.add_argument("--m", type=int, default=0, help="use the first m x-values")
    z.add_argument("--method", default="pfaffian", choices=("enum", "pfaffian", "subset", "shuffle", "alt"))
    z.add_argument("--params", required=True)
    z.add_argument("--u", default="1")
    z.set_defaults(fn=cmd_z)

    g = sub.add_parser("g", help="G_{nu/mu}")
    g.add_argument("--nu", default="")
    g.add_argument("--mu", default="")
    g.add_argument("--method", default="operators", choices=("operators", "subset", "contour"))
    g.add_argument("--params", required=True)
    g.add_argument("--nodes", type=int, default=256)
    g.set_defaults(fn=cmd_g)

    f = sub.add_parser("f", help="F_{mu/nu}")
    f.add_argument("--mu", default="")
    f.add_argument("--nu", default="")
    f.add_argument("--params", required=True)
    f.set_defaults(fn=cmd_f)

    ca = sub.add_parser("cauchy", help="skew Cauchy identity check")
    ca.add_argument("--mu", default="")
    ca.add_argument("--nu", default="")
    ca.add_argument("--cutoff", type=int, default=12)
    ca.add_argument("--tol", type=float, default=1e-8)
    ca.add_argument("--params", required=True)
    ca.set_defaults(fn=cmd_cauchy)

    orth = sub.add_parser("orthogonality", help="orthogonality conjecture quadrature")
    orth.add_argument("--kappa", default="")
    orth.add_argument("--nu", default="")
    orth.add_argument("--nodes", type=int, default=160)
    orth.add_argument("--tol", type=float, default=1e-6)
    orth.add_argument("--params", required=True)
    orth.set_defaults(fn=cmd_orthogonality)

    ver = sub.add_parser("verify", help="verification suites")
    ver.add_argument("suite", choices=("local-relations", "operators", "triangular", "g-recursions", "pfaffian"))
    ver.add_argument("--trials", type=int, default=20)
    ver.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    ver.set_defaults(fn=cmd_verify)

    asp = sub.add_parser("asep", help="half-line ASEP")
    asp.add_argument("mode", choices=("prob", "sim", "limit"))
    asp.add_argument("--nu", default="")
    asp.add_argument("--mu", default="")
    asp.add_argument("--method", default="exact", choices=("exact", "formula", "mc"))
    asp.add_argument("--q", type=float, default=0.0)
    asp.add_argument("--alpha", type=float, default=0.0)
    asp.add_argument("--gamma", type=float, default=0.0)
    asp.add_argument("--t", type=float, default=0.0)
    asp.add_argument("--sites", type=int, default=8)
    asp.add_argument("--samples", type=int, default=100000)
    asp.add_argument("--nodes", type=int, default=128)
    asp.add_argument("--a", type=float, default=None, help="vertex boundary parameter (asep limit)")
    asp.add_argument("--c", type=float, default=None)
    asp.add_argument("--L", default="32,64,128,256", help="row counts for asep limit")
    asp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    asp.set_defaults(fn=cmd_asep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (HalfSpaceError, ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
