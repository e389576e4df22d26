"""Double-row operators A(x) and Bdot(z) on finite particle configurations.

A configuration is a strictly decreasing tuple of occupied positions.  One
double-row operator sweeps the half-infinite lattice once: the lower row
moves left toward the boundary vertex (rotated weights, z = x/y_j), the
upper row moves right away from it (z = x*y_j; dotted weights for Bdot).
At the far right the channel pair (lower, upper) is pinned to (0, 0) for
A and (0, 1) for Bdot.

Matrix elements of operator products are evaluated two ways:

* a column-by-column contraction of the whole stack of double rows whose
  homogeneous far-right tail is summed in closed form by solving a small
  linear system (exact in the rational backend) -- this realises the
  infinite-column limit that products of truncated kernels cannot reach;
* for an empty initial configuration, the equivalent finite lattice with
  boundary vertices on a staircase, which is cheap for long alphabets.

apply_double_row is the plain one-sweep Markov kernel on a truncated site
window; its coefficients are exact for every output supported inside the
window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityError, DegeneratePoint, GuardViolated, TruncationTooSmall
from .weights import (
    DOTTED,
    ROTATED,
    STOCHASTIC,
    ModelParams,
    boundary_weight,
    bulk_entries,
    h_func,
)

try:  # numpy only needed for the vectorised complex path
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

KIND_A = "A"
KIND_B = "Bdot"

# far-right channel (lower, upper) pinned by the operator's boundary data
_TARGET = {KIND_A: (0, 0), KIND_B: (0, 1)}
_TOP_VARIANT = {KIND_A: STOCHASTIC, KIND_B: DOTTED}


# ---------------------------------------------------------------------------
# Configurations and sparse states
# ---------------------------------------------------------------------------


def as_config(positions) -> tuple:
    """Normalise to a strictly decreasing tuple of positive ints."""
    pos = tuple(sorted({int(p) for p in positions}, reverse=True))
    if len(pos) != len(tuple(positions)):
        raise ValueError(f"repeated positions in {positions!r}")
    if pos and pos[-1] < 1:
        raise ValueError("positions must be >= 1")
    return pos


def config_max(cfg) -> int:
    return cfg[0] if cfg else 0


class SparseState(dict):
    """Finitely supported map Config -> scalar (zero coefficients dropped)."""

    def add(self, cfg, value):
        cur = self.get(cfg)
        new = value if cur is None else cur + value
        if _is_zero(new):
            self.pop(cfg, None)
        else:
            self[cfg] = new

    @classmethod
    def unit(cls, cfg):
        return cls({as_config(cfg): 1})


def _is_zero(v) -> bool:
    if np is not None and isinstance(v, np.ndarray):
        return bool(np.all(v == 0))
    return v == 0


# ---------------------------------------------------------------------------
# One double row: local column moves
# ---------------------------------------------------------------------------


def _row_moves(kind, x, yj, q, b, t, eta_in, eta_out_fixed=None):
    """All moves of one double row at one column.

    Left channel (b, t) and incoming vertical edge eta_in are fixed; yields
    tuples (eta_out, b_right, t_right, weight).  eta_out_fixed restricts the
    outgoing vertical edge (None = free).  A weight pole (e.g. x = y_j/q)
    raises DegeneratePoint.
    """
    z_bot = x / yj
    z_top = x * yj
    top_variant = _TOP_VARIANT[kind]
    out = []
    try:
        # rotated entries are keyed by (vert_in, right_in); iterate right_in
        for b_right in (0, 1):
            for (m, b_left), fn_bot in bulk_entries(eta_in, b_right, ROTATED):
                if b_left != b:
                    continue
                w_bot = fn_bot(z_bot, q)
                if _is_zero(w_bot):
                    continue
                for (eta_out, t_right), fn_top in bulk_entries(m, t, top_variant):
                    if eta_out_fixed is not None and eta_out != eta_out_fixed:
                        continue
                    w = w_bot * fn_top(z_top, q)
                    if not _is_zero(w):
                        out.append((eta_out, b_right, t_right, w))
    except ZeroDivisionError as exc:
        raise DegeneratePoint(f"row weight pole at x={x}, y_j={yj}: {exc}") from exc
    return out


def apply_double_row(bra, kind, spectral, n_columns, params: ModelParams):
    """One sweep of A(x) or Bdot(z) applied to a bra, truncated to n_columns.

    Every output coefficient with support inside [1, n_columns] is the exact
    infinite-lattice kernel weight(mu -> nu); outputs escaping the window are
    dropped.
    """
    if isinstance(bra, dict):
        items = bra.items()
    else:
        raise TypeError("bra must be a SparseState / dict")
    out = SparseState()
    target = _TARGET[kind]
    q = params.q
    for mu, coeff in items:
        if config_max(mu) > n_columns:
            raise TruncationTooSmall(
                f"bra support {config_max(mu)} exceeds n_columns={n_columns}"
            )
        occupied = set(mu)
        # frontier: (channel, grown nu prefix) -> weight
        frontier = {}
        for b in (0, 1):
            for t in (0, 1):
                w = boundary_weight(b, t, spectral, params)
                if not _is_zero(w):
                    frontier[(b, t), ()] = w
        for j in range(1, n_columns + 1):
            eta_in = 1 if j in occupied else 0
            yj = params.y_at(j)
            new = {}
            for ((b, t), prefix), w in frontier.items():
                for eta_out, b2, t2, wm in _row_moves(kind, spectral, yj, q, b, t, eta_in):
                    key = ((b2, t2), prefix + (j,) if eta_out else prefix)
                    val = w * wm
                    if key in new:
                        new[key] = new[key] + val
                    else:
                        new[key] = val
            frontier = {k: v for k, v in new.items() if not _is_zero(v)}
        for ((b, t), prefix), w in frontier.items():
            if (b, t) == target:
                out.add(tuple(reversed(prefix)), coeff * w)
    return out


# ---------------------------------------------------------------------------
# Stacks of double rows with an exact homogeneous tail
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowSpec:
    kind: str
    spectral: object


class OperatorStack:
    """Column contraction of rows[0] (bottom) ... rows[-1] (top).

    <mu| rows[0] rows[1] ... |nu> is contracted left to right over columns;
    beyond the supports and the inhomogeneous y-prefix every column carries
    the same transfer matrix T on channel tuples, and the remaining factor
    lim_M T^M e_target is obtained exactly by solving (I - T) on the
    non-target states.  Spectral parameters may be numpy arrays, in which
    case everything broadcasts and the tail solve is batched.
    """

    def __init__(self, rows, params: ModelParams):
        self.rows = [RowSpec(*r) if not isinstance(r, RowSpec) else r for r in rows]
        self.params = params
        self.q = params.q
        self._tail = None
        self._column_cache = {}

    @property
    def n_rows(self):
        return len(self.rows)

    def _initial_frontier(self):
        frontier = {}
        for gamma in itertools.product(
            itertools.product((0, 1), (0, 1)), repeat=self.n_rows
        ):
            w = 1
            for r, row in enumerate(self.rows):
                b, t = gamma[r]
                w = w * boundary_weight(b, t, row.spectral, self.params)
                if _is_zero(w):
                    break
            else:
                frontier[gamma] = w
        return frontier

    def _column_transfer(self, gamma, eta_b, eta_t, yj):
        """dict gamma' -> weight for one column with fixed external edges.

        eta_t None means the top edge is summed over (free top).
        """
        frontier = {(eta_b, ()): 1}
        for r, row in enumerate(self.rows):
            b, t = gamma[r]
            new = {}
            for (v, acc), w in frontier.items():
                for v_out, b2, t2, wm in _row_moves(
                    row.kind, row.spectral, yj, self.q, b, t, v
                ):
                    key = (v_out, acc + ((b2, t2),))
                    val = w * wm
                    if key in new:
                        new[key] = new[key] + val
                    else:
                        new[key] = val
            frontier = {k: v for k, v in new.items() if not _is_zero(v)}
        out = {}
        for (v, acc), w in frontier.items():
            if eta_t is not None and v != eta_t:
                continue
            if acc in out:
                out[acc] = out[acc] + w
            else:
                out[acc] = w
        return out

    def _column_transfer_cached(self, gamma, eta_b, eta_t, yj):
        key = (gamma, eta_b, eta_t, yj if not _is_array(yj) else id(yj))
        got = self._column_cache.get(key)
        if got is None:
            got = self._column_transfer(gamma, eta_b, eta_t, yj)
            self._column_cache[key] = got
        return got

    def target(self):
        return tuple(_TARGET[row.kind] for row in self.rows)

    def _tail_values(self, support, free_top: bool):
        """S[gamma] = lim_M (T^M)[gamma -> target] on the far-right tail."""
        y = self.params.y_tail
        eta_t = None if free_top else 0
        tgt = self.target()
        # forward closure of the frontier support (plus target)
        trans = {}
        todo = list(support) + [tgt]
        seen = set()
        while todo:
            g = todo.pop()
            if g in seen:
                continue
            seen.add(g)
            row = self._column_transfer_cached(g, 0, eta_t, y)
            trans[g] = row
            todo.extend(row.keys())
        if tgt not in trans:
            trans[tgt] = {}
        # states that cannot reach the target contribute 0 in the limit
        # (e.g. a right-mover passing at weight exactly 1 would otherwise
        # make I - T singular)
        rev = {}
        for g, row in trans.items():
            for g2 in row:
                rev.setdefault(g2, []).append(g)
        live = {tgt}
        todo = [tgt]
        while todo:
            g = todo.pop()
            for g0 in rev.get(g, ()):
                if g0 not in live:
                    live.add(g0)
                    todo.append(g0)
        others = sorted(g for g in live if g != tgt)
        if not others:
            return {g: (1 if g == tgt else 0) for g in seen}
        oidx = {g: i for i, g in enumerate(others)}
        n = len(others)
        zero = self._zero_like()
        A = [[None] * n for _ in range(n)]
        b = [zero] * n
        for g in others:
            i = oidx[g]
            for g2, w in trans[g].items():
                if g2 == tgt:
                    b[i] = b[i] + w
                elif g2 in oidx:
                    j = oidx[g2]
                    A[i][j] = w if A[i][j] is None else A[i][j] + w
        # (I - A) S = b
        M = [
            [
                (1 if i == j else 0) - (A[i][j] if A[i][j] is not None else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        sol = _solve_dense(M, b)
        S = {g: 0 for g in seen}
        S[tgt] = 1
        for g in others:
            S[g] = sol[oidx[g]]
        return S

    def _zero_like(self):
        for row in self.rows:
            if _is_array(row.spectral):
                return np.zeros_like(row.spectral)
        return 0

    def element(self, mu, nu):
        """<mu| stack |nu> on the semi-infinite lattice (tail exact)."""
        return self._contract(mu, nu, free_top=False)

    def row_sum(self, mu):
        """sum_nu <mu| stack |nu> over all finite nu (tail exact)."""
        return self._contract(mu, (), free_top=True)

    def _contract(self, mu, nu, free_top: bool):
        mu = as_config(mu)
        nu = as_config(nu)
        n_cols = max(config_max(mu), config_max(nu), len(self.params.y))
        frontier = self._initial_frontier()
        occ_mu, occ_nu = set(mu), set(nu)
        for j in range(1, n_cols + 1):
            eta_b = 1 if j in occ_mu else 0
            eta_t = None if free_top else (1 if j in occ_nu else 0)
            yj = self.params.y_at(j)
            new = {}
            for gamma, w in frontier.items():
                for gamma2, wt in self._column_transfer_cached(
                    gamma, eta_b, eta_t, yj
                ).items():
                    val = w * wt
                    if gamma2 in new:
                        new[gamma2] = new[gamma2] + val
                    else:
                        new[gamma2] = val
            frontier = {k: v for k, v in new.items() if not _is_zero(v)}
        if self._tail is None or self._tail[0] != free_top:
            self._tail = (free_top, self._tail_values(frontier.keys(), free_top))
        else:
            missing = [g for g in frontier if g not in self._tail[1]]
            if missing:
                self._tail = (
                    free_top,
                    self._tail_values(set(self._tail[1]) | set(frontier), free_top),
                )
        S = self._tail[1]
        total = self._zero_like()
        for gamma, w in frontier.items():
            s = S.get(gamma)
            if s is None or _is_zero(s):
                continue
            total = total + w * s
        return total


def _is_array(v) -> bool:
    return np is not None and isinstance(v, np.ndarray)


def _solve_dense(M, b):
    """Solve M s = b over the active scalar ring.

    Fractions use exact Gaussian elimination with abs-max pivoting; numpy
    array entries are batched through numpy.linalg.solve.
    """
    n = len(M)
    if any(_is_array(v) for row in M for v in row) or any(_is_array(v) for v in b):
        batch = None
        for row in M:
            for v in row:
                if _is_array(v):
                    batch = v.shape
                    break
            if batch:
                break
        Mb = np.empty(batch + (n, n), dtype=complex)
        bb = np.empty(batch + (n,), dtype=complex)
        for i in range(n):
            bb[..., i] = b[i]
            for j in range(n):
                Mb[..., i, j] = M[i][j]
        sol = np.linalg.solve(Mb, bb)
        return [sol[..., i] for i in range(n)]
    A = [row[:] + [b[i]] for i, row in enumerate(M)]
    exact = all(isinstance(v, (Fraction, int)) for row in A for v in row)
    if exact:
        A = [[Fraction(v) for v in row] for row in A]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if A[piv][col] == 0:
            raise DegeneratePoint("tail system singular at this parameter point")
        if piv != col:
            A[piv], A[col] = A[col], A[piv]
        inv_p = A[col][col]
        for r in range(col + 1, n):
            if A[r][col] == 0:
                continue
            f = A[r][col] / inv_p
            for c in range(col, n + 1):
                A[r][c] -= f * A[col][c]
    sol = [0] * n
    for r in range(n - 1, -1, -1):
        acc = A[r][n]
        for c in range(r + 1, n):
            acc -= A[r][c] * sol[c]
        sol[r] = acc / A[r][r]
    return sol


# ---------------------------------------------------------------------------
# The finite lattice for G_nu with empty initial configuration
# ---------------------------------------------------------------------------


def g_lattice(nu, x_alphabet, params: ModelParams):
    """G_nu(x_1..x_L) for mu = empty, as a finite staircase partition function.

    L lines enter from below, cross each other (argument x_i x_j), reflect
    off their boundary vertices, and run right through the vertical lines
    y_1..y_{nu_1} (argument x_i y_j) where paths may exit into nu.  All
    remaining horizontal edges must be empty, which truncates exactly.
    A weight pole (e.g. x y_j q = 1) raises DegeneratePoint.
    """
    nu = as_config(nu)
    xs = tuple(x_alphabet)
    if not xs:
        return 1 if nu == () else 0
    try:
        return _staircase(nu, xs, params)
    except ZeroDivisionError as exc:
        raise DegeneratePoint(f"weight pole in the lattice route: {exc}") from exc


def _staircase(nu, xs, params: ModelParams):
    L = len(xs)
    q = params.q
    occupied = set(nu)

    states = {(): 1}
    for i in range(1, L + 1):
        xi = xs[i - 1]
        new = {}
        for hs, w in states.items():
            frontier = [(0, hs, w)]
            for j in range(1, i):
                z = xi * xs[j - 1]
                nf = []
                for v, cur, wv in frontier:
                    hj = cur[j - 1]
                    for (v2, h2), fn in bulk_entries(v, hj, STOCHASTIC):
                        wt = fn(z, q)
                        if _is_zero(wt):
                            continue
                        nf.append((v2, cur[: j - 1] + (h2,) + cur[j:], wv * wt))
                frontier = nf
            for v, cur, wv in frontier:
                for h_new in (0, 1):
                    kw = boundary_weight(v, h_new, xi, params)
                    if _is_zero(kw):
                        continue
                    key = cur + (h_new,)
                    val = wv * kw
                    if key in new:
                        new[key] = new[key] + val
                    else:
                        new[key] = val
        states = {k: v for k, v in new.items() if not _is_zero(v)}

    for jcol in range(1, config_max(nu) + 1):
        yj = params.y_at(jcol)
        eta = 1 if jcol in occupied else 0
        new = {}
        for hs, w in states.items():
            frontier = [(0, hs, w)]
            for i in range(1, L + 1):
                z = xs[i - 1] * yj
                nf = []
                for v, cur, wv in frontier:
                    for (v2, h2), fn in bulk_entries(v, cur[i - 1], STOCHASTIC):
                        wt = fn(z, q)
                        if _is_zero(wt):
                            continue
                        nf.append((v2, cur[: i - 1] + (h2,) + cur[i:], wv * wt))
                frontier = nf
            for v, cur, wv in frontier:
                if v != eta:
                    continue
                if cur in new:
                    new[cur] = new[cur] + wv
                else:
                    new[cur] = wv
        states = {k: v for k, v in new.items() if not _is_zero(v)}

    return states.get((0,) * L, 0)


# ---------------------------------------------------------------------------
# Public partition functions and identity checks
# ---------------------------------------------------------------------------


def partition_G(nu, mu, x_alphabet, params: ModelParams, method: str = "auto"):
    """G_{nu/mu}(x_1..x_L) = <mu| A(x_1) ... A(x_L) |nu>.

    Exact on the semi-infinite lattice: the value is independent of where
    the homogeneous tail is cut.  method 'lattice' (mu must be empty) uses
    the staircase reduction; 'stack' contracts the operator product
    directly; 'auto' picks the lattice whenever mu is empty.
    """
    mu, nu = as_config(mu), as_config(nu)
    xs = tuple(x_alphabet)
    if not xs:
        return 1 if mu == nu else 0
    if method == "lattice" or (method == "auto" and mu == ()):
        if mu != ():
            raise ArityError("lattice route requires empty mu")
        return g_lattice(nu, xs, params)
    return OperatorStack([(KIND_A, x) for x in xs], params).element(mu, nu)


def partition_F(mu, nu, z_alphabet, params: ModelParams):
    """F_{mu/nu}(z_1..z_M) = <mu| Bdot(z_1) ... Bdot(z_M) |nu>."""
    mu, nu = as_config(mu), as_config(nu)
    zs = tuple(z_alphabet)
    if not zs:
        return 1 if mu == nu else 0
    return OperatorStack([(KIND_B, z) for z in zs], params).element(mu, nu)


def stochastic_row_sum(mu, x_alphabet, params: ModelParams):
    """sum_nu G_{nu/mu} over all finite nu; equals 1 exactly."""
    return OperatorStack([(KIND_A, x) for x in x_alphabet], params).row_sum(mu)


def in_probability_regime(x, params: ModelParams) -> bool:
    """Pointwise check that one sweep at spectral x is a genuine Markov
    kernel: every bulk weight (both row orientations) and boundary weight
    is real and in [0, 1].

    No attempt is made to characterise the admissible region; callers test
    candidate points one by one.
    """

    def ok(v):
        c = complex(v)
        return abs(c.imag) == 0 and 0 <= c.real <= 1

    try:
        for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            if not ok(boundary_weight(i, j, x, params)):
                return False
        for y in set(params.y):
            for z in (x * y, x / y):
                for inp in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    for (_out, fn) in bulk_entries(*inp, STOCHASTIC):
                        if not ok(fn(z, params.q)):
                            return False
    except (ZeroDivisionError, ArithmeticError):
        return False
    return True


# ---------------------------------------------------------------------------
# Convergence guards
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceGuard:
    """Per-column ratio magnitudes for one convergence condition."""

    ratios: list
    label: str = ""

    @property
    def rho(self) -> float:
        return max((float(abs(r)) for r in self.ratios), default=0.0)

    @property
    def passes(self) -> bool:
        return self.rho < 1.0

    def require(self):
        if not self.passes:
            raise GuardViolated(f"{self.label}: rho = {self.rho} >= 1")
        return self


def _y_values(params: ModelParams):
    vals = list(dict.fromkeys(params.y))
    if params.y_tail not in vals:
        vals.append(params.y_tail)
    return vals


def _ratio_a(x, y, q):
    return (1 - x * y) / (1 - q * x * y)


def guard_aa(x1, x2, params: ModelParams) -> ConvergenceGuard:
    """Commutation condition for A(x1) A(x2) (both orderings)."""
    q = params.q
    ratios = []
    for xi, xj in ((x1, x2), (x2, x1)):
        for y in _y_values(params):
            ratios.append(_ratio_a(xi, y, q) * q * (1 - xj / y) / (1 - q * xj / y))
    return ConvergenceGuard(ratios, "A-A commutation")


def guard_ab(x, z, params: ModelParams) -> ConvergenceGuard:
    """Exchange condition for A(x) Bdot(z)."""
    q = params.q
    ratios = []
    for y in _y_values(params):
        r = _ratio_a(x, y, q)
        ratios.append(r * q * (1 - z / y) / (1 - q * z / y))
        ratios.append(r * (1 - q * z * y) / (1 - z * y))
    return ConvergenceGuard(ratios, "A-B exchange")


def guard_cauchy(xs, zs, params: ModelParams) -> ConvergenceGuard:
    q = params.q
    ratios = []
    for x in xs:
        for z in zs:
            for y in _y_values(params):
                r = _ratio_a(x, y, q)
                ratios.append(r * q * (1 - z / y) / (1 - q * z / y))
                ratios.append(r * (1 - q * z * y) / (1 - z * y))
    return ConvergenceGuard(ratios, "Cauchy identity")


def guard_a_inverse(x, params: ModelParams) -> ConvergenceGuard:
    q = params.q
    ratios = [
        _ratio_a(x, y, q) * q * (x * y - 1) / (x * y - q) for y in _y_values(params)
    ]
    return ConvergenceGuard(ratios, "A(x) A(1/x) inversion")


# ---------------------------------------------------------------------------
# Operator identity suite
# ---------------------------------------------------------------------------


def _all_configs(max_site: int):
    sites = range(1, max_site + 1)
    for r in range(max_site + 1):
        for comb in itertools.combinations(sites, r):
            yield tuple(sorted(comb, reverse=True))


OPERATOR_IDENTITIES = (
    "aa_commute",
    "bb_commute",
    "ab_exchange",
    "a_at_zero",
    "a_at_one",
    "a_inverse_pair",
    "stochastic_rows",
    "branching",
)


def verify_operator_identity(
    identity: str,
    params: ModelParams,
    x=None,
    z=None,
    support: int = 3,
    enforce_guard: bool = True,
    tol: float = 1e-9,
):
    """Check one operator identity on all configurations in [1, support].

    Returns (ok, max_residual).  Equality is exact (residual 0) in the
    rational backend for everything except 'branching', whose infinite
    intermediate sum is only checked to stabilise geometrically.
    """
    configs = list(_all_configs(support))

    def elements(rows):
        stack = OperatorStack(rows, params)
        return {(m, n): stack.element(m, n) for m in configs for n in configs}

    worst = 0
    if identity == "aa_commute":
        x1, x2 = x
        if enforce_guard:
            guard_aa(x1, x2, params).require()
        lhs = elements([(KIND_A, x1), (KIND_A, x2)])
        rhs = elements([(KIND_A, x2), (KIND_A, x1)])
        worst = max(abs(lhs[k] - rhs[k]) for k in lhs)
    elif identity == "bb_commute":
        z1, z2 = z
        lhs = elements([(KIND_B, z1), (KIND_B, z2)])
        rhs = elements([(KIND_B, z2), (KIND_B, z1)])
        worst = max(abs(lhs[k] - rhs[k]) for k in lhs)
    elif identity == "ab_exchange":
        if enforce_guard:
            guard_ab(x, z, params).require()
        fac = (x - params.q * z) / (x - z) * (1 - x * z) / (1 - params.q * x * z)
        lhs = elements([(KIND_A, x), (KIND_B, z)])
        rhs = elements([(KIND_B, z), (KIND_A, x)])
        worst = max(abs(lhs[k] - fac * rhs[k]) for k in lhs)
    elif identity == "a_at_zero":
        lhs = elements([(KIND_A, 0 * params.q)])
        worst = max(abs(v) for v in lhs.values()) if lhs else 0
    elif identity == "a_at_one":
        one = Fraction(1) if params.backend() == "rational" else 1.0
        for s in (one, -one):
            lhs = elements([(KIND_A, s)])
            worst = max(
                worst,
                max(abs(lhs[(m, n)] - (1 if m == n else 0)) for m in configs for n in configs),
            )
    elif identity == "a_inverse_pair":
        if enforce_guard:
            guard_a_inverse(x, params).require()
        lhs = elements([(KIND_A, x), (KIND_A, 1 / x)])
        worst = max(
            abs(lhs[(m, n)] - (1 if m == n else 0)) for m in configs for n in configs
        )
    elif identity == "stochastic_rows":
        xs = x if isinstance(x, (tuple, list)) else (x,)
        for mu in configs:
            worst = max(worst, abs(stochastic_row_sum(mu, xs, params) - 1))
    elif identity == "branching":
        x1, x2 = x
        if enforce_guard:
            guard_aa(x1, x2, params).require()
        stack = OperatorStack([(KIND_A, x1), (KIND_A, x2)], params)
        s1 = OperatorStack([(KIND_A, x1)], params)
        s2 = OperatorStack([(KIND_A, x2)], params)
        residuals = []
        for cut in (support + 2, support + 4, support + 6):
            kappas = list(_all_configs(cut))
            worst_cut = 0.0
            for mu in configs:
                for nu in configs:
                    total = 0
                    for kappa in kappas:
                        a = s1.element(mu, kappa)
                        if _is_zero(a):
                            continue
                        total = total + a * s2.element(kappa, nu)
                    worst_cut = max(worst_cut, abs(stack.element(mu, nu) - total))
            residuals.append(worst_cut)
        decreasing = all(
            residuals[i + 1] <= residuals[i] or residuals[i + 1] < tol
            for i in range(len(residuals) - 1)
        )
        return decreasing and float(residuals[-1]) < tol, float(residuals[-1])
    else:
        raise ValueError(f"unknown identity {identity!r}")

    return _is_zero(worst) or float(abs(worst)) <= (
        0.0 if params.backend() == "rational" else tol
    ), float(abs(worst))
