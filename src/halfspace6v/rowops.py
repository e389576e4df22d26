"""Double-row operators A(x) and Bdot(z) on finite particle configurations.

A configuration is a strictly decreasing tuple of occupied positions.  One
double-row operator sweeps the half-infinite lattice once: the lower row
moves left toward the boundary vertex (rotated weights, z = x/y_j), the
upper row moves right away from it (z = x*y_j; dotted weights for Bdot).
At the far right the channel pair (lower, upper) is pinned to (0, 0) for
A and (0, 1) for Bdot.

Every contraction runs through one sweep, _line_sweep: a path line passes
up through a tuple of horizontal edge states, crossing each by a table
(vertical in, horizontal in) -> [(vertical out, horizontal out, weight)];
one column of a double row (_column_moves) is such a table, with the
row's channel (b, t) as the horizontal edge.  Matrix elements of operator
products are evaluated two ways:

* the stack of double rows, contracted column by column.  A column's
  transfer from a channel tuple is that column's line swept up through
  the rows, memoised per y_j; the homogeneous far-right tail is summed in
  closed form by solving a small linear system (exact in the rational
  backend) -- this realises the infinite-column limit that products of
  truncated kernels cannot reach.  A family of elements
  (OperatorStack.elements) is contracted in the order of its column
  patterns, each resuming from the frontier of the column prefix it
  shares with the previous one;
* for an empty initial configuration, the equivalent finite lattice with
  boundary vertices on a staircase, which is cheap for long alphabets,
  summed one path line at a time; its triangle alone (triangle_states)
  gives the triangular partition function Z_m.

When q, a, c, the y-alphabet and the spectral values are rational, every
sweep is fraction-free: each move table and each boundary turn holds
integer numerators over one denominator, every frontier is a map of
integers over the product of the denominators it has crossed, and the
result is reduced to a Fraction once, at the close.  Any other input
carries denominator 1 and its own scalars through the same operations.

Local weights come from one table per argument (weights.bulk_table and
weights.k_table), each entry evaluated once; a bulk-weight pole raises
DegeneratePoint only when a state uses that entry.

apply_double_row is the plain one-sweep Markov kernel on a truncated site
window; its coefficients are exact for every output supported inside the
window.  It sweeps one line per column over the states (channel, positions
emitted so far); the tests check asep.vertex_row_kernel, the dense
contraction of the same tables, against it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArityError, DegeneratePoint, GuardViolated, TruncationTooSmall
from .scalars import is_array, is_exact, is_zero, numerator, over_one_den
from .weights import (
    DOTTED,
    ROTATED,
    STOCHASTIC,
    ModelParams,
    bulk_table,
    k_table,
)

KIND_A = "A"
KIND_B = "Bdot"

# far-right channel (lower, upper) pinned by the operator's boundary data
_TARGET = {KIND_A: (0, 0), KIND_B: (0, 1)}
_TOP_VARIANT = {KIND_A: STOCHASTIC, KIND_B: DOTTED}
# a path line's ends (table, den) when it must leave empty (0) or occupied
# (1), or may leave either way (None)
_ENDS = {eta: ({eta: [((), 1)], 1 - eta: []}, 1) for eta in (0, 1)}
_ENDS[None] = ({0: [((), 1)], 1: [((), 1)]}, 1)


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
        if is_zero(new):
            self.pop(cfg, None)
        else:
            self[cfg] = new

    @classmethod
    def unit(cls, cfg):
        return cls({as_config(cfg): 1})


# ---------------------------------------------------------------------------
# One double row: local column moves
# ---------------------------------------------------------------------------


def _column_moves(kind, x, yj, q) -> dict:
    """The move table of one double row at one column with parameter y_j:
    {(eta_in, (b, t)): [(eta_out, (b_right, t_right), weight)]} for every
    incoming vertical edge eta_in and left channel (b, t), with the outgoing
    edge free: the crossing shape of bulk_table.  The lower row's rotated
    weights (z = x/y_j) and the upper row's weights (z = x*y_j) are each
    evaluated once.  A weight pole (e.g. x = y_j/q) raises DegeneratePoint.
    """
    table = {}
    try:
        bot = bulk_table(x / yj, ROTATED, q)
        top = bulk_table(x * yj, _TOP_VARIANT[kind], q)
        for eta_in, b, t in itertools.product((0, 1), repeat=3):
            moves = table[eta_in, (b, t)] = []
            # rotated entries are keyed by (vert_in, right_in); iterate right_in
            for b_right in (0, 1):
                for m, b_left, w_bot in bot[eta_in, b_right]:
                    if b_left != b:
                        continue
                    for eta_out, t_right, w_top in top[m, t]:
                        w = w_bot * w_top
                        if not is_zero(w):
                            moves.append((eta_out, (b_right, t_right), w))
    except ZeroDivisionError as exc:
        raise DegeneratePoint(f"row weight pole at x={x}, y_j={yj}: {exc}") from exc
    return table


def _int_table(table: dict, exact: bool):
    """(table, den) with the table's weights as integer numerators over their
    lcm den when exact; (table, 1) otherwise.  Entries are tuples whose last
    item is the weight, and the table keeps its type."""
    if not exact:
        return table, 1
    den = math.lcm(*(e[-1].denominator for es in table.values() for e in es))
    ints = {k: [(*e[:-1], numerator(e[-1], den)) for e in es] for k, es in table.items()}
    return type(table)(ints), den


def _all_exact(params: ModelParams, values) -> bool:
    """Whether q, a, c, the y-alphabet and the given values are all rational."""
    scalars = [params.q, params.a, params.c, *params.y, *values]
    return all(is_exact(v) for v in scalars if v is not None)


def apply_double_row(bra, kind, spectral, n_columns, params: ModelParams):
    """One sweep of A(x) or Bdot(z) applied to a bra, truncated to n_columns.

    Every output coefficient with support inside [1, n_columns] is the exact
    infinite-lattice kernel weight(mu -> nu); outputs escaping the window are
    dropped.
    """
    if not isinstance(bra, dict):
        raise TypeError("bra must be a SparseState / dict")
    for mu in bra:
        if config_max(mu) > n_columns:
            raise TruncationTooSmall(
                f"bra support {config_max(mu)} exceeds n_columns={n_columns}"
            )
    exact = _all_exact(params, [spectral])
    # columns past the y-prefix share the tail's table
    n_tables = min(n_columns, len(params.y))
    tables = [
        _int_table(_column_moves(kind, spectral, params.y_at(j), params.q), exact)
        for j in range(1, n_tables + 1)
    ]
    K = k_table(spectral, params)
    start = over_one_den(
        {((b, t),): K[b][t] for b in (0, 1) for t in (0, 1) if not is_zero(K[b][t])}, exact
    )
    out = SparseState()
    target = _TARGET[kind]
    for mu, coeff in bra.items():
        # states (channel, *positions emitted so far): column j's line
        # enters occupied when mu holds j and emits j when it leaves occupied
        states = start
        for j in range(1, n_columns + 1):
            ends = ({0: [((), 1)], 1: [((j,), 1)]}, 1)
            states = _line_sweep(states, [tables[min(j, n_tables) - 1]], ends, enter=int(j in mu))
        for key in states[0]:
            if key[0] == target:
                out.add(tuple(reversed(key[1:])), coeff * frontier_value(states, key))
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
    non-target states.  Spectral parameters may be numpy arrays of
    different broadcastable shapes (one open-grid axis per row), in which
    case everything broadcasts and the tail solve is batched.

    A frontier is a pair (values, den): the weight of channel tuple gamma is
    values[gamma] / den.  Over the rationals the values are integers (see
    the module docstring); otherwise den is 1.
    """

    def __init__(self, rows, params: ModelParams):
        self.rows = [RowSpec(*r) if not isinstance(r, RowSpec) else r for r in rows]
        self.params = params
        self.q = params.q
        self._exact = _all_exact(params, [row.spectral for row in self.rows])
        # every prefix column's y_j as a small int (equal values share one,
        # arrays by identity), so the cache keys hash ints
        classes = {}
        self._y_class = [
            classes.setdefault(id(y) if is_array(y) else y, len(classes)) for y in params.y
        ]
        self._tail = None
        self._column_cache = {}
        self._moves_cache = {}

    @property
    def n_rows(self):
        return len(self.rows)

    def _initial_frontier(self):
        tables = [k_table(row.spectral, self.params) for row in self.rows]
        frontier = {}
        for gamma in itertools.product(
            itertools.product((0, 1), (0, 1)), repeat=self.n_rows
        ):
            w = 1
            for K, (b, t) in zip(tables, gamma):
                w = w * K[b][t]
                if is_zero(w):
                    break
            else:
                frontier[gamma] = w
        return over_one_den(frontier, self._exact)

    def _column_moves_cached(self, r, col, eta_out=None):
        """Row r's move table for the column parameter y[col], with the
        table's weights over one denominator: (table, den).  With eta_out
        given, only the moves whose outgoing vertical edge is eta_out, over
        the full table's den."""
        key = (r, self._y_class[col], eta_out)
        got = self._moves_cache.get(key)
        if got is None:
            if eta_out is None:
                row = self.rows[r]
                table = _column_moves(row.kind, row.spectral, self.params.y[col], self.q)
                got = _int_table(table, self._exact)
            else:
                table, den = self._column_moves_cached(r, col)
                got = {k: [m for m in ms if m[0] == eta_out] for k, ms in table.items()}, den
            self._moves_cache[key] = got
        return got

    def _column_transfer(self, gamma, eta_b, eta_t, col):
        """(dict gamma' -> weight numerator, column denominator) for one
        column with fixed external edges: the column's line swept up through
        the rows from channel tuple gamma, memoised per y_j class.

        eta_t None means the top edge is summed over (free top); col indexes
        the column's y_j in the y-alphabet.  A fixed eta_t crosses the top
        row by its moves that leave with eta_t only, so no path is built
        that the line's end would drop.
        """
        key = (gamma, eta_b, eta_t, self._y_class[col])
        got = self._column_cache.get(key)
        if got is None:
            top = self.n_rows - 1
            rows = [self._column_moves_cached(r, col) for r in range(top)]
            rows.append(self._column_moves_cached(top, col, eta_t))
            got = _line_sweep(({gamma: 1}, 1), rows, _ENDS[eta_t], enter=eta_b)
            self._column_cache[key] = got
        return got

    def target(self):
        return tuple(_TARGET[row.kind] for row in self.rows)

    def _tail_values(self, support, free_top: bool):
        """S[gamma] = lim_M (T^M)[gamma -> target] on the far-right tail,
        as (values, den) like a frontier."""
        tail_col = len(self.params.y) - 1
        eta_t = None if free_top else 0
        tgt = self.target()
        # forward closure of the frontier support (plus target); every tail
        # column shares one denominator D, so T = T_int / D
        trans = {}
        todo = list(support) + [tgt]
        seen = set()
        D = 1
        while todo:
            g = todo.pop()
            if g in seen:
                continue
            seen.add(g)
            row, D = self._column_transfer(g, 0, eta_t, tail_col)
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
            return {g: (1 if g == tgt else 0) for g in seen}, 1
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
        # (I - T) S = b / D, i.e. (D I - T_int) S = b_int
        M = [
            [
                (D if i == j else 0) - (A[i][j] if A[i][j] is not None else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        sol = _solve_dense(M, b)
        S = {g: 0 for g in seen}
        S[tgt] = 1
        for g in others:
            S[g] = sol[oidx[g]]
        return over_one_den(S, self._exact)

    def _zero_like(self):
        """0 of the stack's scalar ring; with array rows, zeros over the
        lanes that all rows' spectral arrays broadcast to."""
        arrays = [row.spectral for row in self.rows if is_array(row.spectral)]
        if not arrays:
            return 0
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        return np.zeros(shape, np.result_type(*arrays))

    def element(self, mu, nu):
        """<mu| stack |nu> on the semi-infinite lattice (tail exact)."""
        return self._contract([(mu, nu)], free_top=False)[0]

    def elements(self, pairs):
        """[<mu| stack |nu> for (mu, nu) in pairs], contracted as one family."""
        return self._contract(pairs, free_top=False)

    def row_sum(self, mu):
        """sum_nu <mu| stack |nu> over all finite nu (tail exact)."""
        return self._contract([(mu, ())], free_top=True)[0]

    def _contract(self, pairs, free_top: bool):
        """Contract the pairs in the order of their column patterns, the
        external edges (eta_b, eta_t) of every column.  Each pattern resumes
        from the frontier after the prefix it shares with the previous one;
        a frontier is saved only at a depth that a later pattern resumes from
        (a running minimum of the shared lengths), so one pair saves none."""
        patterns = []
        for mu, nu in pairs:
            mu, nu = as_config(mu), as_config(nu)
            n_cols = max(config_max(mu), config_max(nu), len(self.params.y))
            patterns.append(tuple([
                (int(j in mu), None if free_top else int(j in nu)) for j in range(1, n_cols + 1)
            ]))
        order = sorted(range(len(pairs)), key=patterns.__getitem__)
        shared = [0] + [_common_prefix(patterns[i], patterns[k]) for i, k in zip(order, order[1:])]
        keep, minima = [None] * len(order), []
        for k in reversed(range(len(order))):
            keep[k] = set(minima)
            while minima and minima[-1] >= shared[k]:
                minima.pop()
            minima.append(shared[k])
        out = [None] * len(pairs)
        saved = [(0, self._initial_frontier())] if pairs else []
        n_y = len(self.params.y)
        for k, i in enumerate(order):
            depth, frontier = saved[-1] if shared[k] in keep[k] else saved.pop()
            for j in range(depth + 1, len(patterns[i]) + 1):
                frontier = self._column_step(frontier, *patterns[i][j - 1], min(j, n_y) - 1)
                if j in keep[k]:
                    saved.append((j, frontier))
            out[i] = self._close(frontier, free_top)
        return out

    def _column_step(self, frontier, eta_b, eta_t, col):
        values, den = frontier
        new = {}
        col_den = 1
        for gamma, w in values.items():
            transfer, col_den = self._column_transfer(gamma, eta_b, eta_t, col)
            for gamma2, wt in transfer.items():
                val = w * wt
                if gamma2 in new:
                    new[gamma2] = new[gamma2] + val
                else:
                    new[gamma2] = val
        return {k: v for k, v in new.items() if not is_zero(v)}, den * col_den

    def _close(self, frontier, free_top: bool):
        """Sum the frontier against the exact far-right tail; an exact stack
        reduces the integer total over its denominator once, here."""
        values, den = frontier
        if self._tail is None or self._tail[0] != free_top:
            self._tail = (free_top, *self._tail_values(values.keys(), free_top))
        elif any(g not in self._tail[1] for g in values):
            support = set(self._tail[1]) | set(values)
            self._tail = (free_top, *self._tail_values(support, free_top))
        _, S, s_den = self._tail
        terms = [w * S[g] for g, w in values.items() if g in S and not is_zero(S[g])]
        total = sum(terms, self._zero_like())
        # with no term the element is the ring's zero (the int 0 when exact)
        return Fraction(total, den * s_den) if self._exact and terms else total


def _common_prefix(a, b) -> int:
    for d, (u, v) in enumerate(zip(a, b)):
        if u != v:
            return d
    return min(len(a), len(b))


def _solve_dense(M, b):
    """Solve M s = b over the active scalar ring.

    Fractions use exact Gaussian elimination with abs-max pivoting; numpy
    array entries are batched through numpy.linalg.solve over the lanes all
    entries broadcast to.
    """
    n = len(M)
    entries = [v for row in M for v in row] + list(b)
    if any(is_array(v) for v in entries):
        batch = np.broadcast_shapes(*(np.shape(v) for v in entries))
        Mb = np.empty(batch + (n, n), dtype=complex)
        bb = np.empty(batch + (n,), dtype=complex)
        for i in range(n):
            bb[..., i] = b[i]
            for j in range(n):
                Mb[..., i, j] = M[i][j]
        # b as a stack of one-column matrices: numpy >= 2 reads a (..., n)
        # right-hand side as a matrix unless it is 1-D
        sol = np.linalg.solve(Mb, bb[..., None])
        return [sol[..., i, 0] for i in range(n)]
    A = [row[:] + [b[i]] for i, row in enumerate(M)]
    if all(is_exact(v) for row in A for v in row):
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


def _line_sweep(states, crossings, ends, enter=0):
    """Pass one path line up through the horizontal lines of every edge state.

    states is a frontier (values, den): each tuple of horizontal edge states
    maps to its weight over den.  The line enters from below with vertical
    edge state enter (empty in the lattice; in a double-row column, whether
    the bra occupies it) and crosses horizontal line k by the table
    crossings[k], {(v, h): [(v_out, h_out, weight)]}; lines past
    len(crossings) are not crossed.  In ends, table[v] lists the (suffix,
    weight) pairs by which a top state with line exit v leaves as key
    cur + suffix, and equal keys are merged.  Crossings and ends are
    (table, den) pairs, so the line multiplies den by all their
    denominators.  A weight pole raises DegeneratePoint when a state uses it.
    """
    values, den = states
    ends, end_den = ends
    den *= end_den * math.prod(d for _, d in crossings)
    # an exit weight that is the int 1 multiplies nothing (None)
    ends = {
        v: [(suffix, None if type(we) is int and we == 1 else we) for suffix, we in es]
        for v, es in ends.items()
    }
    new = {}
    try:
        for hs, w in values.items():
            frontier = [(enter, hs, w)]
            for k, (table, _) in enumerate(crossings):
                nf = []
                for v, cur, wv in frontier:
                    h = cur[k]
                    for v2, h2, wt in table[v, h]:
                        nf.append((v2, cur if h2 == h else cur[:k] + (h2,) + cur[k + 1 :], wv * wt))
                frontier = nf
            for v, cur, wv in frontier:
                for suffix, we in ends[v]:
                    key = cur + suffix
                    val = wv if we is None else wv * we
                    if key in new:
                        new[key] = new[key] + val
                    else:
                        new[key] = val
    except ZeroDivisionError as exc:
        raise DegeneratePoint(f"weight pole in the lattice route: {exc}") from exc
    return {k: v for k, v in new.items() if not is_zero(v)}, den


def frontier_value(frontier, key):
    """The weight of key in a frontier (values, den), reduced once to a
    Fraction from integer numerators; the int 0 if key is absent."""
    values, den = frontier
    w = values.get(key)
    return 0 if w is None else Fraction(w, den) if isinstance(w, int) else w


def triangle_states(xs, params: ModelParams):
    """Weighted edge states (h_1..h_L) leaving the triangle of lines x_1..x_L,
    as a frontier (values, den).

    Line i crosses lines 1..i-1 (argument x_i x_j) and turns right at its
    boundary vertex; equal edge states are merged after every line.  The
    all-empty entry is the triangular partition function Z_L.  The sweep is
    fraction-free when q, a, c, y and the x's are rational.
    """
    exact = _all_exact(params, xs)
    states = {(): 1}, 1
    for i, xi in enumerate(xs):
        try:
            K = k_table(xi, params)
        except ZeroDivisionError as exc:
            raise DegeneratePoint(f"boundary weight pole at x={xi}: {exc}") from exc
        turn = {v: [((h,), K[v][h]) for h in (0, 1) if not is_zero(K[v][h])] for v in (0, 1)}
        crossings = [_int_table(bulk_table(xi * xj, STOCHASTIC, params.q), exact) for xj in xs[:i]]
        states = _line_sweep(states, crossings, _int_table(turn, exact))
    return states


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
    exact = _all_exact(params, xs)
    states = triangle_states(xs, params)
    columns = {}  # columns past the y-prefix share the tail's crossings
    for j in range(1, config_max(nu) + 1):
        col = min(j, len(params.y))
        if col not in columns:
            zs = [x * params.y_at(j) for x in xs]
            columns[col] = [_int_table(bulk_table(z, STOCHASTIC, params.q), exact) for z in zs]
        states = _line_sweep(states, columns[col], _ENDS[int(j in nu)])
    return frontier_value(states, (0,) * len(xs))


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
        weights = [w for row in k_table(x, params) for w in row]
        for y in set(params.y):
            for z in (x * y, x / y):
                table = bulk_table(z, STOCHASTIC, params.q)
                for inp in itertools.product((0, 1), repeat=2):
                    weights += [w for *_, w in table[inp]]
    except ArithmeticError:  # a pole
        return False
    return all(ok(w) for w in weights)


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

    def table(stack, bras, kets):
        pairs = [(m, n) for m in bras for n in kets]
        return dict(zip(pairs, stack.elements(pairs)))

    def elements(rows):
        return table(OperatorStack(rows, params), configs, configs)

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
        direct = elements([(KIND_A, x1), (KIND_A, x2)])
        s1 = OperatorStack([(KIND_A, x1)], params)
        s2 = OperatorStack([(KIND_A, x2)], params)
        residuals = []
        for cut in (support + 2, support + 4, support + 6):
            kappas = list(_all_configs(cut))
            second = table(s2, kappas, configs)
            worst_cut = 0.0
            for mu in configs:
                first = table(s1, [mu], kappas)
                for nu in configs:
                    total = 0
                    for kappa in kappas:
                        a = first[mu, kappa]
                        if is_zero(a):
                            continue
                        total = total + a * second[kappa, nu]
                    worst_cut = max(worst_cut, abs(direct[mu, nu] - total))
            residuals.append(worst_cut)
        decreasing = all(
            residuals[i + 1] <= residuals[i] or residuals[i + 1] < tol
            for i in range(len(residuals) - 1)
        )
        return decreasing and float(residuals[-1]) < tol, float(residuals[-1])
    else:
        raise ValueError(f"unknown identity {identity!r}")

    return is_zero(worst) or float(abs(worst)) <= (
        0.0 if params.backend() == "rational" else tol
    ), float(abs(worst))
