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

* the stack of double rows, contracted column by column.  Each column
  with fixed external edges is one column operator per y_j class,
  {gamma: ((gamma', weight), ...)}, whose row for a channel tuple is that
  column's line swept up through the rows, filled the first time a
  frontier reaches the tuple.  The homogeneous far-right tail is summed
  in closed form by solving a small linear system (by fraction-free
  Bareiss elimination in the rational backend) -- this realises the
  infinite-column limit that products of truncated kernels cannot reach.
  Every vertex conserves particles, so column j changes the charge
  C = sum over rows of (b - t) by exactly [j in nu] - [j in mu]; only the
  boundary turns create charge, and a contraction keeps only the initial
  tuples of the one sector that can reach the target.  A family of elements
  (OperatorStack.elements) shares the column prefixes of its patterns and
  crosses each run of empty tail columns before a last column once, as a
  right vector built from the tail.  apply_double_row reads one row's
  elements on a truncated site window;
* for an empty initial configuration, the equivalent finite lattice with
  boundary vertices on a staircase, which is cheap for long alphabets,
  summed one path line at a time; its triangle alone (triangle_states)
  gives the triangular partition function Z_m.

Each move table and each boundary turn is built by weights.bulk_ints and
weights.k_ints from the (numerator, denominator) pairs of its arguments,
with x*y_j and x/y_j taken as products of numerators and denominators.
When q, a, c, the y-alphabet and the spectral values are rational, every
sweep is fraction-free: the tables hold integer numerators over one
denominator, the stack's initial frontier is a product of integer K
tables, every frontier is a map of integers over the product of the
denominators it has crossed (its zeros found by a truth test), the tail
is solved over the integers, and each element is an integer over its
denominator, reduced once.  Any other input gives tables over
denominator 1 and carries its own scalars through the same operations.

Local weights come from one table per argument, each entry evaluated
once; a bulk-weight pole raises DegeneratePoint only when a state uses
that entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import floordiv, truediv

import numpy as np

from .errors import ArityError, DegeneratePoint, GuardViolated, TruncationTooSmall
from .scalars import as_pair, is_array, is_exact, is_zero, nonzero, numerator, over_one_den
from .weights import (
    DOTTED,
    ROTATED,
    STOCHASTIC,
    ModelParams,
    bulk_ints,
    bulk_table,
    k_ints,
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
# Configurations
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


def configs_bounded(max_part: int, max_len: int):
    """Every configuration with parts <= max_part and at most max_len parts,
    fewest parts first."""
    for r in range(max_len + 1):
        for comb in itertools.combinations(range(1, max_part + 1), r):
            yield tuple(sorted(comb, reverse=True))


# ---------------------------------------------------------------------------
# One double row: local column moves
# ---------------------------------------------------------------------------


def _column_moves(kind, x, yj, q, exact: bool):
    """The move table of one double row at one column with parameter y_j,
    as (table, den): {(eta_in, (b, t)): [(eta_out, (b_right, t_right),
    weight)]} for every incoming vertical edge eta_in and left channel
    (b, t), with the outgoing edge free: the crossing shape of bulk_table.
    The lower row's rotated weights (z = x/y_j) and the upper row's weights
    (z = x*y_j) are each evaluated once, as bulk_ints numerators over its
    own denominator, with z's numerator and denominator the products of the
    pairs of x and y_j (integers when exact), so the weights are over the
    product den.  A weight pole (e.g. x = y_j/q) raises DegeneratePoint.
    """
    table = {}
    (xn, xd), (yn, yd), qp = as_pair(x, exact), as_pair(yj, exact), as_pair(q, exact)
    try:
        bot, den_bot = bulk_ints(xn * yd, xd * yn, ROTATED, *qp)
        top, den_top = bulk_ints(xn * yn, xd * yd, _TOP_VARIANT[kind], *qp)
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
    return table, den_bot * den_top


def _product_table(u, v, q, exact: bool):
    """The stochastic table at z = u*v as (table, den): bulk_ints numerators
    over their den, from the products of the pairs of u and v."""
    (un, ud), (vn, vd) = as_pair(u, exact), as_pair(v, exact)
    return bulk_ints(un * vn, ud * vd, STOCHASTIC, *as_pair(q, exact))


def _all_exact(params: ModelParams, values) -> bool:
    """Whether q, a, c, the y-alphabet and the given values are all rational."""
    scalars = [params.q, params.a, params.c, *params.y, *values]
    return all(is_exact(v) for v in scalars if v is not None)


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

    Moves conserve eta_in + b_right + t = eta_out + b + t_right, so <mu|.|nu>
    sees only boundary tuples of charge sum(b - t) = target()'s - |nu| + |mu|.

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
        self._zero = self._zero_like()
        self._tail = None
        self._column_ops = {}
        self._rows_cache = {}
        self._moves_cache = {}

    @property
    def n_rows(self):
        return len(self.rows)

    def _initial_frontier(self):
        """The boundary turns of every row as one frontier: the product of
        the rows' K tables, each over its own denominator when exact."""
        frontier, den = {(): 1}, 1
        for row in self.rows:
            K, d = k_ints(*as_pair(row.spectral, self._exact), self.params)
            turns = [((b, t), K[b][t]) for b in (0, 1) for t in (0, 1) if not is_zero(K[b][t])]
            frontier = {g + (bt,): w * k for g, w in frontier.items() for bt, k in turns}
            den *= d
        return frontier, den

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
                got = _column_moves(row.kind, row.spectral, self.params.y[col], self.q, self._exact)
            else:
                table, den = self._column_moves_cached(r, col)
                got = {k: [m for m in ms if m[0] == eta_out] for k, ms in table.items()}, den
            self._moves_cache[key] = got
        return got

    def _column_op(self, eta_b, eta_t, col):
        """The column operator for fixed external edges (see _ColumnOperator),
        one per (eta_b, eta_t, y_j class).

        eta_t None means the top edge is summed over (free top); col indexes
        the column's y_j in the y-alphabet.  A fixed eta_t crosses the top
        row by its moves that leave with eta_t only, so no path is built
        that the line's end would drop; both eta_b share one row-table list.
        """
        y_class = self._y_class[col]
        op = self._column_ops.get((eta_b, eta_t, y_class))
        if op is None:
            rows = self._rows_cache.get((eta_t, y_class))
            if rows is None:
                top = self.n_rows - 1
                rows = self._rows_cache[eta_t, y_class] = [
                    self._column_moves_cached(r, col, eta_t if r == top else None)
                    for r in range(self.n_rows)
                ]
            op = self._column_ops[eta_b, eta_t, y_class] = _ColumnOperator(rows, _ENDS[eta_t], eta_b)
        return op

    def target(self):
        return tuple(_TARGET[row.kind] for row in self.rows)

    def _tail_values(self, support, free_top: bool):
        """S[gamma] = lim_M (T^M)[gamma -> target] on the far-right tail, as
        (states reached, nonzero values, den): the states reached from the
        support hold S = 0 unless listed, and the values and den are a
        frontier."""
        tail_col = len(self.params.y) - 1
        eta_t = None if free_top else 0
        tgt = self.target()
        # forward closure of the frontier support (plus target); every tail
        # column shares one denominator D, so T = T_int / D
        op = self._column_op(0, eta_t, tail_col)
        D = op.den
        trans = {}
        todo = list(support) + [tgt]
        seen = set()
        while todo:
            g = todo.pop()
            if g in seen:
                continue
            seen.add(g)
            trans[g] = row = op[g]
            todo.extend(g2 for g2, _ in row)
        # states that cannot reach the target contribute 0 in the limit
        # (e.g. a right-mover passing at weight exactly 1 would otherwise
        # make I - T singular)
        rev = {}
        for g, row in trans.items():
            for g2, _ in row:
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
            return seen, {tgt: 1}, 1
        oidx = {g: i for i, g in enumerate(others)}
        n = len(others)
        A = [[None] * n for _ in range(n)]
        b = [self._zero] * n
        for g in others:
            i = oidx[g]
            for g2, w in trans[g]:
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
        S = dict(zip(others, _solve_dense(M, b)))
        S[tgt] = 1
        return seen, *over_one_den(nonzero(S), self._exact)

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
        return self.elements([(mu, nu)])[0]

    def elements(self, pairs):
        """[<mu| stack |nu> for (mu, nu) in pairs], contracted as one family."""
        return [Fraction(n, d) if self._exact and n else n for n, d in self._contract(pairs, False)]

    def row_sum(self, mu):
        """sum_nu <mu| stack |nu> over all finite nu (tail exact)."""
        (n, d), = self._contract([(mu, ())], free_top=True)
        return Fraction(n, d) if self._exact and n else n

    def _contract(self, pairs, free_top: bool):
        """Each pair's element as (num, den): integers when exact, else (value, 1).

        A pattern's right part lies past the y-prefix: g empty columns, then
        the last column's edges e.  Its left part is the charge sector
        (target()'s charge - |nu| + |mu|, None with a free top), then the
        edges (eta_b, eta_t) of the other columns.  Each distinct left part is
        walked once, in sorted order, from the frontier after the prefix it
        shares with the previous one, saved only if a later one resumes there
        (so one pair saves none).  Each R(e, g) = T_00^g T_e S is built once,
        on the tuples its left frontiers hold (collected first, so S is solved
        once for them); an element is its left frontier summed against R or S."""
        configs = {}

        def config(positions):
            positions = tuple(positions)
            got = configs.get(positions)
            if got is None:
                got = configs[positions] = as_config(positions)
            return got

        groups, rights = {}, []  # each distinct left part -> the indices of its pairs
        charge = sum(b - t for b, t in self.target())
        n_y, empty = len(self.params.y), (0, None if free_top else 0)
        for mu, nu in pairs:
            mu, nu = config(mu), config(nu)
            # the left part ends with the prefix or with the last part before the last column
            both = mu + nu
            last = max(both, default=0)
            end = max([n_y, *[j for j in both if j < last]])
            # edges as bools, which every table and cache key reads as 0 and 1
            edges = [(j in mu, None if free_top else j in nu) for j in (*range(1, end + 1), last)]
            left = (None if free_top else charge - len(nu) + len(mu), *edges[:end])
            groups.setdefault(left, []).append(len(rights))
            rights.append((edges[-1], last - end - 1) if last > n_y else None)
        patterns = sorted(groups)
        shared = [0] + [_common_prefix(a, b) for a, b in zip(patterns, patterns[1:])]
        keep, minima = [None] * len(patterns), []
        for k in reversed(range(len(patterns))):
            keep[k] = set(minima)
            while minima and minima[-1] >= shared[k]:
                minima.pop()
            minima.append(shared[k])
        out = [None] * len(pairs)
        saved = [(0, self._initial_frontier())] if pairs else []
        reads = {}  # e -> {g: the tuples R(e, g) is read on}
        for k, pattern in enumerate(patterns):
            depth, frontier = saved[-1] if shared[k] in keep[k] else saved.pop()
            for j in range(depth + 1, len(pattern) + 1):
                frontier = (_in_sector(frontier, pattern[0]) if j == 1 else self._column_step(
                    frontier, *pattern[j - 1], min(j - 1, n_y) - 1))
                if j in keep[k]:
                    saved.append((j, frontier))
            for i in groups[pattern]:
                if rights[i] is None:
                    out[i] = _dot(frontier, self._tail_on(frontier[0].keys(), free_top), self._zero)
                else:
                    out[i], (e, g) = frontier, rights[i]
                    reads.setdefault(e, {}).setdefault(g, set()).update(frontier[0])
        if reads:
            reads = {e: [lv.get(g, set()) for g in range(max(lv) + 1)] for e, lv in reads.items()}
            ops, right = {e: self._column_op(*e, n_y - 1) for e in (empty, *reads)}, {}
            for levels in reads.values():
                for g in reversed(range(1, len(levels))):
                    levels[g - 1] |= {g2 for s in levels[g] for g2, _ in ops[empty][s]}
            S = self._tail_on({g2 for e, ls in reads.items() for s in ls[0] for g2, _ in ops[e][s]},
                              free_top)
            for e, levels in reads.items():
                vector = S
                for g, states in enumerate(levels):
                    vector = right[e, g] = _right_step(ops[empty if g else e], vector, states)
            out = [p if r is None else _dot(p, right[r], self._zero) for p, r in zip(out, rights)]
        return out

    def _column_step(self, frontier, eta_b, eta_t, col):
        values, den = frontier
        op = self._column_op(eta_b, eta_t, col)
        new = {}
        for gamma, w in values.items():
            for gamma2, wt in op[gamma]:
                val = w * wt
                if gamma2 in new:
                    new[gamma2] = new[gamma2] + val
                else:
                    new[gamma2] = val
        return nonzero(new), den * op.den

    def _tail_on(self, states, free_top: bool):
        """The tail S as (nonzero values, den), re-solved to cover new states."""
        if self._tail is None or self._tail[0] != free_top or not states <= self._tail[1]:
            kept = self._tail[1] if self._tail and self._tail[0] == free_top else set()
            self._tail = (free_top, *self._tail_values(set(states) | kept, free_top))
        return self._tail[2:]


class _ColumnOperator(dict):
    """One column's transfer for fixed external edges, filled lazily:
    {gamma: ((gamma', weight numerator), ...)}, every weight over den.

    An entry is the column's line swept up through the rows' move tables
    from channel tuple gamma (entering with eta_b, leaving by ends).  With
    no rows the line goes straight through: the empty stack is the identity
    operator.
    """

    def __init__(self, rows, ends, eta_b):
        super().__init__()
        self.rows, self.ends, self.eta_b = rows, ends, eta_b
        self.den = ends[1] * math.prod(d for _, d in rows)

    def __missing__(self, gamma):
        values, _ = _line_sweep(({gamma: 1}, 1), self.rows, self.ends, enter=self.eta_b)
        got = self[gamma] = tuple(values.items())
        return got


def _in_sector(frontier, sector):
    """The frontier's channel tuples of charge sum(b - t) == sector (all if None)."""
    values, den = frontier
    return {g: w for g, w in values.items()
            if sector is None or sum(b - t for b, t in g) == sector}, den


def _right_step(op, vector, states):
    """T v on the given channel tuples, for T a column operator and v =
    (values, den) a vector held on every tuple T takes them to."""
    values, den = vector
    new = {g: sum(wt * values[g2] for g2, wt in op[g] if g2 in values) for g in states}
    return nonzero(new), den * op.den


def _dot(frontier, vector, zero):
    """A frontier summed against a vector, both (values, den); (zero, 1) if disjoint."""
    (values, den), (right, r_den) = frontier, vector
    terms = [w * right[g] for g, w in values.items() if g in right]
    return (sum(terms, zero), den * r_den) if terms else (zero, 1)


def _common_prefix(a, b) -> int:
    for d, (u, v) in enumerate(zip(a, b)):
        if u != v:
            return d
    return min(len(a), len(b))


def _solve_dense(M, b):
    """Solve M s = b over the active scalar ring.

    Rational entries are cleared to integers over their lcm and solved by
    fraction-free (Bareiss) elimination with the largest-modulus pivot: step
    k replaces each lower row's entry by (p_k A[r][c] - A[r][k] A[k][c]) /
    p_{k-1}, an exact integer division, so the last pivot is det = +-det M.
    A fraction-free back substitution then gives the integers det * s, and
    the solution is returned as Fractions.  Complex entries run the same
    loop with true division; numpy array entries are batched through
    numpy.linalg.solve over the lanes all entries broadcast to.  A singular
    system raises DegeneratePoint.
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
    A = [[*row, b[i]] for i, row in enumerate(M)]
    exact = all(is_exact(v) for v in entries)
    if exact:
        den = math.lcm(*(v.denominator for v in entries))
        A = [[numerator(v, den) for v in row] for row in A]
    div = floordiv if exact else truediv
    prev = 1
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(A[r][k]))
        if A[piv][k] == 0:
            raise DegeneratePoint("tail system singular at this parameter point")
        A[piv], A[k] = A[k], A[piv]
        row_k, p = A[k], A[k][k]
        for row in A[k + 1 :]:
            f = row[k]
            row[k + 1 :] = map(div, [p * v - f * u for v, u in zip(row[k + 1 :], row_k[k + 1 :])],
                               itertools.repeat(prev))
        prev = p
    y = [0] * n
    for r in range(n - 1, -1, -1):
        acc = prev * A[r][n] - sum(A[r][c] * y[c] for c in range(r + 1, n))
        y[r] = div(acc, A[r][r])
    return [Fraction(v, prev) for v in y] if exact else [v / prev for v in y]


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
            # each path carries the states it has left on the lines crossed
            frontier = [(enter, (), w)]
            for (table, _), h in zip(crossings, hs):
                frontier = [
                    (v2, out + (h2,), wv * wt) for v, out, wv in frontier for v2, h2, wt in table[v, h]
                ]
            rest = hs[len(crossings) :]
            for v, out, wv in frontier:
                for suffix, we in ends[v]:
                    key = out + rest + suffix
                    val = wv if we is None else wv * we
                    if key in new:
                        new[key] = new[key] + val
                    else:
                        new[key] = val
    except ZeroDivisionError as exc:
        raise DegeneratePoint(f"weight pole in the lattice route: {exc}") from exc
    return nonzero(new), den


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
            K, k_den = k_ints(*as_pair(xi, exact), params)
        except ZeroDivisionError as exc:
            raise DegeneratePoint(f"boundary weight pole at x={xi}: {exc}") from exc
        turn = {v: [((h,), K[v][h]) for h in (0, 1) if not is_zero(K[v][h])] for v in (0, 1)}
        crossings = [_product_table(xi, xj, params.q, exact) for xj in xs[:i]]
        states = _line_sweep(states, crossings, (turn, k_den))
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
            columns[col] = [_product_table(x, params.y_at(j), params.q, exact) for x in xs]
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
    if method not in ("auto", "lattice", "stack"):
        raise ValueError(f"unknown method {method!r}: expected auto, lattice or stack")
    mu, nu = as_config(mu), as_config(nu)
    xs = tuple(x_alphabet)
    if method == "lattice" or (method == "auto" and mu == ()):
        if mu != ():
            raise ArityError("lattice route requires empty mu")
        return g_lattice(nu, xs, params)
    return OperatorStack([(KIND_A, x) for x in xs], params).element(mu, nu)


def partition_F(mu, nu, z_alphabet, params: ModelParams):
    """F_{mu/nu}(z_1..z_M) = <mu| Bdot(z_1) ... Bdot(z_M) |nu>."""
    return OperatorStack([(KIND_B, z) for z in z_alphabet], params).element(mu, nu)


def stochastic_row_sum(mu, x_alphabet, params: ModelParams):
    """sum_nu G_{nu/mu} over all finite nu; equals 1 exactly."""
    return OperatorStack([(KIND_A, x) for x in x_alphabet], params).row_sum(mu)


def apply_double_row(bra, kind, spectral, n_columns, params: ModelParams):
    """A(x) or Bdot(z) applied to a bra: nu -> sum_mu bra[mu] <mu| row |nu>,
    read off the one-row OperatorStack for every nu inside [1, n_columns]
    (zeros dropped).  Each coefficient is the exact infinite-lattice kernel
    weight(mu -> nu); outputs escaping the window are dropped."""
    if not isinstance(bra, dict):
        raise TypeError("bra must be a dict")
    for mu in bra:
        if config_max(mu) > n_columns:
            raise TruncationTooSmall(f"bra support {config_max(mu)} exceeds n_columns={n_columns}")
    stack = OperatorStack([(kind, spectral)], params)
    nus = list(configs_bounded(n_columns, n_columns))
    out = {}
    for mu, coeff in bra.items():
        for nu, w in zip(nus, stack.elements([(mu, nu) for nu in nus])):
            out[nu] = out.get(nu, 0) + coeff * w
    return nonzero(out)


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
    """The exchange condition of every pair A(x) Bdot(z), x in xs, z in zs."""
    ratios = [r for x in xs for z in zs for r in guard_ab(x, z, params).ratios]
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


# checked on the configurations with parts <= _SUPPORT, to _TOL off the rationals
_SUPPORT, _TOL = 2, 1e-9
_BRANCHING_SUPPORT, _BRANCHING_TOL = 1, 1e-6


def verify_operator_identity(identity: str, params: ModelParams, spectral: tuple):
    """Check one operator identity on every <mu|.|nu> with parts <= _SUPPORT.

    spectral is (x1, x2) for aa_commute and branching, (z1, z2) for
    bb_commute, (x, z) for ab_exchange, (x,) for a_inverse_pair, (x1, ...,
    xL) for stochastic_rows and () for a_at_zero and a_at_one.

    Returns (ok, max_residual).  Equality is exact (residual 0) in the
    rational backend for everything except 'branching', whose infinite
    intermediate sum is only checked to stabilise geometrically.
    """
    if identity == "branching":
        return _verify_branching(params, *spectral)
    configs = list(configs_bounded(_SUPPORT, _SUPPORT))
    pairs = [(m, n) for m in configs for n in configs]
    delta = [1 if m == n else 0 for m, n in pairs]

    def elements(*rows):
        return OperatorStack(rows, params).elements(pairs)

    if identity == "aa_commute":
        x1, x2 = spectral
        guard_aa(x1, x2, params).require()
        lhs, rhs = elements((KIND_A, x1), (KIND_A, x2)), elements((KIND_A, x2), (KIND_A, x1))
    elif identity == "bb_commute":
        z1, z2 = spectral
        lhs, rhs = elements((KIND_B, z1), (KIND_B, z2)), elements((KIND_B, z2), (KIND_B, z1))
    elif identity == "ab_exchange":
        x, z = spectral
        guard_ab(x, z, params).require()
        fac = (x - params.q * z) / (x - z) * (1 - x * z) / (1 - params.q * x * z)
        lhs = elements((KIND_A, x), (KIND_B, z))
        rhs = [fac * v for v in elements((KIND_B, z), (KIND_A, x))]
    elif identity == "a_at_zero":
        lhs, rhs = elements((KIND_A, 0 * params.q)), [0] * len(pairs)
    elif identity == "a_at_one":
        one = Fraction(1) if is_exact(params.q) else 1.0
        lhs, rhs = elements((KIND_A, one)) + elements((KIND_A, -one)), delta + delta
    elif identity == "a_inverse_pair":
        (x,) = spectral
        guard_a_inverse(x, params).require()
        lhs, rhs = elements((KIND_A, x), (KIND_A, 1 / x)), delta
    elif identity == "stochastic_rows":
        lhs, rhs = [stochastic_row_sum(mu, spectral, params) for mu in configs], [1] * len(configs)
    else:
        raise ValueError(f"unknown identity {identity!r}")
    worst = max(abs(a - b) for a, b in zip(lhs, rhs))
    return is_zero(worst) or float(worst) <= (0.0 if is_exact(params.q) else _TOL), float(worst)


def _verify_branching(params: ModelParams, x1, x2):
    """A(x1) A(x2) against sum_kappa A(x1)|kappa><kappa|A(x2), kappa's parts cut at
    three growing bounds: the residual may not grow and must end under _BRANCHING_TOL."""
    guard_aa(x1, x2, params).require()
    configs = list(configs_bounded(_BRANCHING_SUPPORT, _BRANCHING_SUPPORT))

    def table(stack, bras, kets):
        pairs = [(m, n) for m in bras for n in kets]
        return dict(zip(pairs, stack.elements(pairs)))

    direct = table(OperatorStack([(KIND_A, x1), (KIND_A, x2)], params), configs, configs)
    s1, s2 = (OperatorStack([(KIND_A, x)], params) for x in (x1, x2))
    # one family per stack at the largest cut; each cut sums its part of it
    kappas = list(configs_bounded(_BRANCHING_SUPPORT + 6, _BRANCHING_SUPPORT + 6))
    first, second = table(s1, configs, kappas), table(s2, kappas, configs)
    residuals = []
    for cut in (_BRANCHING_SUPPORT + 2, _BRANCHING_SUPPORT + 4, _BRANCHING_SUPPORT + 6):
        worst_cut = 0.0
        for (mu, nu), d in direct.items():
            terms = (first[mu, k] * second[k, nu] for k in kappas
                     if config_max(k) <= cut and not is_zero(first[mu, k]))
            worst_cut = max(worst_cut, abs(d - sum(terms)))
        residuals.append(worst_cut)
    decreasing = all(r1 <= r0 or r1 < _BRANCHING_TOL for r0, r1 in zip(residuals, residuals[1:]))
    return decreasing and float(residuals[-1]) < _BRANCHING_TOL, float(residuals[-1])
