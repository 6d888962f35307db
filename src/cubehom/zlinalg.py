"""Exact integer linear algebra: Smith normal form, cokernels, chain homology.

Everything here works over plain Python ints, so there is no overflow and no
floating point anywhere. Matrices and chain complexes alike hold sparse rows
{column: non-zero entry}: IntMatrix multiplies, adds and transposes them as
they are, assemble_blocks writes a block matrix from its blocks, and
cell_complex writes every boundary of a normalized complex through it. Dense
rows are made only for det, for the JSON boundary and for the matrix of the
one deterministic pivot loop. One kernel, _pivot_rows, eliminates for
homology, cohomology and cokernels: sparse unit pivots, then the pivot loop
on the residual they leave. Transforms have one form, sparse lines that
_record updates, and are kept only where a caller needs them: all four for
the Smith normal form (exact solving), the row transforms for cokernels,
none for homology.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import accumulate
from math import gcd


class IntMatrix:
    """An immutable integer matrix stored as sparse rows.

    sparse holds one dict {column: non-zero entry} per row. A row is never
    changed once its matrix is built, so matrices share rows freely; data
    is a dense tuple of row tuples, built on request for the JSON boundary,
    det and the dense pivot loop.
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable[int]]):
        dense = [[int(x) for x in row] for row in data]
        if len(dense) != rows or any(len(r) != cols for r in dense):
            raise ValueError(f"shape mismatch: expected {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.sparse = tuple({j: x for j, x in enumerate(row) if x} for row in dense)

    @staticmethod
    def from_rows(data: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return IntMatrix(rows, cols, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return _wrap(n, n, tuple({i: 1} for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return _wrap(rows, cols, tuple({} for _ in range(rows)))

    @staticmethod
    def from_sparse(rows: Sequence[dict], cols: int) -> "IntMatrix":
        """The matrix with the given rows {column: entry} and cols columns.

        Zero entries are dropped; a column outside range(cols) raises
        ValueError.
        """
        out = []
        for row in rows:
            if any(not 0 <= j < cols for j in row):
                raise ValueError(f"sparse row has a column outside range({cols})")
            out.append({j: int(x) for j, x in row.items() if x})
        return _wrap(len(out), cols, tuple(out))

    @staticmethod
    def from_blocks(row_sizes: Sequence[int], col_sizes: Sequence[int],
                    blocks: Iterable[tuple]) -> "IntMatrix":
        """The matrix of assemble_blocks(row_sizes, col_sizes, blocks)."""
        return _wrap(sum(row_sizes), sum(col_sizes),
                     tuple(assemble_blocks(row_sizes, col_sizes, blocks)))

    @property
    def data(self) -> tuple:
        """The rows as dense tuples."""
        out = []
        for row in self.sparse:
            line = [0] * self.cols
            for j, x in row.items():
                line[j] = x
            out.append(tuple(line))
        return tuple(out)

    def sparse_rows(self) -> list:
        """The rows as fresh dicts {column: non-zero entry}."""
        return [dict(row) for row in self.sparse]

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.sparse[i].get(range(self.cols)[j], 0)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse == other.sparse
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self.sparse)))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {list(map(list, self.data))})"

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntMatrix.from_blocks([self.rows], [self.cols], [(0, 0, self, 1), (0, 0, other, 1)])

    def scale(self, c: int) -> "IntMatrix":
        if c == 0:
            return IntMatrix.zeros(self.rows, self.cols)
        return _wrap(self.rows, self.cols,
                     tuple({j: c * x for j, x in row.items()} for row in self.sparse))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        right = other.sparse
        out = []
        for row in self.sparse:
            total = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    total[j] = total.get(j, 0) + a * b
            out.append(total if all(total.values())
                       else {j: x for j, x in total.items() if x})
        return _wrap(self.rows, other.cols, tuple(out))

    def transpose(self) -> "IntMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, x in row.items():
                out[j][i] = x
        return _wrap(self.cols, self.rows, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.sparse)


def _wrap(rows: int, cols: int, sparse: tuple) -> IntMatrix:
    """An IntMatrix on rows that hold only non-zero entries in range(cols)."""
    m = object.__new__(IntMatrix)
    m.rows = rows
    m.cols = cols
    m.sparse = sparse
    return m


def assemble_blocks(row_sizes: Sequence[int], col_sizes: Sequence[int],
                    blocks: Iterable[tuple]) -> list:
    """Sparse rows {column: non-zero entry} of a matrix given by blocks.

    blocks holds (row_block, col_block, matrix, sign) tuples, and each adds
    sign * matrix at its place, so blocks at one place are summed and
    entries that cancel are dropped. Places with no block are zero.
    """
    row_off = list(accumulate(row_sizes, initial=0))
    col_off = list(accumulate(col_sizes, initial=0))
    out = [{} for _ in range(row_off[-1])]
    for bi, bj, m, sign in blocks:
        if m.rows != row_sizes[bi] or m.cols != col_sizes[bj]:
            raise ValueError(f"block ({bi},{bj}) has shape {m.rows}x{m.cols}, "
                             f"expected {row_sizes[bi]}x{col_sizes[bj]}")
        off = col_off[bj]
        for i, row in enumerate(m.sparse, row_off[bi]):
            target = out[i]
            for j, a in row.items():
                j += off
                y = target.get(j, 0) + sign * a
                if y:
                    target[j] = y
                else:
                    del target[j]
    return out


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(r) for r in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class SmithDecomposition(namedtuple("SmithDecomposition", "U D V U_inv V_inv")):
    """U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ... | dr."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return sum(1 for i in range(min(self.D.rows, self.D.cols)) if self.D[i, i] != 0)

    def invariant_factors(self) -> tuple:
        return tuple(self.D[i, i] for i in range(self.rank))


def _identity_lines(n: int) -> tuple:
    """A transform pair (T, T_inv') of the n x n identity, as sparse lines."""
    return [{i: 1} for i in range(n)], [{i: 1} for i in range(n)]


def _record(transform, i: int, k: int, q: int) -> None:
    """Record line i += q * line k in a transform pair (T, T_inv') of sparse lines.

    T holds the transform by lines, T_inv' its inverse by the other index,
    so both change by whole lines: T[i] += q T[k] and T_inv'[k] -= q T_inv'[i].
    """
    if transform is not None:
        fwd, inv = transform
        _add_sparse(fwd[i], fwd[k], q)
        _add_sparse(inv[k], inv[i], -q)


def _swap(transform, i: int, k: int) -> None:
    if transform is not None:
        for lines in transform:
            lines[i], lines[k] = lines[k], lines[i]


def _reduce(d: list, n: int, row_tf=None, col_tf=None, chain: bool = False) -> int:
    """Diagonalize the m x n matrix d, a list of row lists, in place.

    Each round pivots on an entry of least absolute value in the residual
    d[t:, t:], the first in row-major order (the search stops at a +-1),
    moves it to (t, t) and makes it positive. Row operations reduce its
    column and column operations its row by nearest-integer quotients, so
    every remainder is at most half the pivot and the next pivot is
    smaller. A pivot with a clear row and column is final, unless chain is
    set and it fails to divide a residual entry; that entry's row is then
    added to the pivot row. A unit divides everything, so it skips the scan.

    row_tf, if given, is a transform pair (U, U_inv transposed) with one
    sparse line per row of d, and col_tf a pair (V transposed, V_inv) with
    one per column; every operation is recorded on them, so starting from
    identity lines U * A * V = D. Returns the number of pivots.
    """
    m = len(d)
    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        p, pi, pj = best
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            _swap(row_tf, t, pi)
        if pj != t:
            for row in d[t:]:
                row[t], row[pj] = row[pj], row[t]
            _swap(col_tf, t, pj)
        top = d[t]
        if top[t] < 0:
            d[t] = top = [-x for x in top]
            if row_tf is not None:
                for lines in row_tf:
                    lines[t] = {c: -x for c, x in lines[t].items()}
        clear = True
        entries = [(c, x) for c, x in enumerate(top) if x]
        for i in range(t + 1, m):
            row = d[i]
            if row[t]:
                q = (2 * row[t] + p) // (2 * p)
                for c, x in entries:
                    row[c] -= q * x
                _record(row_tf, i, t, -q)
                clear = clear and not row[t]
        column = [(i, d[i][t]) for i in range(t, m) if d[i][t]]
        for j in range(t + 1, n):
            if top[j]:
                q = (2 * top[j] + p) // (2 * p)
                for i, x in column:
                    d[i][j] -= q * x
                _record(col_tf, j, t, -q)
                clear = clear and not top[j]
        if not clear:
            continue
        if chain and p != 1:
            offender = next((i for i in range(t + 1, m)
                             if any(x % p for x in d[i][t + 1:])), None)
            if offender is not None:
                for c, x in enumerate(d[offender]):
                    top[c] += x
                _record(row_tf, t, offender, 1)
                continue
        t += 1
    return t


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form U * A * V = D with all four transforms.

    One run of the pivot loop with both transforms and the divisibility
    chain; solving needs V as well as U.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.data]
    row_tf, col_tf = _identity_lines(m), _identity_lines(n)
    _reduce(d, n, row_tf, col_tf, chain=True)
    (u, uinv_t), (v_t, vinv) = row_tf, col_tf
    return SmithDecomposition(
        U=_wrap(m, m, tuple(u)),
        D=IntMatrix(m, n, d),
        V=_wrap(n, n, tuple(v_t)).transpose(),
        U_inv=_wrap(m, m, tuple(uinv_t)).transpose(),
        V_inv=_wrap(n, n, tuple(vinv)),
    )


class CokernelPresentation(namedtuple("CokernelPresentation", "projection section torsion")):
    """coker(A) = Z^m / im(A) presented by a free projection plus torsion.

    projection : (m - r) x m IntMatrix, restriction of a unimodular map; kills im(A).
    section    : m x (m - r) IntMatrix, with projection * section = identity.
    torsion    : tuple of the invariant factors > 1 of the torsion part.
    """

    __slots__ = ()


def cokernel_projection(a: IntMatrix) -> CokernelPresentation:
    """Free part and torsion of coker(A) from row operations alone.

    _pivot_rows records every row operation on the sparse rows of U and the
    sparse columns of U_inv. With U * A * V = D, a row of U * A that is zero
    stays zero whatever V is, so the rows of U that are not pivot rows
    project onto the free part, and the matching columns of U_inv are a
    section; the invariant factors give the torsion.
    """
    m = a.rows
    u, u_inv = record = _identity_lines(m)
    pivots, factors = _pivot_rows(a.sparse_rows(), record)
    free = sorted(set(range(m)) - set(pivots))
    return CokernelPresentation(
        projection=_wrap(len(free), m, tuple(u[i] for i in free)),
        section=_wrap(len(free), m, tuple(u_inv[i] for i in free)).transpose(),
        torsion=tuple(x for x in factors if x > 1))


def solve_exact(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Solve A X = B over the integers; raises ValueError when unsolvable."""
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve_exact")
    snf = smith_normal_form(a)
    r = snf.rank
    ub = snf.U * b
    y = [[0] * b.cols for _ in range(a.cols)]
    for i in range(r):
        di = snf.D[i, i]
        for j in range(b.cols):
            q, rem = divmod(ub[i, j], di)
            if rem:
                raise ValueError(f"no integer solution: entry ({i},{j}) not divisible by {di}")
            y[i][j] = q
    for i in range(r, a.rows):
        for j in range(b.cols):
            if ub[i, j]:
                raise ValueError("no solution: right-hand side outside the column span")
    return snf.V * IntMatrix(a.cols, b.cols, y)


class HomologyGroup(namedtuple("HomologyGroup", "betti torsion")):
    """A finitely generated abelian group Z^betti + sum of Z/d for d in torsion."""

    __slots__ = ()

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


class FreeChainComplex:
    """A bounded chain complex of free Z-modules, degrees 0..top.

    ranks[n] is the rank of C_n; sparse[n - 1] (1 <= n <= top) holds
    d_n : C_n -> C_{n-1} as ranks[n - 1] sparse rows {column: non-zero
    entry}. The constructor checks shapes and d . d = 0; boundary(n) and
    boundaries give dense matrices.
    """

    def __init__(self, ranks: Sequence[int], sparse: Sequence[Sequence[dict]]):
        self.ranks = tuple(int(r) for r in ranks)
        self.sparse = tuple(tuple(rows) for rows in sparse)
        if len(self.sparse) != max(len(self.ranks) - 1, 0):
            raise ValueError("need exactly one boundary map per positive degree")
        for n, rows in enumerate(self.sparse, start=1):
            if len(rows) != self.ranks[n - 1]:
                raise ValueError(f"d_{n} has {len(rows)} rows, expected {self.ranks[n-1]}")
            if any(not 0 <= j < self.ranks[n] for row in rows for j in row):
                raise ValueError(f"d_{n} has a column outside range({self.ranks[n]})")
        for n in range(1, len(self.sparse)):
            right = self.sparse[n]
            for row in self.sparse[n - 1]:
                out = {}
                for k, a in row.items():
                    for j, b in right[k].items():
                        out[j] = out.get(j, 0) + a * b
                if any(out.values()):
                    raise ValueError(f"d_{n} . d_{n+1} != 0")

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def truncate(self, top: int) -> FreeChainComplex:
        """Degrees 0..top of this complex; a slice of a checked complex is not checked again."""
        if top >= self.top:
            return self
        cut = object.__new__(FreeChainComplex)
        cut.ranks, cut.sparse = self.ranks[:top + 1], self.sparse[:top]
        return cut

    def boundary(self, n: int) -> IntMatrix:
        """d_n for 0 <= n <= top; d_0 is the zero map into the zero module."""
        if n == 0:
            return IntMatrix.zeros(0, self.ranks[0])
        return IntMatrix.from_sparse(self.sparse[n - 1], self.ranks[n])

    @property
    def boundaries(self) -> tuple:
        """d_1 .. d_top as dense matrices."""
        return tuple(self.boundary(n) for n in range(1, self.top + 1))


def cell_complex(cells: Sequence, sizes: Sequence[Sequence[int]], faces) -> FreeChainComplex:
    """The normalized complex free on the hashable cells[n] of ranks sizes[n], by assemble_blocks.

    faces(n) yields (w, p, matrix, sign) for each face w of the n-cell at
    position p. A w that is not an (n-1)-cell is degenerate, zero in the
    normalized complex, and is dropped: the one statement of that rule.
    """
    boundaries = []
    for n in range(1, len(cells)):
        row = {w: p for p, w in enumerate(cells[n - 1])}
        boundaries.append(assemble_blocks(sizes[n - 1], sizes[n], [
            (r, p, m, sign) for w, p, m, sign in faces(n) if (r := row.get(w)) is not None]))
    return FreeChainComplex([sum(level) for level in sizes], boundaries)


def _unit_pivots(rows: list, record=None) -> list:
    """Eliminate unit pivots from sparse rows in place; return the pivot rows.

    Rows are visited in order, pass after pass, until none holds a +-1. A
    row's unit pivot is taken in its column with the fewest rows on record
    (then the least index); row operations clear that column, and the
    pivot's row and column are dropped, since column operations would clear
    the rest of the row without touching any other row. Every pivot adds 1
    to the rank and the invariant factor 1. The record of rows per column
    may keep rows that have since lost their entry there.

    record, if given, is a transform pair (U, U_inv transposed) of sparse
    lines (see _record), on which each row operation row k -= q * row i is
    recorded, so U * A is the matrix of the rows, each pivot row as it
    stood when it was taken.
    """
    where = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    pivots = []
    found = True
    while found:
        found = False
        for i, row in enumerate(rows):
            units = [j for j, x in row.items() if x in (1, -1)]
            if not units:
                continue
            j = min(units, key=lambda c: (len(where[c]), c))
            for k in where.pop(j):
                target = rows[k]
                if k == i or j not in target:
                    continue
                q = target[j] * row[j]
                for c, x in row.items():
                    y = target.get(c, 0) - q * x
                    if y:
                        target[c] = y
                        where[c].add(k)
                    else:
                        del target[c]
                _record(record, k, i, -q)
            rows[i] = {}
            pivots.append(i)
            found = True
    return pivots


def _add_sparse(target: dict, row: dict, q: int) -> None:
    """target += q * row on sparse rows, dropping entries that cancel."""
    for c, x in row.items():
        y = target.get(c, 0) + q * x
        if y:
            target[c] = y
        else:
            del target[c]


def _smith_factors(diagonal: list) -> list:
    """Invariant factors of a diagonal matrix, by pairwise gcd and lcm.

    Z/a + Z/b is Z/gcd + Z/lcm, so after position i has met every later one
    it divides all of them. Units are set aside first: a unit divides
    everything, and the pass is quadratic.
    """
    f = sorted(x for x in diagonal if x != 1)
    for i in range(len(f)):
        for k in range(i + 1, len(f)):
            g = gcd(f[i], f[k])
            f[i], f[k] = g, f[i] * f[k] // g
    return [1] * (len(diagonal) - len(f)) + f


def _pivot_rows(rows: list, record=None):
    """The one elimination kernel: pivot rows and invariant factors of sparse rows.

    Unit pivots go first, on rows in place. Only the rows they leave form a
    dense residual for the pivot loop, which records its row operations on
    their lines of record (see _unit_pivots). Returns the rows of U * A that
    hold a pivot, unit pivots first, and the residual's invariant factors.
    """
    pivots = _unit_pivots(rows, record)
    left = [i for i, row in enumerate(rows) if row]
    if not left:
        return pivots, []
    columns = sorted({j for i in left for j in rows[i]})
    residual = [[rows[i].get(j, 0) for j in columns] for i in left]
    lines = None if record is None else tuple([t[i] for i in left] for t in record)
    r = _reduce(residual, len(columns), lines)
    if record is not None:
        for t, new in zip(record, lines):
            for i, line in zip(left, new):
                t[i] = line
    return pivots + left[:r], _smith_factors([residual[k][k] for k in range(r)])


def _eliminate(maps: Sequence[Sequence[dict]]):
    """Rank and torsion invariant factors of each map, by _pivot_rows on a copy of its rows.

    Both lists start with the zero map, so entry n + 1 belongs to maps[n].
    """
    ranks, torsion = [0], [()]
    for m in maps:
        pivots, factors = _pivot_rows([dict(row) for row in m])
        ranks.append(len(pivots))
        torsion.append(tuple(x for x in factors if x > 1))
    return ranks, torsion


def homology_of_complex(cx: FreeChainComplex) -> tuple:
    """Homology groups in degrees 0 .. top-1.

    The top degree is not reported: computing H_top honestly would need
    d_{top+1}, which a truncated complex does not carry. With rk the rank
    of a map, H_n = Z^(c_n - rk d_n - rk d_{n+1}) (+) torsion(d_{n+1}).
    """
    rk, torsion = _eliminate(cx.sparse)
    return tuple(HomologyGroup(cx.ranks[n] - rk[n] - rk[n + 1], torsion[n + 1])
                 for n in range(cx.top))


def cohomology_of_complex(cx: FreeChainComplex) -> tuple:
    """Cohomology of the dual of cx, Hom(cx, Z), in degrees 0 .. top-1.

    The coboundary d^k is the transpose of d_{k+1}, and transposing changes
    neither the rank nor the invariant factors, so the eliminations of
    homology serve: H^k = Z^(c_k - rk d_k - rk d_{k+1}) (+) torsion(d_k).
    """
    rk, torsion = _eliminate(cx.sparse)
    return tuple(HomologyGroup(cx.ranks[k] - rk[k] - rk[k + 1], torsion[k])
                 for k in range(cx.top))


def cohomology_of_cochain(ranks: Sequence[int], deltas: Sequence[IntMatrix]) -> tuple:
    """Cohomology of a cochain complex C^0 -> C^1 -> ... -> C^top.

    deltas[k] is d^k : C^k -> C^{k+1} for 0 <= k < top. Reports degrees
    0 .. top-1; degree top would need d^top. Each d^k must be a
    ranks[k + 1] x ranks[k] matrix; the transposed maps form a chain
    complex, whose constructor checks d . d = 0.
    """
    for k, (d, r, r_next) in enumerate(zip(deltas, ranks, ranks[1:])):
        if (d.rows, d.cols) != (r_next, r):
            raise ValueError(f"d^{k} has shape {d.rows}x{d.cols}, expected {r_next}x{r}")
    return cohomology_of_complex(
        FreeChainComplex(ranks, [d.transpose().sparse_rows() for d in deltas]))
