import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from cubehom import zlinalg
from cubehom.cubset import Cube, CubeMorphism
from cubehom.zlinalg import (
    CokernelPresentation,
    FreeChainComplex,
    HomologyGroup,
    IntMatrix,
    assemble_blocks,
    cell_complex,
    cohomology_of_cochain,
    cohomology_of_complex,
    cokernel_projection,
    det,
    homology_of_complex,
    smith_normal_form,
    solve_exact,
)


# A Smith reduction that keeps pivoting on the remainders in its pivot's
# own row and column, with floor quotients, grows entries past 70,000 bits
# on this matrix; the gcd of its nine 8x8 minors is 2.
BLOW_UP = IntMatrix.from_rows([
    (0, 0, 1, 0, 6, 3, 0, 2), (-2, -1, 1, 1, -2, 1, 3, -2),
    (2, 6, 1, -2, 0, -1, 3, 1), (0, 6, 3, 6, -2, 0, 3, 6),
    (3, 0, 2, -2, 0, 1, -1, 0), (6, 0, -1, 6, 2, 6, 6, -1),
    (6, 3, 6, 6, 3, -1, -2, -1), (0, 6, -2, 0, 6, 0, -1, 0),
    (3, 0, 2, 3, 3, -1, 0, 0)])


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix(rows, cols, [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


matrix_strategy = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        ).map(lambda rows: IntMatrix(m, n, rows))
    )
)


@st.composite
def dense_lists(draw, rows, cols):
    """A rows x cols list of rows with entries in -4..4 and some rows and columns zero."""
    zero_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
    return [[0 if i in zero_rows or j in zero_cols else draw(st.integers(-4, 4))
             for j in range(cols)] for i in range(rows)]


class TestIntMatrix:
    def test_mul_identity(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        assert IntMatrix.identity(3) * a == a
        assert a * IntMatrix.identity(2) == a

    def test_mul_known(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert a * b == IntMatrix.from_rows([[2, 1], [4, 3]])

    def test_add(self):
        a = IntMatrix.from_rows([[1, -2]])
        b = IntMatrix.from_rows([[3, 5]])
        assert a + b == IntMatrix.from_rows([[4, 3]])

    def test_transpose(self):
        a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert a.transpose() == IntMatrix.from_rows([[1, 4], [2, 5], [3, 6]])
        assert a.transpose().transpose() == a

    def test_shape_checks(self):
        a = IntMatrix.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            a * a
        with pytest.raises(ValueError):
            a + IntMatrix.from_rows([[1], [2]])

    def test_empty_shapes(self):
        z = IntMatrix.zeros(0, 3)
        a = IntMatrix.from_rows([[1], [2], [3]])
        prod = z * a
        assert (prod.rows, prod.cols) == (0, 1)
        zt = z.transpose()
        assert (zt.rows, zt.cols) == (3, 0)
        assert (zt * z).is_zero()

    def test_from_sparse_rejects_column_out_of_range(self):
        for column in (3, -1):
            with pytest.raises(ValueError, match=r"outside range\(3\)"):
                IntMatrix.from_sparse([{0: 1}, {column: 1}], 3)

    def test_from_sparse_drops_zeros(self):
        m = IntMatrix.from_sparse([{0: 0, 2: 5}, {1: 0}], 3)
        dense = IntMatrix.from_rows([[0, 0, 5], [0, 0, 0]])
        assert m.sparse == ({2: 5}, {})
        assert m == dense and hash(m) == hash(dense)

    @settings(deadline=None)
    @given(st.data())
    def test_sparse_matches_dense_reference(self, data):
        m, k, n = (data.draw(st.integers(0, 6)) for _ in range(3))
        a, c = data.draw(dense_lists(m, k)), data.draw(dense_lists(m, k))
        b = data.draw(dense_lists(k, n))
        s = data.draw(st.integers(-3, 3))
        A = IntMatrix(m, k, a)

        def agrees(got, dense, rows, cols):
            assert (got.rows, got.cols) == (rows, cols)
            assert got.data == tuple(map(tuple, dense))
            assert all(0 not in row.values() for row in got.sparse)
            # the same entries, zeros included, with the columns in reverse order
            listed = IntMatrix.from_sparse(
                [dict(reversed(list(enumerate(row)))) for row in dense], cols)
            for other in (IntMatrix(rows, cols, dense), listed):
                assert got == other and hash(got) == hash(other)

        agrees(A, a, m, k)
        agrees(A * IntMatrix(k, n, b),
               [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)],
               m, n)
        agrees(A + IntMatrix(m, k, c),
               [[x + y for x, y in zip(r, q)] for r, q in zip(a, c)], m, k)
        agrees(A.scale(s), [[s * x for x in r] for r in a], m, k)
        agrees(A.transpose(), [[a[i][j] for i in range(m)] for j in range(k)], k, m)


class TestDet:
    def test_small(self):
        assert det(IntMatrix.from_rows([[2]])) == 2
        assert det(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
        assert det(IntMatrix.identity(5)) == 1

    def test_singular(self):
        assert det(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0

    def test_empty(self):
        assert det(IntMatrix(0, 0, [])) == 1

    def test_laplace_cross_check(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n, 6)
            assert det(a) == laplace_det(a)


def submatrix(a, rows, cols):
    """The entries of a in the given rows and columns, in the order given."""
    rows, cols = list(rows), list(cols)
    return IntMatrix(len(rows), len(cols), [[a[i, j] for j in cols] for i in rows])


def laplace_det(a):
    if a.rows == 0:
        return 1
    if a.rows == 1:
        return a[0, 0]
    total = 0
    for j in range(a.cols):
        if a[0, j] == 0:
            continue
        minor = submatrix(a, range(1, a.rows), [c for c in range(a.cols) if c != j])
        total += (-1) ** j * a[0, j] * laplace_det(minor)
    return total


class TestSmith:
    def test_known_2x2(self):
        # gcd of entries is 2; determinant is -8, so the factors are 2 and 4
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        snf = smith_normal_form(a)
        assert snf.invariant_factors() == (2, 4)
        assert snf.U * a * snf.V == snf.D

    def test_transforms_invert(self):
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        snf = smith_normal_form(a)
        assert snf.U * snf.U_inv == IntMatrix.identity(2)
        assert snf.V * snf.V_inv == IntMatrix.identity(2)

    def test_zero_matrix(self):
        snf = smith_normal_form(IntMatrix.zeros(2, 3))
        assert snf.rank == 0
        assert snf.D.is_zero()

    def test_diagonal_already(self):
        a = IntMatrix.from_rows([[6, 0], [0, 4]])
        snf = smith_normal_form(a)
        assert snf.invariant_factors() == (2, 12)

    def test_rectangular(self):
        a = IntMatrix.from_rows([[1, 2, 3]])
        snf = smith_normal_form(a)
        assert snf.invariant_factors() == (1,)

    def test_no_coefficient_blow_up(self):
        snf = smith_normal_form(BLOW_UP)
        assert snf.U * BLOW_UP * snf.V == snf.D
        assert snf.invariant_factors() == (1, 1, 1, 1, 1, 1, 1, 2)
        assert snf.U * snf.U_inv == IntMatrix.identity(9)
        assert snf.V * snf.V_inv == IntMatrix.identity(8)

    @settings(max_examples=150, deadline=None)
    @given(matrix_strategy)
    def test_decomposition_properties(self, a):
        snf = smith_normal_form(a)
        assert snf.U * a * snf.V == snf.D
        assert snf.U * snf.U_inv == IntMatrix.identity(a.rows)
        assert snf.V * snf.V_inv == IntMatrix.identity(a.cols)
        assert abs(det(snf.U)) == 1
        assert abs(det(snf.V)) == 1
        # diagonal, nonnegative, divisibility chain
        for i in range(snf.D.rows):
            for j in range(snf.D.cols):
                if i != j:
                    assert snf.D[i, j] == 0
        diag = [snf.D[i, i] for i in range(min(a.rows, a.cols))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x:
                assert y % x == 0
            else:
                assert y == 0


class TestKernelCokernel:
    def test_cokernel_of_doubling(self):
        pres = cokernel_projection(IntMatrix.from_rows([[2]]))
        assert pres.projection.rows == 0
        assert pres.torsion == (2,)

    def test_cokernel_projection_section(self):
        rng = random.Random(11)
        for _ in range(20):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            pres = cokernel_projection(a)
            free = pres.projection.rows
            assert pres.projection * pres.section == IntMatrix.identity(free)
            assert (pres.projection * a).is_zero()

    def test_cokernel_without_blow_up(self):
        pres = cokernel_projection(BLOW_UP)
        assert pres.torsion == (2,)
        assert pres.projection.rows == 1
        assert (pres.projection * BLOW_UP).is_zero()
        assert pres.projection * pres.section == IntMatrix.identity(1)


@st.composite
def sparse_span(draw):
    """Up to 8 x 10, mostly zero, with units and non-units among the entries,
    so that unit pivots leave a residual on some draws and none on others."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 10))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 1, 2, -2, 3, 4, -6))
    return IntMatrix(m, n, [[draw(entry) for _ in range(n)] for _ in range(m)])


class TestSparseCokernel:
    @settings(max_examples=300, deadline=None)
    @given(sparse_span())
    def test_matches_dense_loop(self, a):
        pres = cokernel_projection(a)
        dense = helpers.dense_cokernel_projection(a)
        free = pres.projection.rows
        assert (pres.projection * a).is_zero()
        assert pres.projection * pres.section == IntMatrix.identity(free)
        assert (pres.projection.cols, pres.section.rows) == (a.rows, a.rows)
        assert pres.torsion == dense.torsion
        assert free == dense.projection.rows

    @settings(max_examples=200, deadline=None)
    @given(sparse_span())
    def test_record_is_a_transform_pair(self, a):
        rows = a.sparse_rows()
        u = [{i: 1} for i in range(a.rows)]
        u_inv = [{i: 1} for i in range(a.rows)]
        pivots = zlinalg._unit_pivots(rows, (u, u_inv))
        U = IntMatrix.from_sparse(u, a.rows)
        assert U * IntMatrix.from_sparse(u_inv, a.rows).transpose() == IntMatrix.identity(a.rows)
        # U * A holds the rows that are left, and each pivot row has a unit
        # in a column that is zero in every row not taken before it
        ua = U * a
        for i in range(a.rows):
            if i not in pivots:
                assert ua.sparse[i] == rows[i]
        for t, i in enumerate(pivots):
            later = [k for k in range(a.rows) if k != i and k not in pivots[:t]]
            assert any(abs(x) == 1 and all(j not in ua.sparse[k] for k in later)
                       for j, x in ua.sparse[i].items())

    def test_unit_span_skips_dense_loop(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense loop reached without a residual")

        monkeypatch.setattr(zlinalg, "_reduce", refuse)
        span = IntMatrix.from_rows([[1, 0, 2], [0, -1, 0], [1, 0, 1], [0, 0, 0]])
        pres = cokernel_projection(span)
        assert pres.projection.rows == 1
        assert pres.torsion == ()
        assert (pres.projection * span).is_zero()

    def test_residual_torsion_and_transforms(self):
        # one unit pivot clears the first column; the residual
        # [[2, 4], [0, 6]] has invariant factors 2 and 6
        span = IntMatrix.from_rows([[1, 2, 0], [-1, 0, 4], [0, 0, 6], [0, 0, 0]])
        pres = cokernel_projection(span)
        assert pres.torsion == (2, 6)
        assert pres.projection.rows == 1
        assert (pres.projection * span).is_zero()
        assert pres.projection * pres.section == IntMatrix.identity(1)


class TestSolve:
    def test_solvable(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        b = IntMatrix.from_rows([[4], [9]])
        x = solve_exact(a, b)
        assert a * x == b

    def test_unsolvable_divisibility(self):
        a = IntMatrix.from_rows([[2]])
        with pytest.raises(ValueError):
            solve_exact(a, IntMatrix.from_rows([[3]]))

    def test_unsolvable_span(self):
        a = IntMatrix.from_rows([[1], [0]])
        with pytest.raises(ValueError):
            solve_exact(a, IntMatrix.from_rows([[0], [1]]))

    def test_random_roundtrip(self):
        rng = random.Random(3)
        for _ in range(30):
            m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 2)
            a = random_matrix(rng, m, n)
            x = random_matrix(rng, n, k, 5)
            sol = solve_exact(a, a * x)
            assert a * sol == a * x


class TestHomology:
    def test_group_formatting(self):
        assert str(HomologyGroup(0, ())) == "0"
        assert str(HomologyGroup(1, ())) == "Z"
        assert str(HomologyGroup(3, ())) == "Z^3"
        assert str(HomologyGroup(1, (2,))) == "Z (+) Z/2"
        assert str(HomologyGroup(0, (2, 6))) == "Z/2 (+) Z/6"

    def test_records_keep_fields_repr_and_hash(self):
        g = HomologyGroup(betti=1, torsion=(2,))
        assert repr(g) == "HomologyGroup(betti=1, torsion=(2,))"
        assert (g.betti, g.torsion) == (1, (2,))
        assert g == HomologyGroup(1, (2,)) and g != HomologyGroup(1, ())
        assert hash(g) == hash(HomologyGroup(1, (2,)))
        c = Cube("e", CubeMorphism(1, 1, (1,)))
        assert repr(c) == "Cube(e@x1, dim 1)" and (c.gen, c.epi.tokens) == ("e", (1,))
        assert c == Cube(gen="e", epi=CubeMorphism(1, 1, (1,))) != Cube("f", c.epi)
        assert {c: 0}[Cube("e", CubeMorphism(1, 1, (1,)))] == 0

    def test_pair_requires_complex(self):
        d_out = IntMatrix.from_rows([[1, 0]])
        d_in = IntMatrix.from_rows([[1], [0]])
        with pytest.raises(ValueError):
            FreeChainComplex([1, 2, 1], [d_out.sparse_rows(), d_in.sparse_rows()])
        with pytest.raises(ValueError):
            cohomology_of_cochain([1, 2, 1], [d_in, d_out])

    def test_circle_complex(self):
        # one vertex, one loop edge: d1 = 0
        cx = FreeChainComplex([1, 1], [[{}]])
        (h0,) = homology_of_complex(cx)
        assert h0 == HomologyGroup(1, ())

    def test_torsion_from_boundary(self):
        # ranks 1, 2, 1 with d2 = (2, -2)^T and d1 = 0:
        # ker d1 = Z^2, im d2 = Z(2,-2), quotient is Z (+) Z/2
        d1 = IntMatrix.zeros(1, 2)
        d2 = IntMatrix.from_rows([[2], [-2]])
        cx = FreeChainComplex([1, 2, 1], [d1.sparse_rows(), d2.sparse_rows()])
        h0, h1 = homology_of_complex(cx)
        assert h0 == HomologyGroup(1, ())
        assert h1 == HomologyGroup(1, (2,))

    def test_top_degree_not_reported(self):
        cx = FreeChainComplex([1, 1], [[{}]])
        assert len(homology_of_complex(cx)) == 1

    def test_unit_cleared_complex_skips_dense_loop(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense loop reached without a residual")

        monkeypatch.setattr(zlinalg, "_reduce", refuse)
        # two triangles glued along an edge: unit pivots clear d_1 and d_2
        d1 = [{0: -1, 1: -1, 3: -1}, {0: 1, 2: -1, 4: -1}, {1: 1, 2: 1}, {3: 1, 4: 1}]
        d2 = [{0: 1, 1: 1}, {0: -1}, {0: 1}, {1: -1}, {1: 1}]
        cx = FreeChainComplex([4, 5, 2], [d1, d2])
        assert homology_of_complex(cx) == (HomologyGroup(1, ()), HomologyGroup(0, ()))

    def test_complex_validates_dd(self):
        d1 = IntMatrix.from_rows([[1]])
        d2 = IntMatrix.from_rows([[1]])
        with pytest.raises(ValueError):
            FreeChainComplex([1, 1, 1], [d1.sparse_rows(), d2.sparse_rows()])

    def test_complex_validates_shapes(self):
        with pytest.raises(ValueError):
            FreeChainComplex([1, 2], [IntMatrix.zeros(2, 2).sparse_rows()])
        with pytest.raises(ValueError, match=r"column outside range\(2\)"):
            FreeChainComplex([1, 2, 1], [[{2: 1}], [{}, {}]])

    def test_complex_validates_dd_on_one_entry(self):
        # Two squares side by side: vertices (0,0), (1,0), (2,0), (0,1),
        # (1,1), (2,1); edges h0..h3 run right, u0..u2 run up.
        ends = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
        d1 = [[0] * 7 for _ in range(6)]
        for e, (a, b) in enumerate(ends):
            d1[a][e], d1[b][e] = -1, 1
        d2 = IntMatrix.from_rows([[1, 0], [0, 1], [-1, 0], [0, -1],
                                  [-1, 0], [1, -1], [0, 1]])
        FreeChainComplex([6, 7, 2], [IntMatrix.from_rows(d1).sparse_rows(), d2.sparse_rows()])
        # h0 is a face of the first square only, so flipping its end at
        # (1,0) makes d_1 . d_2 non-zero at that vertex and that square only.
        d1[1][0] = -1
        assert sum(1 for row in (IntMatrix.from_rows(d1) * d2).data
                   for x in row if x) == 1
        with pytest.raises(ValueError, match=r"d_1 \. d_2 != 0"):
            FreeChainComplex([6, 7, 2],
                             [IntMatrix.from_rows(d1).sparse_rows(), d2.sparse_rows()])

    def test_no_coefficient_blow_up(self):
        assert homology_of_complex(FreeChainComplex([9, 8], [BLOW_UP.sparse_rows()])) == (
            HomologyGroup(1, (2,)),)


class TestCohomology:
    def test_two_term(self):
        # 0 -> Z -2-> Z: H^0 = ker = 0 (degree 1 not reported)
        out = cohomology_of_cochain([1, 1], [IntMatrix.from_rows([[2]])])
        assert out == (HomologyGroup(0, ()),)

    def test_torsion_appears_above_the_map(self):
        # Z -2-> Z -0-> Z: H^0 = 0, H^1 = Z/2
        d0 = IntMatrix.from_rows([[2]])
        d1 = IntMatrix.zeros(1, 1)
        out = cohomology_of_cochain([1, 1, 1], [d0, d1])
        assert out == (HomologyGroup(0, ()), HomologyGroup(0, (2,)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cohomology_of_cochain([1, 2], [IntMatrix.zeros(1, 1)])


def invariant_factors(orders):
    """Invariant factors > 1 of the sum of the cyclic groups Z/k, k in orders.

    Worked out from elementary divisors: the t-th smallest power of each
    prime goes into the t-th smallest factor.
    """
    factors = [1] * len(orders)
    for p in range(2, max(orders, default=1) + 1):
        if any(p % q == 0 for q in range(2, p)):
            continue
        powers = []
        for k in orders:
            e = 1
            while k % (e * p) == 0:
                e *= p
            powers.append(e)
        for t, e in enumerate(sorted(powers)):
            factors[t] *= e
    return tuple(f for f in factors if f > 1)


TOP = 3
# (0, n): a copy of Z in degree n. (k, n) with k >= 1: Z --k--> Z from
# degree n + 1 to degree n.
elementary_piece = st.one_of(
    st.tuples(st.just(0), st.integers(0, TOP)),
    st.tuples(st.integers(1, 12), st.integers(0, TOP - 1)))


class TestEliminationOracle:
    @settings(deadline=None)
    @given(st.lists(elementary_piece, max_size=8), st.integers(0, 2 ** 32))
    def test_direct_sum_of_elementary_pieces(self, pieces, seed):
        # Lay out one basis slot per piece end, write the maps in that basis,
        # then hide the splitting by a random change of basis in every degree.
        slots = [[] for _ in range(TOP + 1)]
        for p, (k, n) in enumerate(pieces):
            slots[n].append((p, "low"))
            if k:
                slots[n + 1].append((p, "high"))
        ranks = [len(level) for level in slots]
        rng = random.Random(seed)
        change = [helpers.random_unimodular(rng, r) for r in ranks]
        maps = []
        for n in range(1, TOP + 1):
            rows = [[0] * ranks[n] for _ in range(ranks[n - 1])]
            for c, (p, end) in enumerate(slots[n]):
                if end == "high":
                    rows[slots[n - 1].index((p, "low"))][c] = pieces[p][0]
            d = IntMatrix(ranks[n - 1], ranks[n], rows)
            maps.append(change[n - 1] * d * helpers.inverse_unimodular(change[n]))

        def free(n):
            return sum(1 for k, m in pieces if k == 0 and m == n)

        def cyclic(n):
            return invariant_factors([k for k, m in pieces if k and m == n])

        homology = tuple(HomologyGroup(free(n), cyclic(n)) for n in range(TOP))
        cx = FreeChainComplex(ranks, [d.sparse_rows() for d in maps])
        assert homology_of_complex(cx) == homology
        cohomology = tuple(HomologyGroup(free(n), cyclic(n - 1) if n else ())
                           for n in range(TOP))
        assert cohomology_of_cochain(ranks, [d.transpose() for d in maps]) == cohomology
        assert cohomology_of_complex(cx) == cohomology


def determinantal_divisors(a):
    """d_k = gcd of all k x k minors of a, for k = 1 .. min(rows, cols)."""
    return [math.gcd(*(det(submatrix(a, r, c))
                       for r in itertools.combinations(range(a.rows), k)
                       for c in itertools.combinations(range(a.cols), k)))
            for k in range(1, min(a.rows, a.cols) + 1)]


@st.composite
def oracle_matrix(draw):
    """Up to 5 x 6, entries in -6..6, some with a zero row or column, and
    some with no unit entry, which leaves the whole matrix to the dense phase."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = st.integers(-6, 6)
    if draw(st.booleans()):
        entries = entries.filter(lambda x: abs(x) != 1)
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    zero_row = draw(st.none() | st.integers(0, m - 1))
    zero_col = draw(st.none() | st.integers(0, n - 1))
    for i, row in enumerate(rows):
        for j in range(n):
            if i == zero_row or j == zero_col:
                row[j] = 0
    return IntMatrix(m, n, rows)


def cokernel_from_minors(a):
    """coker(a) as a group, without any Smith form.

    The rank is the largest k with d_k != 0, and the k-th invariant factor
    is d_k / d_{k-1}.
    """
    divisors = [d for d in determinantal_divisors(a) if d]
    factors = [d // prev for prev, d in zip([1] + divisors, divisors)]
    return HomologyGroup(a.rows - len(divisors), tuple(f for f in factors if f > 1))


class TestDeterminantalOracle:
    @settings(max_examples=200, deadline=None)
    @given(oracle_matrix())
    def test_rank_and_torsion_from_minors(self, a):
        expected = cokernel_from_minors(a)
        cx = FreeChainComplex([a.rows, a.cols], [a.sparse_rows()])
        assert homology_of_complex(cx) == (expected,)

    @settings(max_examples=200, deadline=None)
    @given(oracle_matrix())
    def test_cokernel_projection_from_minors(self, a):
        expected = cokernel_from_minors(a)
        pres = cokernel_projection(a)
        assert pres.torsion == expected.torsion
        assert pres.projection.rows == expected.betti
        assert (pres.projection * a).is_zero()
        assert pres.projection * pres.section == IntMatrix.identity(expected.betti)


@st.composite
def block_list(draw):
    """Block sizes and up to 8 (row_block, col_block, matrix, sign) tuples,
    drawn from a few places so that blocks overlap, some with opposite signs."""
    row_sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    col_sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    blocks = []
    for _ in range(draw(st.integers(0, 8))):
        bi = draw(st.integers(0, len(row_sizes) - 1))
        bj = draw(st.integers(0, len(col_sizes) - 1))
        rows = [[draw(st.integers(-2, 2)) for _ in range(col_sizes[bj])]
                for _ in range(row_sizes[bi])]
        blocks.append((bi, bj, IntMatrix(row_sizes[bi], col_sizes[bj], rows),
                       draw(st.sampled_from((1, -1)))))
        if draw(st.booleans()):
            blocks.append((bi, bj, blocks[-1][2], -blocks[-1][3]))
    return row_sizes, col_sizes, blocks


class TestAssembly:
    def test_assemble_blocks(self):
        blocks = [
            (0, 0, IntMatrix.from_rows([[1]]), 1),
            (1, 1, IntMatrix.from_rows([[2, 3]]), 1),
            (1, 1, IntMatrix.from_rows([[1, 3]]), -1),
        ]
        out = assemble_blocks([1, 1], [1, 2], blocks)
        assert out == [{0: 1}, {1: 1}]
        assert IntMatrix.from_sparse(out, 3) == IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])

    def test_assemble_rejects_bad_block(self):
        with pytest.raises(ValueError):
            assemble_blocks([1], [1], [(0, 0, IntMatrix.zeros(2, 1), 1)])

    @settings(deadline=None)
    @given(block_list())
    def test_assembly_is_the_dense_sum(self, drawn):
        row_sizes, col_sizes, blocks = drawn
        dense = [[0] * sum(col_sizes) for _ in range(sum(row_sizes))]
        for bi, bj, m, sign in blocks:
            for i in range(m.rows):
                for j in range(m.cols):
                    dense[sum(row_sizes[:bi]) + i][sum(col_sizes[:bj]) + j] += sign * m[i, j]
        out = assemble_blocks(row_sizes, col_sizes, blocks)
        assert all(0 not in row.values() for row in out)
        assert [{j: x for j, x in enumerate(row) if x} for row in dense] == out


def faces_from(table):
    """A faces function reading the tuples of each level from a dict {n: [...]}."""
    return lambda n: iter(table[n])


class TestCellComplex:
    def test_a_face_that_is_not_a_cell_is_dropped(self):
        one = IntMatrix.identity(1)
        cx = cell_complex([["a", "b"], ["e"]], [[1, 1], [1]], faces_from(
            {1: [("a", 0, one, -1), ("degenerate", 0, one, 1), ("b", 0, one, 1)]}))
        assert cx.ranks == (2, 1)
        assert cx.sparse == (({0: -1}, {0: 1}),)

    def test_blocks_at_one_place_are_summed_and_cancelled_entries_leave(self):
        # the loop of a circle: both ends of e at v cancel, and two blocks
        # on a rank-2 edge sum to a row that keeps only its non-zero entry
        one = IntMatrix.identity(1)
        loop = cell_complex([["v"], ["e"]], [[1], [1]],
                            faces_from({1: [("v", 0, one, 1), ("v", 0, one, -1)]}))
        assert loop.sparse == (({},),)
        summed = cell_complex([["v"], ["e"]], [[1], [2]], faces_from(
            {1: [("v", 0, IntMatrix.from_rows([[3, 2]]), 1),
                 ("v", 0, IntMatrix.from_rows([[1, 2]]), -1)]}))
        assert summed.sparse == (({0: 2},),)
        assert list(summed.sparse[0][0]) == [0]

    def test_cell_keys_may_be_strings_or_tuples(self):
        # a string of arrows as (start, arrows), as the bar complex keys it;
        # faces name cells by key and columns by position
        one = IntMatrix.identity(1)
        cells = [[("x", ()), ("y", ())], [("x", ("f",)), ("x", ("g",))],
                 [("x", ("f", "h"))]]
        cx = cell_complex(cells, [[1, 1], [1, 1], [1]], faces_from({
            1: [(("y", ()), 0, one, 1), (("x", ()), 0, one, -1),
                (("y", ()), 1, one, 1), (("x", ()), 1, one, -1)],
            2: [(("y", ("h",)), 0, one, 1), (("x", ("g",)), 0, one, -1),
                (("x", ("f",)), 0, one, 1)]}))
        assert cx.ranks == (2, 2, 1)
        assert cx.sparse == (({0: -1, 1: -1}, {0: 1, 1: 1}), ({0: 1}, {0: -1}))
        assert homology_of_complex(cx) == (HomologyGroup(1, ()), HomologyGroup(0, ()))

    def test_one_level_has_no_boundary(self):
        def faces(n):
            raise AssertionError(f"faces({n}) asked of a complex with no boundary")

        cx = cell_complex([["p", "q"]], [[2, 1]], faces)
        assert cx.ranks == (3,)
        assert cx.sparse == ()

    def test_a_block_of_the_wrong_shape_raises(self):
        with pytest.raises(ValueError, match=r"block \(0,0\) has shape 2x1, expected 1x1"):
            cell_complex([["v"], ["e"]], [[1], [1]],
                         faces_from({1: [("v", 0, IntMatrix.zeros(2, 1), 1)]}))
