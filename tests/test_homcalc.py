"""Tests for chain/cochain builders and the homology drivers.

Reference values on the small fixtures were worked out by hand from the
normalized complexes; the twisted square in particular has boundary
2x - 2y out of its square, giving the torsion class.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cubehom import homcalc
from cubehom.catalg import bar_complex, cubical_nerve
from cubehom.coeff import (
    ContravariantSystem,
    check_generator_matrices,
    constant_system,
    direct_image,
    extend_semicubical,
    local_system,
    pullback_system,
    transpose_system,
    validate_functoriality,
)
from cubehom.cubset import Cube, CubeMorphism, product, pullback_fiber, standard_cube
from cubehom.homcalc import (
    cochain_complex,
    cohomology,
    fiber_criterion,
    generator_complex,
    homology,
    normalized_complex,
    normalized_complex_local,
    semicubical_homology,
)
from cubehom.zlinalg import (FreeChainComplex, HomologyGroup, IntMatrix, cell_complex,
                              cohomology_of_complex, homology_of_complex)

import helpers


def groups(*pairs):
    return tuple(HomologyGroup(b, tuple(t)) for b, t in pairs)


def assert_blocks_split(X, rep):
    """Every cube carries a pair (P, S) with P * S the identity."""
    assert [len(level) for level in rep.blocks] == [X.size(n) for n in range(X.top + 1)]
    for level in rep.blocks:
        for p, s in level:
            assert p * s == IntMatrix.identity(p.rows)


class TestNormalized:
    def test_rejects_covariant(self):
        X = helpers.point().expand(1)
        with pytest.raises(ValueError, match="contravariant coefficients"):
            normalized_complex(X, constant_system(X, 1, "covariant"))

    def test_rejects_foreign_base(self):
        X = helpers.point().expand(1)
        Y = helpers.circle().expand(1)
        with pytest.raises(ValueError, match="different table"):
            normalized_complex(Y, constant_system(X, 1))

    def test_point_collapses(self):
        X = helpers.point().expand(2)
        F = constant_system(X, 1)
        for rep in (normalized_complex(X, F), normalized_complex_local(X, F)):
            assert rep.complex.ranks == (1, 0, 0)
            assert_blocks_split(X, rep)

    def test_projection_section_retraction(self):
        X = helpers.torus().expand(2)
        F = constant_system(X, 2)
        for rep in (normalized_complex(X, F), normalized_complex_local(X, F)):
            assert_blocks_split(X, rep)

    def test_local_path_matches_generic_exactly(self):
        rng = random.Random(21)
        X = helpers.twisted_square()
        for F in (constant_system(X.expand(2), 1),
                  helpers.gauge_system(X, 2, 2, rng)):
            a = normalized_complex(F.base, F)
            b = normalized_complex_local(F.base, F)
            assert a.complex.ranks == b.complex.ranks
            assert a.complex.boundaries == b.complex.boundaries

    def test_local_path_requires_unimodular(self):
        G = extend_semicubical(helpers.weighted_torus_system(), 2)
        with pytest.raises(ValueError):
            normalized_complex_local(G.base, G)

    def test_boundary_squares_to_zero(self):
        X = helpers.torus().expand(3)
        rep = normalized_complex(X, constant_system(X, 1))
        for n in range(1, 3):
            assert (rep.complex.boundary(n) * rep.complex.boundary(n + 1)).is_zero()

    def test_elimination_leaves_the_complex_untouched(self):
        # Elimination must work on a copy of the stored rows: the square's
        # normalized complex has unit pivots in d_1 and d_2, which an
        # elimination in place would clear.
        X = standard_cube(2).expand(3)
        cx = normalized_complex_local(X, constant_system(X, 1)).complex
        before = [cx.boundary(n) for n in range(cx.top + 1)]
        acyclic = groups((1, ()), (0, ()), (0, ()))
        for _ in range(2):
            assert homology_of_complex(cx) == acyclic
            assert cohomology_of_complex(cx) == acyclic
            assert [cx.boundary(n) for n in range(cx.top + 1)] == before

    def test_torsion_in_degenerate_quotient_raises(self):
        X = helpers.point().expand(2)
        F = constant_system(X, 1)
        F.degen = helpers.with_entry(F.degen, (0, 1), 0, IntMatrix.from_rows([[2]]))
        with pytest.raises(ValueError, match="has torsion"):
            normalized_complex(X, F)

    def test_boundary_must_preserve_degenerate_chains(self):
        # d of the degenerate edge on the point becomes 2v, which is not
        # degenerate; the local route must refuse this as well
        X = helpers.point().expand(2)
        F = constant_system(X, 1)
        F.face = helpers.with_entry(F.face, (1, 1, 0), 0, IntMatrix.from_rows([[-1]]))
        for build in (normalized_complex, normalized_complex_local):
            with pytest.raises(ValueError, match="does not preserve degenerate chains"):
                build(X, F)


@lru_cache(maxsize=None)
def reference_table(kind, key):
    """A table of the local reference test: a set fixture, a fiber or a nerve."""
    if kind == "set":
        return GENERATOR_SETS[key].expand(3)
    if kind == "fiber":
        d, n, idx = key
        f = helpers.identity_map(standard_cube(d))
        return pullback_fiber(f, f.target.expand(3).elements[n][idx], 3)
    name, top = key
    return cubical_nerve(helpers.NERVE_FIXTURES[name](), top)


def build_outcome(build, X, F):
    """The ranks, boundaries and pairs that build gives, or the message it refuses with."""
    try:
        rep = build(X, F)
    except ValueError as e:
        return str(e)
    return rep.complex.ranks, rep.complex.sparse, rep.blocks


class TestLocalReference:
    """The local builder against helpers.reference_normalize_local, the per-cube walk."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_cube_walk(self, data):
        kind = data.draw(st.sampled_from(["set", "fiber", "nerve"]))
        if kind == "set":
            key = data.draw(st.integers(0, len(GENERATOR_SETS) - 1))
        elif kind == "fiber":
            d = data.draw(st.integers(2, 3))
            target = standard_cube(d).expand(3)
            n = data.draw(st.integers(0, 3))
            key = d, n, data.draw(st.integers(0, target.size(n) - 1))
        else:
            key = (data.draw(st.sampled_from(sorted(helpers.NERVE_FIXTURES))),
                   data.draw(st.integers(2, 3)))
        X = reference_table(kind, key)
        variance = data.draw(st.sampled_from(["contravariant", "covariant"]))
        rank = data.draw(st.integers(1, 2))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        system = data.draw(st.sampled_from(["constant", "gauge"]))
        if system == "constant":
            F = constant_system(X, rank, variance)
        elif kind == "set":
            F = helpers.gauge_system(GENERATOR_SETS[key], 3, rank, rng, variance)
            X = F.base
        else:
            F = helpers.uniform_local_covariant(X, helpers.random_unimodular(rng, rank))
            if variance == "contravariant":
                F = transpose_system(F)
        if variance == "contravariant":
            got = build_outcome(normalized_complex_local, X, F)
        else:
            cx = cochain_complex(X, F).complex
            got, F = (cx.ranks, cx.sparse), transpose_system(F)
        want = build_outcome(helpers.reference_normalize_local, X, F)
        assert not isinstance(want, str), want
        assert got == want[:len(got)]

    @pytest.mark.parametrize("columns", ["face", "degen"])
    @pytest.mark.parametrize("name", ["torus", "I^2"])
    def test_corrupt_entry_refused_alike(self, name, columns):
        # every entry of every face or degeneracy column of a rank-1
        # constant system, set in turn to -1, 2 and 0: a new object in a
        # column whose other entries are all the one identity
        X = {"torus": helpers.torus, "I^2": lambda: standard_cube(2)}[name]().expand(3)
        refused = accepted = 0

        def local(X, F):
            return normalized_complex_local(X, F, checked=True)

        for op, col in getattr(constant_system(X, 1), columns).items():
            for idx in range(len(col)):
                for value in (-1, 2, 0):
                    F = constant_system(X, 1)
                    setattr(F, columns, helpers.with_entry(
                        getattr(F, columns), op, idx, IntMatrix.from_rows([[value]])))
                    got = build_outcome(local, X, F)
                    assert got == build_outcome(helpers.reference_normalize_local, X, F), \
                        (op, idx, value)
                    refused += isinstance(got, str)
                    accepted += not isinstance(got, str)
        assert accepted
        if columns == "face":
            assert refused

    def test_identity_cache_sees_a_new_object(self):
        # the guard at s_1 x is tested for the shared identity first; one
        # new matrix among them has its own id and is tested on its own
        X = standard_cube(2).expand(3)
        x = X.nondegenerate_indices(1)[:2]
        z = [X.degen_map[(1, 1)][e] for e in x]
        refusal = "boundary does not preserve degenerate chains at dimension 2"
        for value, refused in (([[-1]], True), ([[1]], False)):
            F = constant_system(X, 1)
            F.face = helpers.with_entry(F.face, (2, 1, 0), z[0], IntMatrix.from_rows(value))
            col = F.face[(2, 1, 0)]
            assert all(m is col[-1] for m in col[:z[0]] + col[z[0] + 1:])
            assert col[z[0]] is not col[-1]
            got = build_outcome(normalized_complex_local, X, F)
            assert got == build_outcome(helpers.reference_normalize_local, X, F)
            assert (got == refusal) == refused
        # one new face object at both s_1 x, and a zero degeneracy at one of
        # the two x: the guard holds there, and a triple with another
        # degeneracy object is tested again, whichever x comes first
        bad = IntMatrix.from_rows([[-1]])
        for k in (0, 1):
            F = constant_system(X, 1)
            F.face = helpers.with_entry(helpers.with_entry(F.face, (2, 1, 0), z[0], bad),
                                        (2, 1, 0), z[1], bad)
            F.degen = helpers.with_entry(F.degen, (1, 1), x[k], IntMatrix.from_rows([[0]]))
            got = build_outcome(lambda X, F: normalized_complex_local(X, F, checked=True), X, F)
            assert got == build_outcome(helpers.reference_normalize_local, X, F) == refusal


GENERIC_MAPS = {"fold_wedge": helpers.fold_wedge, "endpoint_inclusion": helpers.endpoint_inclusion,
                "collapse_torus": lambda: helpers.collapse_to_point(helpers.torus()),
                "collapse_interval": lambda: helpers.collapse_to_point(helpers.interval()),
                "identity_twisted_square": lambda: helpers.identity_map(helpers.twisted_square()),
                "square_to_interval": helpers.square_to_interval}


class TestGenericReference:
    """The generic builder against helpers.reference_normalize, the per-cube walk."""

    @pytest.mark.parametrize("name, rank", [(name, rank) for name in GENERIC_MAPS
                                            for rank in (1, 2)] + [("extension", 0)])
    def test_matches_per_cube_walk(self, name, rank):
        # direct images are the systems only the generic route takes; each
        # is built as it stands, then with every face entry doubled and with
        # every degeneracy entry set to zero or doubled, one entry at a time,
        # which reaches the degenerate-chain guard and the torsion refusal
        if name == "extension":
            F = extend_semicubical(helpers.weighted_torus_system(), 2)
        else:
            f = GENERIC_MAPS[name]()
            F = direct_image(f, helpers.gauge_system(f.source, 3, rank, random.Random(rank)))
        variants = [F]
        for op, col in F.face.items():
            variants += [ContravariantSystem(F.base, F.ranks, helpers.with_entry(
                F.face, op, idx, m + m), F.degen) for idx, m in enumerate(col)]
        for op, col in F.degen.items():
            variants += [ContravariantSystem(F.base, F.ranks, F.face, helpers.with_entry(
                F.degen, op, idx, value)) for idx, m in enumerate(col)
                for value in (IntMatrix.zeros(m.rows, m.cols), m + m)]
        outcomes = []
        for G in variants:
            got = build_outcome(normalized_complex, G.base, G)
            assert got == build_outcome(helpers.reference_normalize, G.base, G)
            outcomes.append(got)
        assert not isinstance(outcomes[0], str), outcomes[0]
        refusals = [o for o in outcomes if isinstance(o, str)]
        assert any("has torsion" in o for o in refusals)
        assert any("does not preserve degenerate chains" in o for o in refusals)


class TestHomologyOracles:
    def test_point(self):
        X = helpers.point().expand(3)
        assert homology(X, constant_system(X, 1), 2) == groups((1, ()), (0, ()), (0, ()))

    def test_standard_cubes_acyclic(self):
        for n in range(3):
            X = standard_cube(n).expand(3)
            got = homology(X, constant_system(X, 1), 2)
            assert got == groups((1, ()), (0, ()), (0, ()))

    def test_circle(self):
        X = helpers.circle().expand(2)
        assert homology(X, constant_system(X, 1), 1) == groups((1, ()), (1, ()))

    def test_wedge(self):
        from cubehom.cubset import universal_from_semicubical
        X = universal_from_semicubical(helpers.wedge_semi()).expand(2)
        assert homology(X, constant_system(X, 1), 1) == groups((1, ()), (2, ()))

    def test_torus(self):
        X = helpers.torus().expand(3)
        assert homology(X, constant_system(X, 1), 2) \
            == groups((1, ()), (2, ()), (1, ()))

    def test_twisted_square_torsion(self):
        X = helpers.twisted_square().expand(3)
        assert homology(X, constant_system(X, 1), 2) \
            == groups((1, ()), (1, (2,)), (0, ()))

    def test_squashed_square(self):
        X = helpers.squashed_square().expand(3)
        assert homology(X, constant_system(X, 1), 2) \
            == groups((1, ()), (1, ()), (1, ()))

    def test_monodromy_circle(self):
        F = helpers.monodromy_circle(top=2)
        assert homology(F.base, F, 1) == groups((0, (2,)), (0, ()))

    def test_rank_two_constant_scales_betti(self):
        X = helpers.circle().expand(2)
        assert homology(X, constant_system(X, 2), 1) == groups((2, ()), (2, ()))

    def test_product_of_intervals_anomaly(self):
        # the tabulated product of two intervals is not acyclic
        P = product(standard_cube(1), standard_cube(1), 3)
        assert homology(P, constant_system(P, 1), 2) \
            == groups((1, ()), (1, ()), (1, ()))

    def test_gauge_systems_look_constant(self):
        # a telescoping local system is isomorphic to the constant one
        rng = random.Random(22)
        X = helpers.torus()
        F = helpers.gauge_system(X, 3, 1, rng)
        assert homology(F.base, F, 2) == groups((1, ()), (2, ()), (1, ()))


def rational_rank(rows, cols):
    """Rank over Q of sparse rows {column: entry}, by Gaussian elimination."""
    dense = [[Fraction(row.get(j, 0)) for j in range(cols)] for row in rows]
    rank = 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(dense)) if dense[i][j]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        for i in range(rank + 1, len(dense)):
            q = dense[i][j] / dense[rank][j]
            dense[i] = [x - q * y for x, y in zip(dense[i], dense[rank])]
        rank += 1
    return rank


EULER_FIXTURES = {
    "point": helpers.point,
    "interval": helpers.interval,
    "circle": helpers.circle,
    "torus": helpers.torus,
    "twisted_square": helpers.twisted_square,
    "squashed_square": helpers.squashed_square,
    "I^2": lambda: standard_cube(2),
}


class TestEulerCharacteristic:
    @pytest.mark.parametrize("system", ["constant", "gauge"])
    @pytest.mark.parametrize("name", sorted(EULER_FIXTURES))
    def test_chain_ranks_match_betti_numbers(self, name, system):
        # The complex cut at top T has H_T = ker d_T, so its Euler
        # characteristic is sum_{n<T} (-1)^n b_n + (-1)^T (c_T - rk d_T).
        top = 3
        X = EULER_FIXTURES[name]()
        if system == "constant":
            F = constant_system(X.expand(top), 1)
        else:
            F = helpers.gauge_system(X, top, 2, random.Random(top))
        cx = normalized_complex(F.base, F).complex
        chi = sum((-1) ** n * c for n, c in enumerate(cx.ranks))
        betti = [g.betti for g in homology_of_complex(cx)]
        kernel_top = cx.ranks[top] - rational_rank(cx.sparse[top - 1], cx.ranks[top])
        assert len(betti) == top
        assert chi == sum((-1) ** n * b for n, b in enumerate(betti)) + (-1) ** top * kernel_top


def rank_mod_p(rows, p):
    """Rank over F_p of sparse rows {column: entry}, by elimination on the lowest column."""
    pivots = {}
    for row in rows:
        row = {j: x % p for j, x in row.items() if x % p}
        while row:
            j = min(row)
            if j not in pivots:
                inv = pow(row[j], -1, p)
                pivots[j] = {k: x * inv % p for k, x in row.items()}
                break
            q = row[j]
            for k, x in pivots[j].items():
                y = (row.get(k, 0) - q * x) % p
                if y:
                    row[k] = y
                else:
                    row.pop(k, None)
    return len(pivots)


def mod_p_oracle_complexes():
    """One complex from each builder: the generic and local routes, generators, strings."""
    weighted = extend_semicubical(helpers.weighted_torus_system(), 4)
    twisted, torus = helpers.twisted_square(), helpers.torus()
    rng = random.Random(26)
    gauge = helpers.gauge_system(twisted, 4, 2, rng)
    return {
        "generic weighted torus": normalized_complex(weighted.base, weighted).complex,
        "generic twisted square, gauge": normalized_complex(gauge.base, gauge).complex,
        "local twisted square": normalized_complex_local(
            twisted.expand(4), constant_system(twisted.expand(4), 1)).complex,
        "local twisted square, gauge": normalized_complex_local(gauge.base, gauge).complex,
        "local torus": normalized_complex_local(
            torus.expand(4), constant_system(torus.expand(4), 2)).complex,
        "generators twisted square": generator_complex(
            twisted, dict.fromkeys(twisted.generators, 2),
            helpers.gauge_matrices(twisted, 2, rng), 4),
        "strings Z/2": bar_complex(helpers.cyclic2_monoid(),
                                   helpers.constant_diagram(helpers.cyclic2_monoid()), 7),
        "strings Z/3": bar_complex(helpers.cyclic3_monoid(),
                                   helpers.constant_diagram(helpers.cyclic3_monoid()), 7),
    }


class TestModPOracle:
    """dim H_n(C (x) F_p) against the integer groups, by the universal coefficient theorem.

    Over F_p, H_n has dimension c_n - rk_p d_n - rk_p d_{n+1}, computed on
    the sparse rows with no use of the integer kernel. The theorem gives
    b_n + #{p | t in H_n} + #{p | t in H_{n-1}}.
    """

    def test_rank_mod_p(self):
        rows = [{0: 2, 1: 4}, {0: 3, 1: 6}, {}]
        assert [rank_mod_p(rows, p) for p in (2, 3, 5)] == [1, 1, 1]
        assert rank_mod_p([{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1, 2: 1}], 2) == 2
        assert rank_mod_p([{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1, 2: 1}], 3) == 3

    @pytest.mark.parametrize("p", [2, 3])
    def test_universal_coefficients_mod_p(self, p):
        seen_torsion = set()
        for name, cx in mod_p_oracle_complexes().items():
            integral = homology_of_complex(cx)
            rk = [0] + [rank_mod_p(rows, p) for rows in cx.sparse]
            for n, group in enumerate(integral):
                expected = (group.betti + sum(t % p == 0 for t in group.torsion)
                            + (sum(t % p == 0 for t in integral[n - 1].torsion) if n else 0))
                assert cx.ranks[n] - rk[n] - rk[n + 1] == expected, (name, n)
            seen_torsion |= {name for group in integral for t in group.torsion if t % p == 0}
        # the check is not vacuous: 2-torsion shows on cubes and strings, 3-torsion on strings
        assert seen_torsion == ({"generic twisted square, gauge", "local twisted square",
                                 "local twisted square, gauge", "generators twisted square",
                                 "strings Z/2"} if p == 2 else {"strings Z/3"})


class TestHomologyValidation:
    def test_truncation_enforced(self):
        X = helpers.circle().expand(2)
        with pytest.raises(ValueError):
            homology(X, constant_system(X, 1), 2)

    def test_bad_path_name(self):
        X = helpers.point().expand(1)
        with pytest.raises(ValueError):
            homology(X, constant_system(X, 1), 0, path="fast")

    def test_forced_local_on_scaling_system(self):
        G = extend_semicubical(helpers.weighted_torus_system(), 2)
        with pytest.raises(ValueError):
            homology(G.base, G, 1, path="local")

    def test_generic_path_handles_scaling_system(self):
        G = extend_semicubical(helpers.weighted_torus_system(), 2)
        got = homology(G.base, G, 1, path="generic")
        assert got == groups((1, ()), (2, ()))


class TestCochain:
    def test_circle_constant(self):
        X = helpers.circle().expand(2)
        G = constant_system(X, 1, "covariant")
        assert cohomology(X, G, 1) == groups((1, ()), (1, ()))

    def test_twisted_square_ext_torsion(self):
        X = helpers.twisted_square().expand(3)
        G = constant_system(X, 1, "covariant")
        assert cohomology(X, G, 2) == groups((1, ()), (1, ()), (0, (2,)))

    def test_monodromy_covariant(self):
        G = helpers.monodromy_circle(top=2, variance="covariant")
        assert cohomology(G.base, G, 1) == groups((0, ()), (0, (2,)))

    def test_transpose_of_contravariant_matches(self):
        F = helpers.monodromy_circle(top=2)
        G = transpose_system(F)
        assert cohomology(G.base, G, 1) == groups((0, ()), (0, (2,)))
        # universal coefficients: cohomology of the transposed system has the
        # Betti numbers of homology and the torsion of one degree lower
        rng = random.Random(23)
        for F, d in ((constant_system(helpers.twisted_square().expand(3), 1), 2),
                     (constant_system(helpers.torus().expand(3), 1), 2),
                     (constant_system(helpers.squashed_square().expand(3), 1), 2),
                     (helpers.monodromy_circle(top=3), 2),
                     (extend_semicubical(helpers.weighted_torus_system(), 2), 1),
                     (helpers.gauge_system(helpers.torus(), 3, 2, rng), 2)):
            helpers.assert_universal_coefficients(
                homology(F.base, F, d), cohomology(F.base, transpose_system(F), d))

    def test_normalized_ranks_drop_degenerates(self):
        X = helpers.circle().expand(2)
        rep = cochain_complex(X, constant_system(X, 1, "covariant"))
        assert rep.ranks == [1, 1, 0]

    def test_uniform_system_is_functorial(self):
        u = IntMatrix.from_rows([[1, 1], [0, 1]])
        L = helpers.uniform_local_covariant(helpers.circle().expand(2), u)
        assert validate_functoriality(L) == []

    def test_pullback_to_interval_preserves_cohomology(self):
        # collapsing the interval to the point is invisible to cohomology
        base = helpers.point().expand(3)
        u = IntMatrix.from_rows([[0, 1], [-1, 0]])
        L = helpers.uniform_local_covariant(base, u)
        f = helpers.collapse_to_point(standard_cube(1))
        Lpb = pullback_system(f, L)
        assert cohomology(base, L, 2) == cohomology(Lpb.base, Lpb, 2)

    def test_rejects_contravariant(self):
        X = helpers.point().expand(1)
        with pytest.raises(ValueError):
            cochain_complex(X, constant_system(X, 1))

    def test_torsion_in_degenerate_quotient_raises(self):
        X = helpers.point().expand(2)
        G = constant_system(X, 1, "covariant")
        G.degen = helpers.with_entry(G.degen, (0, 1), 0, IntMatrix.from_rows([[2]]))
        with pytest.raises(ValueError, match="has torsion"):
            cohomology(X, G, 1)

    def test_coboundary_must_preserve_degenerate_chains(self):
        X = helpers.point().expand(2)
        G = constant_system(X, 1, "covariant")
        G.face = helpers.with_entry(G.face, (1, 1, 0), 0, IntMatrix.from_rows([[-1]]))
        with pytest.raises(ValueError, match="does not preserve degenerate chains"):
            cohomology(X, G, 1)


class TestSemiCubical:
    def test_torus_semi(self):
        S = helpers.torus_semi()
        F = helpers.weighted_torus_system()
        ones = {k: IntMatrix.identity(1) for k in F.face}
        from cubehom.coeff import SemiCubicalSystem
        const = SemiCubicalSystem(S, dict.fromkeys(F.ranks, 1), ones)
        assert semicubical_homology(S, const, 1) == groups((1, ()), (2, ()))

    def test_twisted_semi_torsion(self):
        S = helpers.twisted_square_semi()
        from cubehom.coeff import SemiCubicalSystem
        ranks = {x: 1 for level in S.levels for x in level}
        ones = {(x, i, eps): IntMatrix.identity(1)
                for n, level in enumerate(S.levels) if n >= 1
                for x in level for i in range(1, n + 1) for eps in (0, 1)}
        F = SemiCubicalSystem(S, ranks, ones)
        assert semicubical_homology(S, F, 1) == groups((1, ()), (1, (2,)))

    def test_comparison_with_extension(self):
        # adding free degeneracies and normalizing changes nothing
        F = helpers.weighted_torus_system()
        direct = semicubical_homology(F.base, F, 1)
        G = extend_semicubical(F, 2)
        assert direct == homology(G.base, G, 1)

    def test_truncation_enforced(self):
        F = helpers.weighted_torus_system()
        with pytest.raises(ValueError):
            semicubical_homology(F.base, F, 2)


class TestTruncation:
    @staticmethod
    def system(name):
        """A system to degree 4: constant on a fixture, a rank-2 gauge, or a non-local one."""
        if name == "gauge":
            return helpers.gauge_system(helpers.torus(), 4, 2, random.Random(4))
        if name == "weighted":
            return extend_semicubical(helpers.weighted_torus_system(), 4)
        return constant_system(getattr(helpers, name)().expand(4), 1)

    @pytest.mark.parametrize("name", ["torus", "twisted_square", "squashed_square", "circle",
                                      "interval", "gauge", "weighted"])
    def test_truncation_keeps_low_degrees(self, name):
        # a complex cut to top k has the groups of the full one below k,
        # and homology to degree k - 1 reports them too
        F = self.system(name)
        cx = normalized_complex(F.base, F).complex
        full, cofull = homology_of_complex(cx), cohomology_of_complex(cx)
        for k in range(1, cx.top + 1):
            cut = cx.truncate(k)
            assert (cut.ranks, cut.sparse) == (cx.ranks[:k + 1], cx.sparse[:k])
            assert homology_of_complex(cut) == full[:k]
            assert cohomology_of_complex(cut) == cofull[:k]
            assert homology(F.base, F, k - 1) == full[:k]
        assert cx.truncate(cx.top) is cx

    def test_truncation_builds_no_complex(self, monkeypatch):
        # the builder's complex was checked once; its slices are not checked again
        X = helpers.torus().expand(4)
        cx = normalized_complex_local(X, constant_system(X, 1)).complex

        def refuse(*args):
            raise AssertionError("a slice was checked again")

        monkeypatch.setattr(FreeChainComplex, "__init__", refuse)
        assert homology_of_complex(cx.truncate(2)) == homology_of_complex(cx)[:2]


FIBER_MAPS = {
    "id interval": lambda: helpers.identity_map(helpers.interval()),
    "id I^2": lambda: helpers.identity_map(standard_cube(2)),
    "id squashed square": lambda: helpers.identity_map(helpers.squashed_square()),
    "interval to point": lambda: helpers.collapse_to_point(helpers.interval()),
    "I^2 to point": lambda: helpers.collapse_to_point(standard_cube(2)),
    "torus to point": lambda: helpers.collapse_to_point(helpers.torus()),
    "fold wedge": helpers.fold_wedge,
    "square to interval": helpers.square_to_interval,
    "endpoint inclusion": helpers.endpoint_inclusion,
}


class TestFiberCriterion:
    def test_identity_passes(self):
        X = helpers.interval()
        f = helpers.identity_map(X)
        rep = fiber_criterion(f, 1, 2)
        assert rep.passed
        assert all(r.ok for r in rep.rows)

    def test_collapse_fails_at_degenerate_edge(self):
        f = helpers.collapse_to_point(standard_cube(1))
        rep = fiber_criterion(f, 1, 2)
        assert not rep.passed
        by_key = {r.key: r for r in rep.rows}
        assert by_key["v@"].ok
        bad_edge = by_key["v@del:1"]
        assert not bad_edge.ok
        assert bad_edge.groups == groups((1, ()), (1, ()))
        # one dimension up the same anomaly appears with a bigger group
        assert by_key["v@del:1,2"].groups == groups((1, ()), (2, ()))
        failing_1_cubes = [r.key for r in rep.rows if r.dim == 1 and not r.ok]
        assert failing_1_cubes == ["v@del:1"]

    def test_truncation_guard(self):
        f = helpers.identity_map(helpers.point())
        with pytest.raises(ValueError):
            fiber_criterion(f, 2, 2)

    def test_rows_match_fibers_computed_alone(self):
        # each row against the fiber built by the definition, not by the criterion's helpers
        max_dim, top = 1, 3
        for make in FIBER_MAPS.values():
            f = make()
            rep = fiber_criterion(f, max_dim, top)
            ty = f.target.expand(top)
            cubes = [(n, idx) for n in range(top + 1) for idx in range(ty.size(n))]
            assert [(r.dim, r.key) for r in rep.rows] == [(n, ty.key(n, idx)) for n, idx in cubes]
            for row, (n, idx) in zip(rep.rows, cubes):
                fib = helpers.reference_fiber(f, ty.elements[n][idx], top)
                assert row.groups == homology(fib, constant_system(fib, 1), max_dim)

    @pytest.mark.parametrize("name", sorted(FIBER_MAPS))
    def test_blocks_bounded_and_rows_unchanged(self, name, monkeypatch):
        # a budget of one fiber's y.alpha table at dimension top forces blocks of
        # several cubes below it and of one cube at it; no block's table passes it
        f, max_dim, top = FIBER_MAPS[name](), 1, 3
        want = fiber_criterion(f, max_dim, top)
        budget = sum(len(level) for level in homcalc._over_cubes(
            f.target.expand(top), top, [0], top)[1])
        blocks, over_cubes = [], homcalc._over_cubes

        def record(ty, d, cubes, top):
            leg = over_cubes(ty, d, cubes, top)
            blocks.append((d, len(cubes), sum(len(l) * len(l[0]) for l in leg[1])))
            return leg

        monkeypatch.setattr(homcalc, "EXPANSION_CUBE_BUDGET", budget)
        monkeypatch.setattr(homcalc, "_over_cubes", record)
        assert fiber_criterion(f, max_dim, top) == want
        assert all(entries <= budget for _, _, entries in blocks)
        ty = f.target.expand(top)
        assert [sum(m for d, m, _ in blocks if d == n) for n in range(top + 1)] == [
            ty.size(n) for n in range(top + 1)]
        assert [m for d, m, _ in blocks if d == top] == [1] * ty.size(top)


class TestFiberCells:
    """The criterion's fiber complexes against the local builder on the reference fiber table."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_local_complex_of_fiber_table(self, data):
        f = FIBER_MAPS[data.draw(st.sampled_from(sorted(FIBER_MAPS)))]()
        max_dim = data.draw(st.integers(0, 2))
        top = data.draw(st.integers(max_dim + 1, 3))
        ty = f.target.expand(top)
        n = data.draw(st.integers(0, top))
        iy = data.draw(st.integers(0, ty.size(n) - 1))
        built = []

        def keep(*args):
            built.append(cell_complex(*args))
            return built[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homcalc, "cell_complex", keep)
            rep = fiber_criterion(f, max_dim, top)
        # one complex per target cube, in the order of the rows
        got = built[sum(ty.size(m) for m in range(n)) + iy]
        fib = helpers.reference_fiber(f, ty.elements[n][iy], top)
        want = normalized_complex_local(fib, constant_system(fib, 1)).complex
        assert len(built) == len(rep.rows)
        assert (got.ranks, got.sparse) == (want.ranks, want.sparse)


class TestFiberHomologyMatchesProduct:
    def test_collapse_fiber_equals_product(self):
        f = helpers.collapse_to_point(standard_cube(1))
        y = Cube("v", CubeMorphism(1, 0, ()))
        fib = pullback_fiber(f, y, 3)
        P = product(standard_cube(1), standard_cube(1), 3)
        a = homology(fib, constant_system(fib, 1), 2)
        b = homology(P, constant_system(P, 1), 2)
        assert a == b == groups((1, ()), (1, ()), (1, ()))


GENERATOR_SETS = [helpers.point(), helpers.interval(), helpers.circle(), helpers.torus(),
                  helpers.twisted_square(), helpers.squashed_square(), standard_cube(1),
                  standard_cube(2), standard_cube(3)]


class TestGeneratorRoute:
    """Groups of a local system read off the generators against the table route."""

    @staticmethod
    def assert_routes_agree(X, rank, mats, variance, top):
        base = X.expand(top)
        F = local_system(X, base, rank, mats, variance)
        on_generators = check_generator_matrices(X, rank, mats, variance, top)
        compute = homology if variance == "contravariant" else cohomology
        for max_dim in range(top):
            assert compute(X, on_generators, max_dim) == compute(base, F, max_dim)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_table_route(self, data):
        # a gauge system of rank 1 or 2, or rank-1 face matrices of +-1 drawn
        # on their own, kept when the check accepts them: twisted coefficients
        X = data.draw(st.sampled_from(GENERATOR_SETS))
        variance = data.draw(st.sampled_from(["contravariant", "covariant"]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        top = max(X.generators.values()) + data.draw(st.integers(1, 2))
        if data.draw(st.booleans()):
            rank = data.draw(st.integers(1, 2))
            mats = helpers.gauge_matrices(X, rank, rng, variance)
        else:
            rank = 1
            mats = {k: IntMatrix.from_rows([[rng.choice((1, -1))]]) for k in sorted(X.faces)}
            try:
                check_generator_matrices(X, rank, mats, variance, top)
            except ValueError:
                return
        self.assert_routes_agree(X, rank, mats, variance, top)

    @pytest.mark.parametrize("variance", ["contravariant", "covariant"])
    def test_monodromy_circle(self, variance):
        mats = {("e", 1, 0): IntMatrix.from_rows([[1]]), ("e", 1, 1): IntMatrix.from_rows([[-1]])}
        self.assert_routes_agree(helpers.circle(), 1, mats, variance, 3)
        groups_of = homology if variance == "contravariant" else cohomology
        got = groups_of(helpers.circle(), (variance, {"v": 1, "e": 1}, mats), 1)
        assert got == (groups((0, (2,)), (0, ())) if variance == "contravariant"
                       else groups((0, ()), (0, (2,))))
