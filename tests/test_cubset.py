"""Tests for presented cubical sets, tables, maps, products, and fibers."""

import random
import re
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cubehom import cubset
from cubehom.boxcat import CubeMorphism, face, degeneracy, hom_set, identity
from cubehom.cubset import (
    Cube,
    CubicalMap,
    PresentedCubicalSet,
    SemiCubicalSet,
    epi_from_wire,
    epi_wire,
    product,
    pullback_fiber,
    standard_cube,
    universal_from_semicubical,
)

import helpers
from helpers import apply_morphism, apply_to_cube, epi_mono_factorize


def hom_count(m, n):
    return sum(comb(m, k) * comb(n, k) * 2 ** (n - k) for k in range(min(m, n) + 1))


def cube_count(X, n):
    """The n-cubes of a presented set: comb(n, k) per k-dimensional generator, one per deletion."""
    return sum(comb(n, k) for k in X.generators.values())


PRESENTED = {
    "point": helpers.point, "interval": helpers.interval, "circle": helpers.circle,
    "torus": helpers.torus, "twisted_square": helpers.twisted_square,
    "squashed_square": helpers.squashed_square,
    "wedge": lambda: universal_from_semicubical(helpers.wedge_semi()),
    **{f"cube{d}": lambda d=d: standard_cube(d) for d in range(5)},
}


def assert_same_table(table, ref):
    """Field by field: keys, each element's (gen, tokens, dim), flags and every column."""
    assert table.top == ref.top
    assert table.keys == ref.keys
    assert [[(c.gen, c.epi.tokens, c.dim) for c in level] for level in table.elements] == \
        [[(c.gen, c.epi.tokens, c.dim) for c in level] for level in ref.elements]
    assert table.degenerate == ref.degenerate
    assert list(table.face.items()) == list(ref.face.items())
    assert list(table.degen_map.items()) == list(ref.degen_map.items())


class TestStandardCube:
    def test_generator_counts(self):
        for n in range(4):
            X = standard_cube(n)
            assert len(X.generators) == 3 ** n
            for k in range(n + 1):
                assert sum(1 for d in X.generators.values() if d == k) \
                    == comb(n, k) * 2 ** (n - k)

    def test_interval_faces(self):
        X = standard_cube(1)
        assert X.face_cube("cx", 1, 0) == Cube("c0", identity(0))
        assert X.face_cube("cx", 1, 1) == Cube("c1", identity(0))

    def test_validate_clean(self):
        for n in range(4):
            assert standard_cube(n).validate() == []

    def test_expansion_counts_match_morphism_counts(self):
        # cubes of I^n in dimension m correspond to morphisms I^m -> I^n
        for n in range(3):
            X = standard_cube(n)
            table = X.expand(3)
            for m in range(4):
                assert table.size(m) == hom_count(m, n)

    def test_square_face_commutation_through_expansion(self):
        assert standard_cube(2).expand(2).validate() == []


class TestExpansion:
    def test_point(self):
        table = helpers.point().expand(3)
        assert [table.size(n) for n in range(4)] == [1, 1, 1, 1]
        assert table.nondegenerate_indices(0) == (0,)
        assert table.nondegenerate_indices(1) == ()

    def test_interval_dim1(self):
        table = helpers.interval().expand(1)
        assert table.size(0) == 2
        assert table.size(1) == 3
        assert sorted(table.keys[1]) == ["a@del:1", "b@del:1", "e@x1"]
        assert len(table.nondegenerate_indices(1)) == 1

    def test_torus_counts(self):
        table = helpers.torus().expand(2)
        assert table.size(0) == 1
        assert table.size(1) == 3
        # t, two degeneracies of each loop, one doubly degenerate vertex
        assert table.size(2) == 1 + 2 * 2 + 1
        assert len(table.nondegenerate_indices(2)) == 1
        assert table.validate() == []

    def test_degenerate_flags_match_epi(self):
        table = helpers.twisted_square().expand(2)
        for n in range(3):
            for idx, c in enumerate(table.elements[n]):
                assert table.degenerate[n][idx] == c.is_degenerate()

    @pytest.mark.parametrize("name", ["circle", "torus", "twisted_square", "squashed_square",
                                      "square", "universal_wedge"])
    def test_tables_follow_apply_morphism(self, name):
        # expand resolves faces and degeneracies by token arithmetic; every
        # entry must be the cube the contravariant action gives
        X = {"circle": helpers.circle, "torus": helpers.torus,
             "twisted_square": helpers.twisted_square,
             "squashed_square": helpers.squashed_square,
             "square": lambda: standard_cube(2),
             "universal_wedge": lambda: universal_from_semicubical(helpers.wedge_semi()),
             }[name]()
        table = X.expand(3)
        for n in range(1, 4):
            for i in range(1, n + 1):
                for eps in (0, 1):
                    assert [table.elements[n - 1][j] for j in table.face[(n, i, eps)]] == \
                        [apply_morphism(X, face(n, i, eps), c) for c in table.elements[n]]
        for m in range(3):
            for i in range(1, m + 2):
                assert [table.elements[m + 1][j] for j in table.degen_map[(m, i)]] == \
                    [apply_morphism(X, degeneracy(m + 1, i), c) for c in table.elements[m]]

    @pytest.mark.parametrize("name, top", [("torus", 5), ("twisted_square", 4),
                                           ("square", 6), ("cube", 4)])
    def test_budget_counts_every_cube(self, name, top, monkeypatch):
        # the budget's up-front count is exact: a budget of the table's own
        # size admits it, one cube less refuses it with the count
        X = {"torus": helpers.torus(), "twisted_square": helpers.twisted_square(),
             "square": standard_cube(2), "cube": standard_cube(3)}[name]
        size = sum(X.expand(top).size(n) for n in range(top + 1))
        monkeypatch.setattr(cubset, "EXPANSION_CUBE_BUDGET", size - 1)
        with pytest.raises(ValueError, match=f"expanding to dimension {top} gives {size} "
                                             f"cubes, more than {size - 1}, the budget"):
            X.expand(top)

    def test_over_budget_refused_up_front(self):
        # I^3 at top 64 would hold 964,600 cubes; I^6 at top 7 holds 34,232
        assert cubset.EXPANSION_CUBE_BUDGET >= 34232
        with pytest.raises(ValueError, match="gives 964600 cubes, more than"):
            standard_cube(3).expand(64)

    @pytest.mark.parametrize("name", sorted(PRESENTED))
    @pytest.mark.parametrize("top", range(6))
    def test_tables_match_reference_expand(self, name, top):
        X = PRESENTED[name]()
        assert_same_table(X.expand(top), helpers.reference_expand(X, top))

    def test_expansions_share_no_lists(self):
        # tables may share the plan's tuples and deletion maps, never a list or dict
        X = helpers.squashed_square()
        first, second = X.expand(3), X.expand(3)
        first.degenerate[2][0] = not first.degenerate[2][0]
        first.keys[1].append("extra")
        first.elements[0].clear()
        first.face[(1, 1, 0)] = ()
        first.degen_map.clear()
        assert_same_table(second, helpers.reference_expand(X, 3))
        assert_same_table(X.expand(3), helpers.reference_expand(X, 3))

    def test_budget_refuses_before_any_plan(self, monkeypatch):
        def no_plan(n, k):
            raise AssertionError(f"deletion plan ({n}, {k}) built for a refused table")

        monkeypatch.setattr(cubset, "_deletion_plan", no_plan)
        with pytest.raises(ValueError, match="gives 964600 cubes, more than"):
            standard_cube(3).expand(64)

    def test_validators_build_no_plan(self, monkeypatch):
        # Generators twelve dimensions above their faces' generator: a plan
        # for (23, 12) alone holds comb(23, 12) maps, and single faces must
        # not build one.
        def no_plan(n, k):
            raise AssertionError(f"deletion plan ({n}, {k}) built to validate")

        def cone(g, below, d):
            return {(g, j, b): Cube(below, CubeMorphism(d - 1, 0, ()))
                    for j in range(1, d + 1) for b in (0, 1)}

        monkeypatch.setattr(cubset, "_deletion_plan", no_plan)
        faces = cone("h", "p", 12)
        faces.update({("g", j, b): Cube("h", CubeMorphism(23, 12, tuple(range(1, 13))))
                      for j in range(1, 25) for b in (0, 1)})
        report = PresentedCubicalSet({"p": 0, "h": 12, "g": 24}, faces).validate()
        assert report[0].startswith("face commutation fails on generator 'g' at (i=1, j=14,")
        target = PresentedCubicalSet({"p": 0, "h": 12}, cone("h", "p", 12))
        f = CubicalMap(PresentedCubicalSet({"q": 0, "s": 24}, cone("s", "q", 24)), target,
                       {"q": Cube("p", identity(0)),
                        "s": Cube("h", CubeMorphism(24, 12, tuple(range(1, 13))))})
        assert f.validate()[0] == ("naturality fails on generator 's' at (i=13, eps=0): "
                                   "p@del:" + ",".join(map(str, range(1, 24)))
                                   + " != h@del:" + ",".join(map(str, range(13, 24))))

    def test_validate_catches_tampered_flag(self):
        table = helpers.interval().expand(1)
        idx = table.nondegenerate_indices(1)[0]
        table.degenerate[1][idx] = True
        report = table.validate()
        assert any("degeneracy tag mismatch" in line for line in report)

    def test_validate_catches_tampered_face(self):
        table = helpers.torus().expand(2)
        bad = dict(table.face)
        col = list(bad[(2, 1, 0)])
        col[0] = (col[0] + 1) % table.size(1)
        bad[(2, 1, 0)] = tuple(col)
        table.face = bad
        assert table.validate() != []


class TestApply:
    def test_faces_of_interval_edge(self):
        X = helpers.interval()
        e = Cube("e", identity(1))
        assert apply_morphism(X, face(1, 1, 0), e) == Cube("a", identity(0))
        assert apply_morphism(X, face(1, 1, 1), e) == Cube("b", identity(0))

    def test_degeneracy_of_vertex(self):
        X = helpers.interval()
        a = Cube("a", identity(0))
        sa = apply_morphism(X, degeneracy(1, 1), a)
        assert sa == Cube("a", CubeMorphism(1, 0, ()))
        assert sa.is_degenerate()

    def test_face_through_degenerate_assignment(self):
        # the squashed square has degenerate direction-2 faces
        X = helpers.squashed_square()
        q = Cube("q", identity(2))
        top = apply_morphism(X, face(2, 2, 1), q)
        assert top == Cube("v", CubeMorphism(1, 0, ()))
        side = apply_morphism(X, face(2, 1, 0), q)
        assert side == Cube("e", identity(1))

    def test_vertex_of_square_via_composite(self):
        X = helpers.twisted_square()
        q = Cube("q", identity(2))
        corner = face(1, 1, 0).compose(CubeMorphism(0, 0, ()))
        assert corner.src_dim == 0
        got = apply_morphism(X, face(2, 1, 0).compose(face(1, 1, 0)), q)
        assert got == Cube("v", identity(0))

    def test_dimension_mismatch_raises(self):
        X = helpers.interval()
        with pytest.raises(ValueError):
            apply_morphism(X, face(2, 1, 0), Cube("e", identity(1)))

    def test_unknown_generator_raises(self):
        X = helpers.interval()
        with pytest.raises(ValueError):
            apply_morphism(X, identity(1), Cube("zz", identity(1)))

    def test_respects_composition(self):
        rng = random.Random(7)
        pool = [helpers.interval(), helpers.circle(), helpers.torus(),
                helpers.twisted_square(), helpers.squashed_square(), standard_cube(2)]
        for X in pool:
            table = X.expand(2)
            for _ in range(60):
                n = rng.randrange(3)
                if table.size(n) == 0:
                    continue
                c = rng.choice(table.elements[n])
                p = rng.randrange(3)
                q = rng.randrange(3)
                beta = rng.choice(hom_set(p, n))
                alpha = rng.choice(hom_set(q, p))
                assert apply_morphism(X, beta.compose(alpha), c) \
                    == apply_morphism(X, alpha, apply_morphism(X, beta, c))

    def test_face_lookups_resolve_composites(self):
        X = helpers.twisted_square()
        q = Cube("q", identity(2))
        assert apply_morphism(X, face(2, 2, 0), q) == Cube("x", identity(1))
        # composite corner inclusion: two face lookups, q's then x's
        assert apply_morphism(X, face(2, 1, 1).compose(face(1, 1, 0)), q) \
            == Cube("v", identity(0))


# a loop e at the vertex v, which the structural cases alter one entry at a time
LOOP = {"v": 0, "e": 1}
LOOP_FACES = {("e", 1, 0): Cube("v", identity(0)), ("e", 1, 1): Cube("v", identity(0))}


class TestValidateNegatives:
    def test_missing_face_entry(self):
        X = PresentedCubicalSet({"v": 0, "e": 1}, {("e", 1, 0): Cube("v", identity(0))})
        report = X.validate()
        assert any("missing face entry" in line for line in report)

    def test_face_commutation_violation(self):
        X = PresentedCubicalSet(
            {"u": 0, "w": 0, "x": 1, "y": 1, "q": 2},
            {("x", 1, 0): Cube("u", identity(0)),
             ("x", 1, 1): Cube("u", identity(0)),
             ("y", 1, 0): Cube("w", identity(0)),
             ("y", 1, 1): Cube("w", identity(0)),
             ("q", 1, 0): Cube("x", identity(1)),
             ("q", 1, 1): Cube("x", identity(1)),
             ("q", 2, 0): Cube("y", identity(1)),
             ("q", 2, 1): Cube("y", identity(1))},
        )
        report = X.validate()
        assert any("face commutation fails on generator 'q'" in line for line in report)

    def test_commutation_reported_in_generator_order(self):
        # generators listed from the top dimension down: reports follow that order
        I3 = standard_cube(3)
        X = PresentedCubicalSet(dict(reversed(I3.generators.items())), I3.faces)
        X.faces[("cxx0", 1, 0)], X.faces[("cxx0", 2, 0)] = (X.faces[("cxx0", 2, 0)],
                                                            X.faces[("cxx0", 1, 0)])
        report = X.validate()
        assert report == helpers.reference_set_report(X)
        assert {line.split("'")[1] for line in report[:2]} == {"cxxx"}
        assert "'cxx0'" in report[-1]

    def test_bad_generator_name(self):
        X = PresentedCubicalSet({"a b": 0}, {})
        assert any("a b" in line for line in X.validate())

    @pytest.mark.parametrize("gens, faces, report", [
        ({"v": -1}, {}, "generator 'v' has negative dimension -1"),
        (LOOP, {**LOOP_FACES, ("e", 2, 0): Cube("v", identity(0))},
         "unexpected face entry ('e', 2, 0)"),
        (LOOP, {**LOOP_FACES, ("e", 1, 0): Cube("w", identity(0))},
         "face (e,1,0) references unknown generator 'w'"),
        (LOOP, {**LOOP_FACES, ("e", 1, 0): Cube("v", CubeMorphism(0, 1, (0,)))},
         "face (e,1,0) has a malformed deletion map"),
        (LOOP, {**LOOP_FACES, ("e", 1, 0): Cube("e", identity(1))},
         "face (e,1,0) has dimension 1, expected 0"),
    ], ids=["negative-dim", "unexpected-entry", "unknown-generator", "malformed-deletion",
            "wrong-dim"])
    def test_structural_reports(self, gens, faces, report):
        assert PresentedCubicalSet(gens, faces).validate() == [report]

    def test_semicubical_dangling_face(self):
        S = SemiCubicalSet([["v"], ["e"]],
                           {("e", 1, 0): "v", ("e", 1, 1): "nope"})
        assert any("unknown cube" in line for line in S.validate())

    def test_semicubical_clean(self):
        assert helpers.torus_semi().validate() == []
        assert helpers.twisted_square_semi().validate() == []

    def test_semicubical_duplicate_name(self):
        S = SemiCubicalSet([["v", "v"]], {})
        assert any("twice" in line for line in S.validate())


SWAP_SETS = {"torus": helpers.torus, "twisted_square": helpers.twisted_square,
             "squashed_square": helpers.squashed_square,
             "I2": lambda: standard_cube(2), "I3": lambda: standard_cube(3)}
SWAP_MAPS = {"fold_wedge": helpers.fold_wedge,
             "endpoint_inclusion": helpers.endpoint_inclusion,
             "square_to_interval": helpers.square_to_interval,
             "collapse_torus": lambda: helpers.collapse_to_point(helpers.torus()),
             "id_I2": lambda: helpers.identity_map(standard_cube(2)),
             "id_I3": lambda: helpers.identity_map(standard_cube(3)),
             "id_torus": lambda: helpers.identity_map(helpers.torus())}

SWAP_SEMI = {"interval": helpers.interval_semi, "circle": helpers.circle_semi,
             "wedge": helpers.wedge_semi, "torus": helpers.torus_semi,
             "twisted_square": helpers.twisted_square_semi,
             "I2": lambda: helpers.semi_cube(2), "I3": lambda: helpers.semi_cube(3)}


def swap_entries(table, draw, count, dim):
    """Swap count pairs of entries of table whose keys have equal dim(key)."""
    for _ in range(count):
        a = draw(st.sampled_from(sorted(table)))
        b = draw(st.sampled_from(sorted(k for k in table if dim(k) == dim(a))))
        table[a], table[b] = table[b], table[a]


class TestValidatorReports:
    """validate() against the general action's reports, list for list.

    Swaps keep every entry's dimension, so the structural checks pass and
    the reports are face commutation or naturality only.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(SWAP_SETS)), st.data())
    def test_set_reports_match_reference(self, name, data):
        X = SWAP_SETS[name]()
        swap_entries(X.faces, data.draw, data.draw(st.integers(1, 3)),
                     lambda k: X.generators[k[0]])
        assert X.validate() == helpers.reference_set_report(X)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(SWAP_MAPS)), st.data())
    def test_map_reports_match_reference(self, name, data):
        f = SWAP_MAPS[name]()
        swap_entries(f.assignment, data.draw, data.draw(st.integers(1, 2)),
                     f.source.generators.get)
        assert f.validate() == helpers.reference_map_report(f)



class TestSemiCubicalReports:
    """SemiCubicalSet.validate against a walk over its face table, list for list.

    Swaps keep every entry's dimension, so the structural checks pass. The
    fixtures of tests/helpers.py have one vertex or no squares, so only the
    semi-cubical cubes semi_cube(n) can fail to commute.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(SWAP_SEMI)), st.data())
    def test_reports_match_reference(self, name, data):
        S = SWAP_SEMI[name]()
        swap_entries(S.faces, data.draw, data.draw(st.integers(1, 3)),
                     lambda k: S.dim_of(k[0]))
        assert S.validate() == helpers.reference_semi_report(S)


class TestUniversal:
    def test_from_torus(self):
        X = helpers.torus()
        assert X.validate() == []
        assert X.generators == {"v": 0, "a": 1, "b": 1, "t": 2}
        assert X.face_cube("t", 2, 1) == Cube("b", identity(1))

    def test_expansion_of_circle(self):
        table = helpers.circle().expand(2)
        # dim 2: both degeneracies of e plus the doubly degenerate vertex
        assert [table.size(n) for n in range(3)] == [1, 2, 3]
        assert table.validate() == []


class TestCubicalMap:
    def test_collapse_is_valid(self):
        f = helpers.collapse_to_point(standard_cube(1))
        assert f.validate() == []

    def test_fold_is_valid(self):
        assert helpers.fold_wedge().validate() == []
        assert helpers.endpoint_inclusion().validate() == []

    def test_apply_to_degenerate_cube(self):
        f = helpers.fold_wedge()
        c = Cube("e1", CubeMorphism(2, 1, (2,)))
        assert apply_to_cube(f, c) == Cube("e", CubeMorphism(2, 1, (2,)))

    def test_naturality_violation_reported(self):
        X = helpers.interval()
        swap = CubicalMap(X, X, {
            "a": Cube("b", identity(0)),
            "b": Cube("a", identity(0)),
            "e": Cube("e", identity(1)),
        })
        report = swap.validate()
        assert any("naturality fails" in line for line in report)

    def test_missing_assignment_reported(self):
        X = helpers.interval()
        f = CubicalMap(X, X, {"a": Cube("a", identity(0))})
        assert any("no value assigned" in line for line in f.validate())

    @pytest.mark.parametrize("assignment, report", [
        ({"a": Cube("a", identity(0)), "b": Cube("b", identity(0)), "e": Cube("e", identity(1)),
          "z": Cube("a", identity(0))}, "value assigned to unknown generator 'z'"),
        ({"a": Cube("a", identity(0)), "b": Cube("w", identity(0)), "e": Cube("e", identity(1))},
         "value of 'b' references unknown target generator 'w'"),
        ({"a": Cube("a", identity(0)), "b": Cube("b", identity(0)), "e": Cube("a", identity(0))},
         "value of 'e' has dimension 0, expected 1"),
    ], ids=["unknown-source-generator", "unknown-target-generator", "wrong-dim"])
    def test_assignment_reports(self, assignment, report):
        X = helpers.interval()
        assert CubicalMap(X, X, assignment).validate() == [report]

    def test_table_map_commutes_with_faces(self):
        f = helpers.fold_wedge()
        tx = f.source.expand(2)
        ty = f.target.expand(2)
        tm = f.table_map(tx, ty)
        for n in range(1, 3):
            for i in range(1, n + 1):
                for eps in (0, 1):
                    for idx in range(tx.size(n)):
                        assert tm[n - 1][tx.face[(n, i, eps)][idx]] \
                            == ty.face[(n, i, eps)][tm[n][idx]]


PRODUCT_PAIRS = {
    "interval-interval": (helpers.interval(), helpers.interval()),
    "circle-circle": (helpers.circle(), helpers.circle()),
    "point-torus": (helpers.point(), helpers.torus()),
    "I3-I2": (standard_cube(3), standard_cube(2)),
    "torus-squashed": (helpers.torus(), helpers.squashed_square()),
}


class TestProduct:
    @pytest.mark.parametrize("top", range(5))
    @pytest.mark.parametrize("name", sorted(PRODUCT_PAIRS))
    def test_matches_reference(self, name, top):
        A, B = PRODUCT_PAIRS[name]
        got, want = product(A, B, top), helpers.reference_product(A, B, top)
        assert table_parts(got) == table_parts(want)
        assert (list(got.face), list(got.degen_map)) == (list(want.face), list(want.degen_map))

    @pytest.mark.parametrize("name", sorted(PRODUCT_PAIRS))
    def test_budget_counts_every_cube(self, name, monkeypatch):
        # the count is made from the presentations before either factor is
        # expanded, and it is exact: one cube less than the product refuses it
        A, B = PRODUCT_PAIRS[name]
        size = sum(product(A, B, 4).size(n) for n in range(5))
        assert size == sum(cube_count(A, n) * cube_count(B, n) for n in range(5))
        monkeypatch.setattr(cubset, "EXPANSION_CUBE_BUDGET", size - 1)
        with pytest.raises(ValueError, match=f"the product to dimension 4 has {size} "
                                             f"cubes, more than {size - 1}, the budget"):
            product(A, B, 4)

    @pytest.mark.parametrize("name", sorted(PRODUCT_PAIRS))
    def test_counts_match_sums_over_dimensions(self, name, monkeypatch):
        # expand and product count in closed form; with no budget left,
        # each refusal states its count, which is the sum over dimensions
        A, B = PRODUCT_PAIRS[name]
        monkeypatch.setattr(cubset, "EXPANSION_CUBE_BUDGET", -1)
        for top in range(30):
            want = sum(cube_count(A, n) * cube_count(B, n) for n in range(top + 1))
            with pytest.raises(ValueError, match=f"dimension {top} has {want} cubes,"):
                product(A, B, top)
            want = sum(cube_count(A, n) for n in range(top + 1))
            with pytest.raises(ValueError, match=f"dimension {top} gives {want} cubes,"):
                A.expand(top)

    def test_huge_truncation_refused_quickly(self):
        # the circle has n + 1 cubes of dimension n, so the counts at top T
        # are a sum of integers and a sum of squares
        T = 10 ** 8
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"has {(T + 1) * (T + 2) * (2 * T + 3) // 6} cubes"):
            product(helpers.circle(), helpers.circle(), T)
        with pytest.raises(ValueError, match=f"gives {(T + 1) * (T + 2) // 2} cubes"):
            helpers.circle().expand(T)
        assert time.perf_counter() - start < 2.0

    def test_product_over_budget_refused_up_front(self):
        # I^2 x I^2 would hold 72,461,168 cubes at top 64; expand would refuse
        # each factor (52,260 cubes), so this message shows the product's
        # count is made first
        with pytest.raises(ValueError, match="has 72461168 cubes, more than"):
            product(standard_cube(2), standard_cube(2), 64)

    def test_square_as_product_of_intervals(self):
        table = product(standard_cube(1), standard_cube(1), 2)
        assert table.size(0) == 4
        assert table.size(1) == 9
        assert table.size(2) == 16
        assert len(table.nondegenerate_indices(2)) == 2
        assert table.validate() == []

    def test_product_with_point(self):
        X = helpers.torus()
        tx = X.expand(2)
        tp = product(helpers.point(), X, 2)
        for n in range(3):
            assert tp.size(n) == tx.size(n)
            assert tp.degenerate[n] == tx.degenerate[n]
        assert tp.face == tx.face
        assert tp.degen_map == tx.degen_map

    def test_degenerate_iff_shared_deleted_coordinate(self):
        table = product(helpers.circle(), helpers.circle(), 2)
        for n in range(3):
            for idx, (a, b) in enumerate(table.elements[n]):
                da = set(range(1, n + 1)) - set(a.epi.tokens)
                db = set(range(1, n + 1)) - set(b.epi.tokens)
                assert table.degenerate[n][idx] == bool(da & db)
        assert table.validate() == []


FIBER_MAPS = {
    **{f"identity-I{n}": helpers.identity_map(standard_cube(n)) for n in (1, 2, 3)},
    **{f"collapse-I{n}": helpers.collapse_to_point(standard_cube(n)) for n in (1, 2, 3)},
    "projection-I2-I1": helpers.square_to_interval(),
}


def table_parts(t):
    return t.keys, t.elements, t.degenerate, t.face, t.degen_map


def representable_map(phi: CubeMorphism) -> CubicalMap:
    """The map standard_cube(n) -> standard_cube(m) that phi: I^n -> I^m induces.

    The generator c<w> of standard_cube(n) is the injection that w spells;
    it goes to the cube of standard_cube(m) that phi . injection names:
    the generator spelled by the mono part, degenerated along the epi part.
    """
    def injection(w):
        toks, k = [], 0
        for ch in w:
            k += ch == "x"
            toks.append(k if ch == "x" else 0 if ch == "0" else -1)
        return CubeMorphism(k, len(w), toks)

    def named_cube(h):
        epi, mono = epi_mono_factorize(h)
        return Cube("c" + "".join("x" if t >= 1 else "0" if t == 0 else "1"
                                  for t in mono.tokens), epi)

    X, Y = standard_cube(phi.src_dim), standard_cube(phi.dst_dim)
    return CubicalMap(X, Y, {g: named_cube(phi.compose(injection(g[1:])))
                             for g in X.generators})


class TestPullbackFiber:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2).flatmap(lambda n: st.integers(0, 2).flatmap(
        lambda m: st.sampled_from(hom_set(n, m)))), st.integers(0, 2))
    def test_representable_maps_match_reference(self, phi, top):
        # face inclusions, projections and partial collapses between cubes
        f = representable_map(phi)
        assert f.validate() == []
        for n in range(top + 1):
            for y in f.target.expand(top).elements[n]:
                fib = pullback_fiber(f, y, top)
                assert table_parts(fib) == table_parts(helpers.reference_fiber(f, y, top))
                assert fib.validate() == []

    @pytest.mark.parametrize("top", (1, 2, 3))
    @pytest.mark.parametrize("name", sorted(FIBER_MAPS))
    def test_tables_match_reference(self, name, top):
        f = FIBER_MAPS[name]
        assert f.validate() == []
        for n in range(top + 1):
            for y in f.target.expand(top).elements[n]:
                want = table_parts(helpers.reference_fiber(f, y, top))
                assert table_parts(pullback_fiber(f, y, top)) == want

    def test_tables_that_miss_the_cube_refused(self):
        f = helpers.identity_map(standard_cube(2))
        with pytest.raises(ValueError, match="not a cube of the target's table"):
            pullback_fiber(f, Cube("cyy", identity(2)), 2)
        # the target is expanded as far as the cube needs, past top
        y = Cube("cxx", identity(2))
        fib = pullback_fiber(f, y, 1)
        assert table_parts(fib) == table_parts(helpers.reference_fiber(f, y, 1))

    def test_fiber_of_identity_is_representable(self):
        X = standard_cube(2)
        f = CubicalMap(X, X, {g: Cube(g, identity(d)) for g, d in X.generators.items()})
        assert f.validate() == []
        fib = pullback_fiber(f, Cube("cxx", identity(2)), 2)
        for m in range(3):
            assert fib.size(m) == hom_count(m, 2)
        assert fib.validate() == []

    def test_fiber_of_collapse_over_degenerate_edge(self):
        # matches the product of two intervals level by level
        f = helpers.collapse_to_point(standard_cube(1))
        y = Cube("v", CubeMorphism(1, 0, ()))
        fib = pullback_fiber(f, y, 2)
        prod = product(standard_cube(1), standard_cube(1), 2)
        for m in range(3):
            assert fib.size(m) == prod.size(m)
            assert sum(fib.degenerate[m]) == sum(prod.degenerate[m])
        assert fib.validate() == []

    def test_fiber_over_vertex(self):
        f = helpers.collapse_to_point(standard_cube(1))
        fib = pullback_fiber(f, Cube("v", identity(0)), 1)
        # vertex fiber is the interval itself
        assert fib.size(0) == 2
        assert fib.size(1) == 3
        assert fib.validate() == []

    def test_membership_condition(self):
        f = helpers.fold_wedge()
        y = Cube("e", identity(1))
        fib = pullback_fiber(f, y, 1)
        for m in range(2):
            for x, alpha in fib.elements[m]:
                assert apply_to_cube(f, x) == apply_morphism(f.target, alpha, y)


    @pytest.mark.parametrize("name", ["torus", "twisted_square", "squashed_square", "square"])
    def test_batched_y_alpha_is_apply_morphism(self, name):
        # y.alpha for every d-cube at once, each arrow against its general action on each cube;
        # at top 1 the d-cubes of dimension 2 and 3 sit above the truncation
        X = {"torus": helpers.torus(), "twisted_square": helpers.twisted_square(),
             "squashed_square": helpers.squashed_square(), "square": standard_cube(2)}[name]
        ty = X.expand(3)
        for top in (1, 3):
            for d in range(4):
                cube, alphas, _ = cubset._over_cubes(ty, d, list(range(ty.size(d))), top)
                assert len(alphas) == top + 1
                for k, level in enumerate(alphas):
                    for alpha, images in zip(cube.elements[k], level):
                        assert [ty.elements[k][z] for z in images] == [
                            apply_morphism(X, alpha, y) for y in ty.elements[d]]

    def test_representable_count_is_closed_form(self, monkeypatch):
        # with one cube less than the double sum over k <= top and j as the budget, the
        # refusal states the closed-form count, or the j = 0 term when it is the whole count
        for d in range(11):
            for top in range(11):
                want = sum(hom_count(k, d) for k in range(top + 1))
                monkeypatch.setattr(cubset, "EXPANSION_CUBE_BUDGET", want - 1)
                stated = (f"at least {top + 1} * 2^{d}" if (top + 1) << d == want else want)
                with pytest.raises(ValueError, match=re.escape(
                        f"I^{d} to dimension {top} has {stated} cubes, more than {want - 1},")):
                    cubset._representable.__wrapped__(d, top)


class TestTableMap:
    @pytest.mark.parametrize("top", (1, 2, 3, 4))
    @pytest.mark.parametrize("name", sorted(FIBER_MAPS))
    def test_fiber_maps_match_reference(self, name, top):
        f = FIBER_MAPS[name]
        tx = f.source.expand(top)
        for ty in (f.target.expand(top), f.target.expand(top + 1)):
            assert f.table_map(tx, ty) == helpers.reference_table_map(f, tx, ty)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2).flatmap(lambda n: st.integers(0, 2).flatmap(
        lambda m: st.sampled_from(hom_set(n, m)))), st.integers(0, 3))
    def test_representable_maps_match_reference(self, phi, top):
        f = representable_map(phi)
        tx, ty = f.source.expand(top), f.target.expand(top)
        assert f.table_map(tx, ty) == helpers.reference_table_map(f, tx, ty)

    def test_generator_without_value_refused(self):
        f = helpers.fold_wedge()
        del f.assignment["e2"]
        with pytest.raises(ValueError, match="map not defined on generator 'e2'"):
            f.table_map(f.source.expand(1), f.target.expand(1))


class TestKeys:
    def test_round_trip_all_cubes(self):
        for X in (helpers.torus(), helpers.squashed_square(), standard_cube(2)):
            table = X.expand(2)
            for n in range(3):
                for c in table.elements[n]:
                    assert X.cube_from_key(n, c.key()) == c

    def test_word_encoding_accepted(self):
        X = helpers.torus()
        assert X.cube_from_key(2, "a@x2") == Cube("a", CubeMorphism(2, 1, (2,)))
        assert X.cube_from_key(2, "t@x1,x2") == Cube("t", identity(2))
        assert X.cube_from_key(1, "v@del:1") == Cube("v", CubeMorphism(1, 0, ()))

    def test_bad_keys_rejected(self):
        X = helpers.torus()
        with pytest.raises(ValueError):
            X.cube_from_key(1, "a@x9")
        with pytest.raises(ValueError):
            X.cube_from_key(1, "zz@x1")
        with pytest.raises(ValueError):
            X.cube_from_key(2, "a@del:3")
        with pytest.raises(ValueError):
            X.cube_from_key(1, "plain")
        with pytest.raises(ValueError):
            # a face word is not a deletion map
            X.cube_from_key(1, "v@0")

    def test_epi_wire_forms(self):
        assert epi_wire(identity(0)) == ""
        assert epi_wire(identity(2)) == "x1,x2"
        assert epi_wire(CubeMorphism(2, 1, (2,))) == "del:1"
        assert epi_from_wire(2, 1, "del:1") == CubeMorphism(2, 1, (2,))
        assert epi_from_wire(2, 1, "x2") == CubeMorphism(2, 1, (2,))
