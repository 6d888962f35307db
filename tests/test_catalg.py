"""Tests for finite categories, string complexes, nerves, and decompositions.

The involution monoid is the main torsion source here: its string complex in
low degrees is the classical periodic resolution, so the expected groups
alternate between Z/2 and 0 depending on the coefficient twist.
"""

import os
import pathlib
import random
import subprocess
import sys
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubehom import catalg, homcalc
from cubehom.catalg import (
    NERVE_LABEL_BUDGET,
    ComparisonReport,
    CubeFunctor,
    FiniteCategory,
    bar_complex,
    bw_cohomology_cubical,
    bw_cohomology_oracle,
    bw_comparison,
    category_cohomology,
    category_homology,
    chain_face,
    composable_chains,
    cubical_nerve,
    factorization_category,
    nerve_vs_bar_comparison,
)
from cubehom.coeff import (
    FiniteDiagram,
    is_local,
    natural_system_via_d,
    system_from_diagram_last_vertex,
    transpose_system,
    validate_functoriality,
)
from cubehom.zlinalg import (HomologyGroup, IntMatrix, cohomology_of_complex,
                             homology_of_complex)

import helpers


def groups(*pairs):
    return tuple(HomologyGroup(b, tuple(t)) for b, t in pairs)


def all_fixture_categories():
    return [helpers.point_category(), helpers.arrow_category(),
            helpers.square_poset(), helpers.cyclic2_monoid()]


class TestFiniteCategory:
    def test_fixtures_validate(self):
        for C in all_fixture_categories():
            assert C.validate() == []

    def test_opposite_flips_endpoints_and_composition(self):
        C = helpers.arrow_category()
        op = C.op()
        assert op.morphisms["0_1"] == ("1", "0")
        assert op.compose("0_1", "1_1") == "0_1"
        assert op.validate() == []

    def test_double_opposite_restores_tables(self):
        C = helpers.square_poset()
        back = C.op().op()
        assert back.morphisms == C.morphisms
        assert back.composition == C.composition

    def test_poset_morphism_order_ignores_hash_seed(self):
        here = pathlib.Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        probe = "import helpers; print(list(helpers.square_poset().morphisms))"
        outputs = set()
        for seed in "01":
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            done = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs

    def test_compose_rejects_noncomposable(self):
        C = helpers.arrow_category()
        with pytest.raises(ValueError, match="not composable"):
            C.compose("0_1", "0_1")

    def test_compose_reports_missing_entry(self):
        C = helpers.arrow_category()
        del C.composition[("1_1", "0_1")]
        with pytest.raises(ValueError, match="no entry"):
            C.compose("1_1", "0_1")

    def test_validate_missing_composite(self):
        C = helpers.arrow_category()
        del C.composition[("1_1", "0_1")]
        assert any("misses" in p for p in C.validate())

    def test_validate_wrong_endpoints(self):
        C = helpers.square_poset()
        C.composition[("01_11", "00_01")] = "00_01"
        assert any("wrong endpoints" in p for p in C.validate())

    def test_validate_identity_law(self):
        C = helpers.cyclic2_monoid()
        C.composition[("e", "g")] = "e"
        assert any("identity law" in p for p in C.validate())

    def test_validate_associativity(self):
        # cyclic monoid of order 3 with one entry redirected; identity laws
        # stay intact but (h g) g != h (g g)
        C = FiniteCategory(
            ["o"],
            {"e": ("o", "o"), "g": ("o", "o"), "h": ("o", "o")},
            {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
             ("e", "h"): "h", ("h", "e"): "h",
             ("g", "g"): "h", ("g", "h"): "e", ("h", "g"): "g",
             ("h", "h"): "g"},
            {"o": "e"})
        assert any("associativity" in p for p in C.validate())


class TestChains:
    def test_chain_counts(self):
        # the un-normalized strings, identities included
        z2 = helpers.cyclic2_monoid()
        assert [len(helpers.reference_chains(z2, n)) for n in range(4)] == [1, 2, 4, 8]
        arrow = helpers.arrow_category()
        assert [len(helpers.reference_chains(arrow, n)) for n in range(4)] == [2, 3, 4, 5]
        assert len(helpers.reference_chains(helpers.square_poset(), 1)) == 9

    def test_normalized_chain_counts(self):
        # strings of non-identity morphisms only: g^n on Z/2, the one arrow,
        # and the order complex of the square poset
        z2 = helpers.cyclic2_monoid()
        assert [len(composable_chains(z2, n)) for n in range(4)] == [1, 1, 1, 1]
        arrow = helpers.arrow_category()
        assert [len(composable_chains(arrow, n)) for n in range(4)] == [2, 1, 0, 0]
        square = helpers.square_poset()
        assert [len(composable_chains(square, n)) for n in range(4)] == [4, 5, 2, 0]
        fc = factorization_category(square)
        assert [len(composable_chains(fc, n)) for n in range(4)] == [9, 16, 8, 0]
        z3 = helpers.cyclic3_monoid()
        assert [len(composable_chains(z3, n)) for n in range(5)] == [1, 2, 4, 8, 16]

    def test_normalized_chains_are_reference_chains_without_identities(self):
        for C in all_fixture_categories() + [helpers.idempotent_monoid()]:
            ids = set(C.identities.values())
            for n in range(4):
                want = [c for c in helpers.reference_chains(C, n) if not ids & set(c[1])]
                assert composable_chains(C, n) == want

    def test_chain_face_ends(self):
        C = helpers.arrow_category()
        chain = ("0", ("0_0", "0_1", "1_1"))
        assert chain_face(C, chain, 0) == ("0", ("0_1", "1_1"))
        assert chain_face(C, chain, 3) == ("0", ("0_0", "0_1"))
        assert chain_face(C, chain, 1) == ("0", ("0_1", "1_1"))
        assert chain_face(C, chain, 2) == ("0", ("0_0", "0_1"))

    def test_chain_face_rejects_bad_index(self):
        C = helpers.point_category()
        with pytest.raises(ValueError):
            chain_face(C, ("pt", ()), 0)
        with pytest.raises(ValueError):
            chain_face(C, ("pt", ("pt_pt",)), 2)

    def test_simplicial_identity_all_chains(self):
        # face i then face j equals face j+1 then face i for i <= j, checked
        # exhaustively on every string of length <= 4
        for C in (helpers.cyclic2_monoid(), helpers.square_poset()):
            for n in (2, 3, 4):
                for chain in helpers.reference_chains(C, n):
                    for j in range(n):
                        for i in range(j + 1):
                            left = chain_face(C, chain_face(C, chain, j + 1), i)
                            right = chain_face(C, chain_face(C, chain, i), j)
                            assert left == right


class TestBar:
    def test_point_ranks_and_homology(self):
        pt = helpers.point_category()
        cx = helpers.reference_bar_complex(pt, helpers.constant_diagram(pt), 3)
        assert cx.ranks == (1, 1, 1, 1)
        assert category_homology(pt, helpers.constant_diagram(pt), 2) == \
            groups((1, ()), (0, ()), (0, ()))

    def test_point_normalized_ranks(self):
        # the identity is the point's only morphism, so only degree 0 is left
        pt = helpers.point_category()
        assert bar_complex(pt, helpers.constant_diagram(pt), 3).ranks == (1, 0, 0, 0)

    def test_involution_ranks_double_each_degree(self):
        z2 = helpers.cyclic2_monoid()
        cx = helpers.reference_bar_complex(z2, helpers.constant_diagram(z2), 4)
        assert cx.ranks == (1, 2, 4, 8, 16)

    def test_involution_one_normalized_string_per_degree(self):
        # one string g g ... g per degree: the periodic resolution of Z/2
        z2 = helpers.cyclic2_monoid()
        cx = bar_complex(z2, helpers.constant_diagram(z2, 2), 4)
        assert cx.ranks == (2, 2, 2, 2, 2)

    def test_involution_trivial_coefficients(self):
        z2 = helpers.cyclic2_monoid()
        got = category_homology(z2, helpers.constant_diagram(z2), 3)
        assert got == groups((1, ()), (0, (2,)), (0, ()), (0, (2,)))

    def test_involution_sign_coefficients(self):
        z2 = helpers.cyclic2_monoid()
        got = category_homology(z2, helpers.sign_diagram(), 2)
        assert got == groups((0, (2,)), (0, ()), (0, (2,)))

    def test_arrow_is_contractible(self):
        arrow = helpers.arrow_category()
        got = category_homology(arrow, helpers.constant_diagram(arrow), 2)
        assert got == groups((1, ()), (0, ()), (0, ()))

    def test_square_poset_is_contractible(self):
        C = helpers.square_poset()
        got = category_homology(C, helpers.constant_diagram(C), 2)
        assert got == groups((1, ()), (0, ()), (0, ()))

    def test_rank_two_doubles_groups(self):
        z2 = helpers.cyclic2_monoid()
        got = category_homology(z2, helpers.constant_diagram(z2, 2), 2)
        assert got == groups((2, ()), (0, (2, 2)), (0, ()))

    def test_negative_degree_rejected(self):
        pt = helpers.point_category()
        with pytest.raises(ValueError):
            category_homology(pt, helpers.constant_diagram(pt), -1)

    def test_non_functorial_diagram_refused_with_its_report(self):
        # the normalized arrow has no string of length 2, so no d . d check
        # could see that [3] [2] != [3]; the diagram itself is checked
        arrow = helpers.arrow_category()
        F = helpers.numbered_diagram(arrow)
        report = "diagram is not functorial: " + "; ".join(F.validate()[:3])
        for compute in (category_homology, category_cohomology):
            with pytest.raises(ValueError) as err:
                compute(arrow, F, 1)
            assert str(err.value) == report


class TestInvolutionPeriodicity:
    """The groups of Z/2 to degree 40, known from its periodic resolution.

    H_n(Z/2; Z) is Z/2 in odd degrees and H^n(Z/2; Z) in even degrees
    above 0; the sign twist moves both by one degree (the periodic resolution
    of a cyclic group, Mac Lane, Homology, 1963, ch. IV). The normalized complex has one string per degree.
    """

    TOP = 40

    @staticmethod
    def pattern(z2_when, first):
        return (first,) + tuple(HomologyGroup(0, (2,) if n % 2 == z2_when else ())
                                for n in range(1, TestInvolutionPeriodicity.TOP + 1))

    def test_homology(self):
        z2 = helpers.cyclic2_monoid()
        assert category_homology(z2, helpers.constant_diagram(z2), self.TOP) == \
            self.pattern(1, HomologyGroup(1, ()))
        assert category_homology(z2, helpers.sign_diagram(), self.TOP) == \
            self.pattern(0, HomologyGroup(0, (2,)))

    def test_cohomology(self):
        z2 = helpers.cyclic2_monoid()
        assert category_cohomology(z2, helpers.constant_diagram(z2), self.TOP) == \
            self.pattern(0, HomologyGroup(1, ()))
        assert category_cohomology(z2, helpers.sign_diagram(), self.TOP) == \
            self.pattern(1, HomologyGroup(0, ()))


def oracle_categories():
    """The fixture categories and Z/3, their opposites, the fixtures' factorization categories.

    Z/3 has 3 * 9^n reference strings of length n in its factorization category,
    past STRING_BUDGET at n = 5, so that one is left out.
    """
    base = all_fixture_categories() + [helpers.idempotent_monoid()]
    monoids = base + [helpers.cyclic3_monoid()]
    return monoids + [C.op() for C in monoids] + [factorization_category(C) for C in base]


class TestNormalizedAgainstReference:
    """The normalized string complex against the un-normalized reference.

    Both compute the same homology and cohomology; the reference keeps every
    string through an identity and every face. Degrees run to 4, where the
    largest reference level (top 5 of the factorization category of Z/2 or
    of the idempotent monoid, 2,048 strings) stays inside STRING_BUDGET.
    """

    CATEGORIES = oracle_categories()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CATEGORIES), st.integers(1, 2), st.integers(0, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_same_groups(self, C, rank, max_dim, seed):
        F = helpers.telescoping_diagram(C, rank, random.Random(seed))
        assert F.validate() == []
        top = max_dim + 1
        assert category_homology(C, F, max_dim) == \
            homology_of_complex(helpers.reference_bar_complex(C, F, top))
        assert category_cohomology(C, F, max_dim) == \
            cohomology_of_complex(helpers.reference_cobar_complex(C, F, top))

    @pytest.mark.parametrize("F", [helpers.sign_diagram(),
                                   helpers.sign_diagram(helpers.cyclic2_monoid().op())],
                             ids=["sign", "sign op"])
    def test_twisted_involution(self, F):
        C = F.category
        assert category_homology(C, F, 4) == \
            homology_of_complex(helpers.reference_bar_complex(C, F, 5))
        assert category_cohomology(C, F, 4) == \
            cohomology_of_complex(helpers.reference_cobar_complex(C, F, 5))


class TestCobar:
    def test_point_gives_value_then_zero(self):
        pt = helpers.point_category()
        got = category_cohomology(pt, helpers.constant_diagram(pt, 3), 2)
        assert got == groups((3, ()), (0, ()), (0, ()))

    def test_cobar_ranks_count_chains(self):
        # string cochains of the arrow are the dual of string chains of its opposite
        op = helpers.arrow_category().op()
        cx = helpers.reference_bar_complex(op, helpers.constant_diagram(op), 3)
        assert cx.ranks == (2, 3, 4, 5)
        assert len(cx.boundaries) == 3

    def test_normalized_cobar_ranks_count_non_identity_chains(self):
        op = helpers.arrow_category().op()
        cx = bar_complex(op, helpers.constant_diagram(op), 3)
        assert cx.ranks == (2, 1, 0, 0)
        assert len(cx.boundaries) == 3

    def test_involution_trivial_coefficients(self):
        z2 = helpers.cyclic2_monoid()
        got = category_cohomology(z2, helpers.constant_diagram(z2), 2)
        assert got == groups((1, ()), (0, ()), (0, (2,)))

    def test_involution_sign_coefficients(self):
        z2 = helpers.cyclic2_monoid()
        got = category_cohomology(z2, helpers.sign_diagram(), 2)
        assert got == groups((0, ()), (0, (2,)), (0, ()))

    def test_arrow_is_contractible(self):
        arrow = helpers.arrow_category()
        got = category_cohomology(arrow, helpers.constant_diagram(arrow), 2)
        assert got == groups((1, ()), (0, ()), (0, ()))

    def test_universal_coefficients_against_opposite_bar(self):
        # the string cochains of (C, G) are the dual of the string chains of
        # (C.op, G transposed): Betti numbers agree, torsion moves up a degree
        z2 = helpers.cyclic2_monoid()
        arrow = helpers.arrow_category()
        square = helpers.square_poset()
        for C, G, d in ((z2, helpers.constant_diagram(z2), 3),
                        (z2, helpers.constant_diagram(z2, 2), 3),
                        (z2, helpers.sign_diagram(), 3),
                        (arrow, helpers.constant_diagram(arrow), 2),
                        (square, helpers.constant_diagram(square), 2)):
            Gt = FiniteDiagram(C.op(), G.ranks,
                               {name: m.transpose() for name, m in G.matrices.items()})
            helpers.assert_universal_coefficients(
                category_homology(C.op(), Gt, d), category_cohomology(C, G, d))


class TestDiagramValidate:
    def test_fixture_diagrams_clean(self):
        for C in all_fixture_categories():
            assert helpers.constant_diagram(C).validate() == []
        assert helpers.sign_diagram().validate() == []

    def test_composition_mismatch_caught(self):
        z2 = helpers.cyclic2_monoid()
        F = FiniteDiagram(z2, {"o": 1},
                          {"e": IntMatrix.identity(1),
                           "g": IntMatrix.from_rows([[2]])})
        assert any("composition fails" in p for p in F.validate())

    def test_missing_and_misshapen_matrices(self):
        arrow = helpers.arrow_category()
        F = FiniteDiagram(arrow, {"0": 2, "1": 1},
                          {"0_0": IntMatrix.identity(2),
                           "1_1": IntMatrix.identity(1)})
        assert any("missing matrix" in p for p in F.validate())
        F.matrices["0_1"] = IntMatrix.identity(2)
        assert any("shape" in p for p in F.validate())

    def test_identity_must_be_identity(self):
        pt = helpers.point_category()
        F = FiniteDiagram(pt, {"pt": 1}, {"pt_pt": IntMatrix.from_rows([[-1]])})
        assert any("identity" in p for p in F.validate())

    def test_report_matches_all_pairs_loop(self):
        # validate visits only composable pairs, through an index of the
        # morphisms by source; the all-pairs loop of tests/helpers must give
        # the same lines in the same order, on numbered diagrams and on
        # constant ones with one matrix changed in value or in shape
        categories = all_fixture_categories() + [helpers.idempotent_monoid(),
                                                 factorization_category(helpers.square_poset())]
        for C in categories:
            numbered, constant = helpers.numbered_diagram(C), helpers.constant_diagram(C)
            cases = [numbered]
            for name in C.morphisms:
                for F, m in ((numbered, IntMatrix.from_rows([[1]])),
                             (constant, IntMatrix.from_rows([[-1]])),
                             (constant, IntMatrix.from_rows([[1, 0]]))):
                    cases.append(FiniteDiagram(C, F.ranks, {**F.matrices, name: m}))
            for F in cases:
                assert F.validate() == helpers.reference_diagram_report(F)
            assert any(F.validate() for F in cases[1:])


class TestCubeFunctor:
    def tautological_square(self):
        C = helpers.square_poset()
        verts = {(0, 0): "00", (0, 1): "01", (1, 0): "10", (1, 1): "11"}
        edges = {((0, 0), (0, 1)): "00_01", ((0, 0), (1, 0)): "00_10",
                 ((0, 1), (1, 1)): "01_11", ((1, 0), (1, 1)): "10_11"}
        return CubeFunctor(C, 2, verts, edges)

    def test_value_on_leq_composes_paths(self):
        x = self.tautological_square()
        assert helpers.value_on_leq(x, (0, 0), (1, 1)) == "00_11"
        assert helpers.value_on_leq(x, (0, 1), (0, 1)) == "01_01"
        assert helpers.value_on_leq(x, (0, 0), (0, 1)) == "00_01"

    def test_value_on_leq_rejects_bad_points(self):
        x = self.tautological_square()
        with pytest.raises(ValueError, match="not below"):
            helpers.value_on_leq(x, (1, 0), (0, 1))
        with pytest.raises(ValueError, match="dimension"):
            helpers.value_on_leq(x, (0,), (1,))

    def test_edge_reads_one_label(self):
        x = self.tautological_square()
        assert x.edge((0, 0), (0, 1)) == "00_01"
        assert x.edge([1, 0], [1, 1]) == "10_11"
        assert all(x.edge(p, q) == name for (p, q), name in x.edges.items())
        # a diagonal or a pair of equal points is not an edge
        for p, q in (((0, 0), (1, 1)), ((0, 1), (0, 1)), ((0, 1), (0, 0))):
            with pytest.raises(KeyError):
                x.edge(p, q)

    def test_faces_restrict(self):
        x = self.tautological_square()
        # freezing the first coordinate at 0 leaves the left edge
        left = x.face(1, 0)
        assert left.vertex((0,)) == "00"
        assert left.vertex((1,)) == "01"
        assert left.edges[((0,), (1,))] == "00_01"
        bottom = x.face(2, 0)
        assert bottom.vertex((1,)) == "10"

    def test_degeneracy_then_face_is_identity(self):
        x = self.tautological_square()
        for i in (1, 2, 3):
            up = x.degeneracy(i)
            assert up.face(i, 0) == x
            assert up.face(i, 1) == x

    def test_degeneracy_inserts_identity_edges(self):
        C = helpers.arrow_category()
        edge = CubeFunctor(C, 1, {(0,): "0", (1,): "1"}, {((0,), (1,)): "0_1"})
        up = edge.degeneracy(1)
        assert up.edges[((0, 0), (1, 0))] == "0_0"
        assert up.edges[((0, 1), (1, 1))] == "1_1"
        assert up.edges[((0, 0), (0, 1))] == "0_1"

    def test_key_format(self):
        C = helpers.arrow_category()
        edge = CubeFunctor(C, 1, {(0,): "0", (1,): "1"}, {((0,), (1,)): "0_1"})
        assert edge.key() == "0:0,1:1;0-1:0_1"
        pt = CubeFunctor(C, 0, {(): "1"}, {})
        assert pt.key() == "1"

    def test_equality_ignores_instance(self):
        a = self.tautological_square()
        b = self.tautological_square()
        assert a == b and hash(a) == hash(b)
        assert a != b.face(1, 0)


class TestNerve:
    def test_point_sizes(self):
        nerve = cubical_nerve(helpers.point_category(), 3)
        assert [nerve.size(n) for n in range(4)] == [1, 1, 1, 1]
        assert nerve.validate() == []

    def test_arrow_sizes_and_flags(self):
        nerve = cubical_nerve(helpers.arrow_category(), 3)
        assert nerve.size(0) == 2
        assert nerve.size(1) == 3
        assert len(nerve.nondegenerate_indices(1)) == 1
        assert nerve.keys[0] == ["0", "1"]
        assert nerve.validate() == []

    def test_involution_sizes(self):
        nerve = cubical_nerve(helpers.cyclic2_monoid(), 3)
        assert [nerve.size(n) for n in range(4)] == [1, 2, 8, 128]
        assert [len(nerve.nondegenerate_indices(n)) for n in range(3)] == [1, 1, 5]
        assert nerve.validate() == []

    def test_square_poset_sizes(self):
        nerve = cubical_nerve(helpers.square_poset(), 3)
        assert [nerve.size(n) for n in range(4)] == [4, 9, 36, 400]
        assert [len(nerve.nondegenerate_indices(n)) for n in range(4)] == \
            [4, 5, 22, 315]
        assert nerve.validate() == []

    def test_truncation_guard(self):
        # the idempotent monoid has 2,043,308 4-cubes; the level is refused
        # as soon as its labels pass the budget, which the message states;
        # the budget admits the 32,768 4-cubes of Z/2 and their 12 position
        # maps, 48 labels each
        assert (32768 + 12) * 48 <= NERVE_LABEL_BUDGET
        with pytest.raises(ValueError, match=f"nerve level 4 would hold more than "
                                             f"{NERVE_LABEL_BUDGET} labels, the budget "
                                             f"of one level"):
            cubical_nerve(helpers.idempotent_monoid(), 4)

    def test_point_nerve_stops_before_thirteen(self, monkeypatch):
        # one cube a level: the 12-cube and its 36 position maps hold
        # 37 * 28,672 labels, within the budget; the 13-cube, counted as a
        # degeneracy of the point before level 13 is searched, and its 39
        # maps would hold 40 * 61,440
        assert [cubical_nerve(helpers.point_category(), 12).size(n) for n in range(13)] == [1] * 13
        built, nerve_level = [], catalg._nerve_level
        monkeypatch.setattr(catalg, "_nerve_level",
                            lambda C, n, *rest: built.append(n) or nerve_level(C, n, *rest))
        with pytest.raises(ValueError, match=f"nerve level 13 would hold more than "
                                             f"{NERVE_LABEL_BUDGET} labels"):
            cubical_nerve(helpers.point_category(), 64)
        assert built == list(range(13))

    def test_point_nerve_allowed_above_three(self):
        nerve = cubical_nerve(helpers.point_category(), 4)
        assert nerve.size(4) == 1

    def test_negative_truncation_refused(self):
        with pytest.raises(ValueError, match="truncation must be nonnegative"):
            cubical_nerve(helpers.point_category(), -1)

    def test_key_separator_in_object_name_refused(self):
        C = helpers.poset_category(["a", "a,b"], [("a", "a,b")])
        assert C.validate() == []
        with pytest.raises(ValueError, match="name 'a,b' contains ',' or ';', which "
                                             "separate the entries of nerve keys"):
            cubical_nerve(C, 0)

    def test_face_of_diagonal_square(self):
        # the square filling the arrow's nerve: constant 0 on the low corner,
        # both faces in direction 1 at level eps pick out the matching edge
        nerve = cubical_nerve(helpers.arrow_category(), 2)
        key = "00:0,01:0,10:0,11:1;00-10:0_0,00-01:0_0,01-11:0_1,10-11:0_1"
        idx = nerve.index[2][key]
        low = nerve.face_index(2, 1, 0, idx)
        assert nerve.key(1, low) == "0:0,1:0;0-1:0_0"
        high = nerve.face_index(2, 1, 1, idx)
        assert nerve.key(1, high) == "0:0,1:1;0-1:0_1"


NERVE_FIXTURES = helpers.NERVE_FIXTURES


def assert_matches_reference(C, top):
    got, want = cubical_nerve(C, top), helpers.reference_nerve(C, top)
    assert got.keys == want.keys
    assert got.degenerate == want.degenerate
    assert list(got.face.items()) == list(want.face.items())
    assert list(got.degen_map.items()) == list(want.degen_map.items())
    for level, ref in zip(got.elements, want.elements):
        assert [(x.vertices, x.edges) for x in level] == \
            [(y.vertices, y.edges) for y in ref]
    assert got.validate() == []


# names chosen so that key order differs from label order ("+" < "," < "0")
POSET_NAMES = ["a", "a+", "a0", "b"]


@st.composite
def random_posets(draw):
    """A poset on at most 4 objects: a random relation along a random order, closed."""
    objects = draw(st.permutations(POSET_NAMES))[:draw(st.integers(1, 4))]
    pairs = [(x, y) for i, x in enumerate(objects) for y in objects[i + 1:]]
    relation = {pair for pair in pairs if draw(st.booleans())}
    for y in objects:  # transitive closure, one middle object at a time
        relation |= {(x, z) for x, y1 in relation for y2, z in relation
                     if y1 == y == y2}
    return helpers.poset_category(objects, sorted(relation))


@st.composite
def random_transformation_categories(draw):
    """The functions among 1-3 sets of size 1-3 composed from 1-2 random ones."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    generators = []
    for _ in range(draw(st.integers(1, 2))):
        src, dst = (draw(st.integers(0, len(sizes) - 1)) for _ in range(2))
        generators.append((src, dst, draw(st.lists(st.integers(0, sizes[dst] - 1),
                                                    min_size=sizes[src], max_size=sizes[src]))))
    return helpers.transformation_category(sizes, generators)


class TestNerveReference:
    @pytest.mark.parametrize("top", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", sorted(NERVE_FIXTURES))
    def test_tables_match_reference(self, name, top):
        assert_matches_reference(NERVE_FIXTURES[name](), top)

    @pytest.mark.parametrize("name", ["point", "arrow", "arrow a<a+"])
    def test_tables_match_reference_at_top_four(self, name):
        assert_matches_reference(NERVE_FIXTURES[name](), 4)

    @pytest.mark.parametrize("top", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", sorted(NERVE_FIXTURES))
    def test_eilenberg_zilber_count(self, name, top):
        # every cube is one degeneracy of one non-degenerate k-cube, and an
        # n-cube degenerates from a k-cube in comb(n, k) ways
        nerve = cubical_nerve(NERVE_FIXTURES[name](), top)
        nd = [len(nerve.nondegenerate_indices(k)) for k in range(top + 1)]
        for n in range(top + 1):
            assert nerve.size(n) == sum(comb(n, k) * nd[k] for k in range(n + 1))

    @settings(max_examples=100, deadline=None)
    @given(random_posets(), st.integers(0, 3))
    def test_random_posets_match_reference(self, C, top):
        assert C.validate() == []
        assert_matches_reference(C, top)

    @settings(max_examples=100, deadline=None)
    @given(random_transformation_categories(), st.integers(0, 3))
    def test_random_transformation_categories_match_reference(self, C, top):
        # not posets: parallel arrows and endomorphisms make squares that do
        # not commute; the reference's cost grows with the top level, which
        # stays small enough for a quick example. From four morphisms on a
        # level 3 can pass the label budget, and from seven most do.
        assert C.validate() == []
        assume(len(C.morphisms) <= 6)
        try:
            size = cubical_nerve(C, top).size(top)
        except ValueError as refusal:
            assert "the budget of one level" in str(refusal)
            size = None
        assume(size is not None and size <= 2500)
        assert_matches_reference(C, top)

    def test_idempotent_decides_degeneracy(self):
        # the square with e on all four edges commutes (e e = e) and is not
        # degenerate; with e on two parallel edges and 1 on the others it is
        nerve = cubical_nerve(helpers.idempotent_monoid(), 2)
        verts = "00:o,01:o,10:o,11:o;"
        flags = {nerve.key(2, k): nerve.is_degenerate(2, k) for k in range(nerve.size(2))}
        assert flags[verts + "00-10:e,00-01:e,01-11:e,10-11:e"] is False
        assert flags[verts + "00-10:e,00-01:1,01-11:e,10-11:1"] is True
        assert len(nerve.nondegenerate_indices(2)) == 7


class TestFactorization:
    def test_object_counts(self):
        assert len(factorization_category(helpers.point_category()).objects) == 1
        assert len(factorization_category(helpers.arrow_category()).objects) == 3
        assert len(factorization_category(helpers.cyclic2_monoid()).objects) == 2

    def test_fixture_factorizations_validate(self):
        for C in all_fixture_categories():
            assert factorization_category(C).validate() == []

    def test_arrow_decompositions(self):
        fc = factorization_category(helpers.arrow_category())
        assert len(fc.morphisms) == 5
        assert fc.morphisms["0_0|0_1|0_0|0_1"] == ("0_0", "0_1")
        assert fc.morphisms["1_1|0_1|0_1|1_1"] == ("1_1", "0_1")
        assert fc.identity_of("0_1") == "0_1|0_1|0_0|1_1"

    def test_involution_decomposition_count(self):
        # each of the four (u, v) pairs lands on one of the two objects,
        # so every hom set here has exactly two elements
        fc = factorization_category(helpers.cyclic2_monoid())
        assert len(fc.morphisms) == 8

    def test_composition_stacks_both_sides(self):
        fc = factorization_category(helpers.cyclic2_monoid())
        name = fc.compose("e|g|e|g", "g|e|e|g")
        assert name == "g|g|e|e"
        assert fc.morphisms[name] == ("g", "g")


class TestNerveSystems:
    def test_last_vertex_system_functorial(self):
        for C in (helpers.arrow_category(), helpers.cyclic2_monoid()):
            nerve = cubical_nerve(C, 2)
            F = helpers.constant_diagram(C.op())
            sys = system_from_diagram_last_vertex(C, F, nerve)
            assert validate_functoriality(sys) == []

    def test_last_vertex_sign_values(self):
        z2 = helpers.cyclic2_monoid()
        nerve = cubical_nerve(z2, 2)
        F = helpers.sign_diagram(z2.op())
        sys = system_from_diagram_last_vertex(z2, F, nerve)
        assert validate_functoriality(sys) == []
        # the low face of the flip edge travels along g, the high face stays
        assert sys.face_matrix(1, 1, 0, nerve.index[1]["0:o,1:o;0-1:g"]) == \
            IntMatrix.from_rows([[-1]])
        assert sys.face_matrix(1, 1, 1, nerve.index[1]["0:o,1:o;0-1:g"]) == \
            IntMatrix.identity(1)

    def test_last_vertex_degeneracies_share_one_identity_per_rank(self):
        arrow = helpers.arrow_category()
        F = FiniteDiagram(arrow.op(), {"0": 2, "1": 1},
                          {"0_0": IntMatrix.identity(2), "1_1": IntMatrix.identity(1),
                           "0_1": IntMatrix.from_rows([[1], [2]])})
        sys = system_from_diagram_last_vertex(arrow, F, cubical_nerve(arrow, 3))
        assert validate_functoriality(sys) == []
        shared = {id(m): m for col in sys.degen.values() for m in col}
        assert sorted(m.rows for m in shared.values()) == [1, 2]

    def test_auto_route_tests_locality_once(self, monkeypatch):
        C = helpers.square_poset()
        nerve = cubical_nerve(C, 3)
        sys = system_from_diagram_last_vertex(
            C, helpers.constant_diagram(C.op(), 2), nerve)
        calls = []

        def counting(F):
            calls.append(F)
            return is_local(F)

        monkeypatch.setattr(homcalc, "is_local", counting)
        assert homcalc.homology(nerve, sys, 2, path="auto") == \
            groups((2, ()), (0, ()), (0, ()))
        assert len(calls) == 1 and calls[0] is sys

    def test_cochain_route_tests_locality_once(self, monkeypatch):
        # F doubles along the arrow, so the natural system is not local: the
        # cochains take the generic route, and locality is tested once, on
        # the transposed system the chains are built from
        arrow = helpers.arrow_category()
        one = IntMatrix.identity(1)
        F = FiniteDiagram(arrow, {"0": 1, "1": 1},
                          {"0_0": one, "1_1": one, "0_1": IntMatrix.from_rows([[2]])})
        nerve = cubical_nerve(arrow, 3)
        sys = natural_system_via_d(
            arrow, helpers.codomain_diagram(arrow, factorization_category(arrow), F), nerve)
        calls = []

        def counting(G):
            calls.append(G)
            return is_local(G)

        monkeypatch.setattr(homcalc, "is_local", counting)
        got = homcalc.cohomology(nerve, sys, 2)
        assert len(calls) == 1 and calls[0].variance == "contravariant"
        assert not is_local(calls[0])
        generic = homcalc.normalized_complex(nerve, transpose_system(sys)).complex
        assert got == cohomology_of_complex(generic.truncate(3))

    def test_diagonal_system_functorial(self):
        for C in (helpers.arrow_category(), helpers.cyclic2_monoid()):
            fc = factorization_category(C)
            nerve = cubical_nerve(C, 2)
            G = helpers.codomain_diagram(C, fc, helpers.constant_diagram(C, 2))
            sys = natural_system_via_d(C, G, nerve)
            assert validate_functoriality(sys) == []


FIXTURE_CATEGORIES = [helpers.point_category, helpers.arrow_category, helpers.square_poset,
                      helpers.cyclic2_monoid, helpers.idempotent_monoid]


class TestNerveSystemsMatchPathWalks:
    """Both nerve builders against the path-walk references of tests/helpers.

    Every morphism carries its own 1x1 matrix, so reading the wrong edge or
    the wrong diagonal changes an entry; the builders must also return the
    diagram's own matrix objects, which transpose_system shares by id.
    """

    @staticmethod
    def assert_same(F, R, diagram):
        assert type(F) is type(R)
        assert F.ranks == R.ranks
        own = {id(m) for m in diagram.matrices.values()}
        for ours, theirs in ((F.face, R.face), (F.degen, R.degen)):
            assert sorted(ours) == sorted(theirs)
            for op, col in theirs.items():
                assert ours[op] == col, op
                assert all(a is b for a, b in zip(ours[op], col) if id(b) in own), op

    @pytest.mark.parametrize("top", [0, 1, 2, 3])
    @pytest.mark.parametrize("make", FIXTURE_CATEGORIES)
    def test_last_vertex(self, make, top):
        C = make()
        N = cubical_nerve(C, top)
        F = helpers.numbered_diagram(C.op())
        self.assert_same(system_from_diagram_last_vertex(C, F, N),
                         helpers.reference_last_vertex_system(C, F, N), F)

    @pytest.mark.parametrize("top", [0, 1, 2, 3])
    @pytest.mark.parametrize("make", FIXTURE_CATEGORIES)
    def test_natural_system(self, make, top):
        C = make()
        N = cubical_nerve(C, top)
        G = helpers.numbered_diagram(factorization_category(C))
        self.assert_same(natural_system_via_d(C, G, N),
                         helpers.reference_natural_system(C, G, N), G)

    @settings(max_examples=60, deadline=None)
    @given(random_transformation_categories(), st.integers(0, 3))
    def test_random_transformation_categories(self, C, top):
        # parallel arrows and endomorphisms; nerves the label budget refuses,
        # or too large for the path walks to be quick, are drawn again
        assume(len(C.morphisms) <= 6)
        try:
            N = cubical_nerve(C, top)
        except ValueError as refusal:
            assert "the budget of one level" in str(refusal)
            N = None
        assume(N is not None and N.size(top) <= 1500)
        F = helpers.numbered_diagram(C.op())
        self.assert_same(system_from_diagram_last_vertex(C, F, N),
                         helpers.reference_last_vertex_system(C, F, N), F)
        G = helpers.numbered_diagram(factorization_category(C))
        self.assert_same(natural_system_via_d(C, G, N),
                         helpers.reference_natural_system(C, G, N), G)

    def test_labels_read_by_position_and_each_arrow_looked_up_once(self, monkeypatch):
        # both builders read labels at positions fixed per level and operator,
        # never one cube's label by its point or its edge, and the natural
        # system looks up each arrow's matrix once, however many face entries
        # share it
        C = helpers.square_poset()
        N = cubical_nerve(C, 3)
        F = helpers.numbered_diagram(C.op())
        G = helpers.numbered_diagram(factorization_category(C))
        want_f = helpers.reference_last_vertex_system(C, F, N)
        want_g = helpers.reference_natural_system(C, G, N)

        def refuse(*args):
            raise AssertionError("a label was read by its point or its edge")

        monkeypatch.setattr(CubeFunctor, "vertex", refuse)
        monkeypatch.setattr(CubeFunctor, "edge", refuse)
        self.assert_same(system_from_diagram_last_vertex(C, F, N), want_f, F)
        looked_up = []

        class Spy(dict):
            def __getitem__(self, name):
                looked_up.append(name)
                return super().__getitem__(name)

        G.matrices = Spy(G.matrices)
        got = natural_system_via_d(C, G, N)
        self.assert_same(got, want_g, G)
        assert len(looked_up) == len(set(looked_up)) > 0
        assert len(looked_up) < sum(len(col) for col in got.face.values()) / 10


class TestComparisons:
    def test_point_nerve_vs_bar(self):
        pt = helpers.point_category()
        r = nerve_vs_bar_comparison(pt, helpers.constant_diagram(pt.op()), 2)
        assert r.equal
        assert r.cubical == groups((1, ()), (0, ()), (0, ()))

    def test_arrow_nerve_vs_bar_constant(self):
        arrow = helpers.arrow_category()
        r = nerve_vs_bar_comparison(arrow, helpers.constant_diagram(arrow.op()), 2)
        assert r.equal
        assert r.cubical == groups((1, ()), (0, ()), (0, ()))

    def test_arrow_nerve_vs_bar_nonconstant(self):
        arrow = helpers.arrow_category()
        F = FiniteDiagram(arrow.op(), {"0": 2, "1": 1},
                          {"0_0": IntMatrix.identity(2),
                           "1_1": IntMatrix.identity(1),
                           "0_1": IntMatrix.from_rows([[1], [2]])})
        assert F.validate() == []
        r = nerve_vs_bar_comparison(arrow, F, 2)
        assert r.equal
        # the opposite arrow points at 0, so degree zero collapses there
        assert r.categorical[0] == HomologyGroup(2, ())

    def test_involution_nerve_vs_bar(self):
        z2 = helpers.cyclic2_monoid()
        r = nerve_vs_bar_comparison(z2, helpers.constant_diagram(z2.op()), 2)
        assert r.equal
        assert r.cubical == groups((1, ()), (0, (2,)), (0, ()))

    def test_involution_nerve_vs_bar_degree_three(self):
        # H_*(Z/2; Z) = Z, Z/2, 0, Z/2 (group homology of a cyclic group),
        # an oracle from outside the code on both sides
        z2 = helpers.cyclic2_monoid()
        r = nerve_vs_bar_comparison(z2, helpers.constant_diagram(z2.op()), 3)
        assert r.cubical == r.categorical == groups((1, ()), (0, (2,)), (0, ()), (0, (2,)))

    def test_involution_bw_constant_degree_three(self):
        # H^*(Z/2; Z) = Z, 0, Z/2, 0 (group cohomology of a cyclic group)
        z2 = helpers.cyclic2_monoid()
        r = bw_comparison(z2, helpers.constant_diagram(factorization_category(z2)), 3)
        assert r.cubical == r.categorical == groups((1, ()), (0, ()), (0, (2,)), (0, ()))

    def test_square_poset_nerve_vs_bar_degree_three(self):
        # the poset has a greatest element, so its nerve is contractible
        C = helpers.square_poset()
        r = nerve_vs_bar_comparison(C, helpers.constant_diagram(C.op()), 3)
        assert r.cubical == r.categorical == groups((1, ()), (0, ()), (0, ()), (0, ()))

    def test_square_poset_bw_codomain_degree_three(self):
        C = helpers.square_poset()
        fc = factorization_category(C)
        G = helpers.codomain_diagram(C, fc, helpers.constant_diagram(C, 1))
        r = bw_comparison(C, G, 3)
        assert r.cubical == r.categorical == groups((1, ()), (0, ()), (0, ()), (0, ()))

    def test_involution_nerve_vs_bar_sign(self):
        z2 = helpers.cyclic2_monoid()
        r = nerve_vs_bar_comparison(z2, helpers.sign_diagram(z2.op()), 2)
        assert r.equal
        assert r.cubical == groups((0, (2,)), (0, ()), (0, (2,)))

    def test_square_poset_nerve_vs_bar(self):
        C = helpers.square_poset()
        r = nerve_vs_bar_comparison(C, helpers.constant_diagram(C.op()), 2)
        assert r.equal
        assert r.cubical == groups((1, ()), (0, ()), (0, ()))

    def test_square_poset_nerve_vs_bar_nonconstant(self):
        C = helpers.square_poset()
        mats = {name: IntMatrix.identity(1) for name in C.morphisms}
        mats["00_01"] = IntMatrix.from_rows([[2]])
        mats["01_11"] = IntMatrix.from_rows([[3]])
        mats["10_11"] = IntMatrix.from_rows([[6]])
        mats["00_11"] = IntMatrix.from_rows([[6]])
        F = FiniteDiagram(C.op(), {obj: 1 for obj in C.objects}, mats)
        assert F.validate() == []
        r = nerve_vs_bar_comparison(C, F, 2)
        assert r.equal

    def test_point_bw(self):
        pt = helpers.point_category()
        fc = factorization_category(pt)
        G = helpers.constant_diagram(fc, 2)
        r = bw_comparison(pt, G, 2)
        assert r.equal
        assert r.cubical == groups((2, ()), (0, ()), (0, ()))

    def test_arrow_bw_constant(self):
        arrow = helpers.arrow_category()
        fc = factorization_category(arrow)
        r = bw_comparison(arrow, helpers.constant_diagram(fc), 2)
        assert r.equal
        assert r.cubical == groups((1, ()), (0, ()), (0, ()))

    def test_arrow_bw_nonconstant(self):
        arrow = helpers.arrow_category()
        fc = factorization_category(arrow)
        G = helpers.codomain_diagram(
            arrow, fc,
            FiniteDiagram(arrow, {"0": 1, "1": 1},
                          {"0_0": IntMatrix.identity(1),
                           "1_1": IntMatrix.identity(1),
                           "0_1": IntMatrix.from_rows([[3]])}))
        assert G.validate() == []
        r = bw_comparison(arrow, G, 2)
        assert r.equal

    def test_involution_bw_sign(self):
        z2 = helpers.cyclic2_monoid()
        fc = factorization_category(z2)
        G = helpers.codomain_diagram(z2, fc, helpers.sign_diagram())
        assert G.validate() == []
        r = bw_comparison(z2, G, 2)
        assert r.equal

    def test_square_poset_bw(self):
        C = helpers.square_poset()
        fc = factorization_category(C)
        r = bw_comparison(C, helpers.constant_diagram(fc), 2)
        assert r.equal
        assert r.cubical[0] == HomologyGroup(1, ())

    def test_report_equality_is_exact(self):
        r = ComparisonReport(groups((1, ()), (0, (2,))), groups((1, ()), (0, (2,))))
        assert r.equal
        assert not ComparisonReport(groups((1, ())), groups((1, (2,)))).equal

    def test_cubical_and_oracle_entry_points(self):
        # same computation through the two public single-route functions
        arrow = helpers.arrow_category()
        fc = factorization_category(arrow)
        G = helpers.constant_diagram(fc)
        assert bw_cohomology_cubical(arrow, G, 1) == \
            bw_cohomology_oracle(arrow, G, 1) == groups((1, ()), (0, ()))
