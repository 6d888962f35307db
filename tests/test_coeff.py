"""Tests for coefficient systems: construction, validation, transport."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cubehom.coeff import (
    ContravariantSystem,
    CovariantSystem,
    SemiCubicalSystem,
    constant_system,
    direct_image,
    extend_semicubical,
    is_local,
    local_system,
    natural_system_via_d,
    pullback_system,
    system_from_diagram_last_vertex,
    transpose_system,
    validate_functoriality,
    _face_face_failures,
    _generated_system,
)
from cubehom import formats
from cubehom.boxcat import identity
from cubehom.catalg import cubical_nerve, factorization_category
from cubehom.cubset import Cube, standard_cube, universal_from_semicubical
from cubehom.zlinalg import IntMatrix

import helpers


class TestConstant:
    def test_functorial_both_variances(self):
        base = helpers.torus().expand(2)
        for variance in ("contravariant", "covariant"):
            F = constant_system(base, 2, variance)
            assert F.variance == variance
            assert validate_functoriality(F) == []
            assert is_local(F)

    def test_rank_zero(self):
        base = helpers.point().expand(1)
        F = constant_system(base, 0)
        assert validate_functoriality(F) == []

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            constant_system(helpers.point().expand(1), -1)

    def test_bad_variance_rejected(self):
        with pytest.raises(ValueError):
            constant_system(helpers.point().expand(1), 1, "sideways")


def built_systems():
    """One system from each builder, and one read back from its document."""
    z2, arrow = helpers.cyclic2_monoid(), helpers.arrow_category()
    gauge = helpers.gauge_system(helpers.torus(), 2, 2, random.Random(31))
    yield "constant", constant_system(helpers.torus().expand(2), 2)
    yield "constant-covariant", constant_system(helpers.squashed_square().expand(3), 1,
                                                "covariant")
    yield "local", gauge
    yield "extension", extend_semicubical(helpers.weighted_torus_system(), 3)
    yield "pullback", pullback_system(helpers.fold_wedge(), helpers.monodromy_circle(top=2))
    yield "direct-image", direct_image(
        helpers.fold_wedge(),
        helpers.gauge_system(helpers.fold_wedge().source, 2, 2, random.Random(32)))
    yield "last-vertex", system_from_diagram_last_vertex(
        z2, helpers.sign_diagram(z2.op()), cubical_nerve(z2, 2))
    yield "via-d", natural_system_via_d(
        arrow, helpers.codomain_diagram(arrow, factorization_category(arrow),
                                        helpers.constant_diagram(arrow, 2)),
        cubical_nerve(arrow, 3))
    yield "transpose", transpose_system(gauge)
    yield "table-system", formats.parse_table_system(formats.table_system_to_data(gauge))


class TestColumnLayout:
    """Each system holds one column per operator of its table, one matrix per cube."""

    @pytest.mark.parametrize("F", [pytest.param(F, id=name) for name, F in built_systems()])
    def test_columns_follow_the_table(self, F):
        base = F.base
        assert set(F.face) == set(base.face)
        assert set(F.degen) == set(base.degen_map)
        for (n, i, eps), col in F.face.items():
            assert len(col) == base.size(n)
            for idx, m in enumerate(col):
                assert isinstance(m, IntMatrix)
                assert m is F.face_matrix(n, i, eps, idx)
        for (m_, i), col in F.degen.items():
            assert len(col) == base.size(m_)
            for idx, m in enumerate(col):
                assert isinstance(m, IntMatrix)
                assert m is F.degen_matrix(m_, i, idx)
        assert validate_functoriality(F) == []


class TestValidateNegatives:
    def test_tampered_face_matrix_caught(self):
        base = helpers.torus().expand(2)
        F = constant_system(base, 1)
        bad_face = helpers.with_entry(F.face, (1, 1, 0), base.index[1]["a@x1"],
                                      IntMatrix.from_rows([[2]]))
        G = ContravariantSystem(base, F.ranks, bad_face, F.degen)
        report = validate_functoriality(G)
        assert report != []
        assert any("identity fails" in line for line in report)

    def test_shared_matrices_fail_on_every_cube(self):
        # Products are formed once per pair of objects; every cube is still compared.
        base = helpers.torus().expand(2)
        F = constant_system(base, 1)
        bad_face = helpers.with_entry(F.face, (1, 1, 0), base.index[1]["a@x1"],
                                      IntMatrix.from_rows([[2]]))
        shared = ContravariantSystem(base, F.ranks, bad_face, F.degen)

        def copied(columns):
            return {k: tuple(IntMatrix.from_rows(m.data) for m in col)
                    for k, col in columns.items()}

        copies = ContravariantSystem(base, F.ranks, copied(bad_face), copied(F.degen))
        report = validate_functoriality(shared)
        assert len(report) > 1
        assert report == validate_functoriality(copies)

    def test_missing_rank_caught(self):
        base = helpers.circle().expand(1)
        F = constant_system(base, 1)
        ranks = dict(F.ranks)
        del ranks[(1, base.index[1]["e@x1"])]
        G = ContravariantSystem(base, ranks, F.face, F.degen)
        assert any("missing rank" in line for line in validate_functoriality(G))

    def test_wrong_shape_caught(self):
        base = helpers.circle().expand(1)
        F = constant_system(base, 1)
        bad_face = helpers.with_entry(F.face, (1, 1, 0), base.index[1]["e@x1"],
                                      IntMatrix.identity(2))
        G = ContravariantSystem(base, F.ranks, bad_face, F.degen)
        assert any("shape" in line for line in validate_functoriality(G))


class TestLocal:
    def test_gauge_system_is_functorial_and_local(self):
        rng = random.Random(11)
        for X in (helpers.torus(), helpers.twisted_square(), helpers.squashed_square()):
            F = helpers.gauge_system(X, 2, 2, rng)
            assert validate_functoriality(F) == []
            assert is_local(F)

    def test_gauge_system_covariant(self):
        rng = random.Random(12)
        F = helpers.gauge_system(helpers.torus(), 2, 2, rng, "covariant")
        assert F.variance == "covariant"
        assert validate_functoriality(F) == []

    def test_monodromy_circle(self):
        F = helpers.monodromy_circle()
        assert validate_functoriality(F) == []
        assert is_local(F)
        assert F.face_matrix(1, 1, 1, F.base.index[1]["e@x1"]) == IntMatrix.from_rows([[-1]])

    def test_degeneracies_are_identity(self):
        rng = random.Random(13)
        F = helpers.gauge_system(helpers.circle(), 2, 2, rng)
        for col in F.degen.values():
            assert all(mat == IntMatrix.identity(2) for mat in col)

    def test_equal_composites_are_one_object(self):
        F = helpers.gauge_system(helpers.torus(), 2, 2, random.Random(15))
        mats = helpers.operator_matrices(F)
        assert len({id(m) for m in mats}) == len(set(mats)) < len(mats)

    def test_non_unimodular_rejected(self):
        two = IntMatrix.from_rows([[2]])
        with pytest.raises(ValueError):
            X = helpers.circle()
            local_system(X, X.expand(1), 1, {("e", 1, 0): two, ("e", 1, 1): two})

    def test_wrong_key_set_rejected(self):
        one = IntMatrix.identity(1)
        with pytest.raises(ValueError):
            X = helpers.circle()
            local_system(X, X.expand(1), 1, {("e", 1, 0): one})

    def test_non_functorial_matrices_rejected(self):
        # the torus square forces its two directions to commute with the loops
        X = helpers.torus()
        with pytest.raises(ValueError) as err:
            local_system(X, X.expand(2), 1, helpers.flipped_torus_matrices())
        assert str(err.value) == helpers.NON_FUNCTORIAL_TORUS

    def test_negative_rank_rejected(self):
        # The point has no face matrices, so no generator instance sees the
        # rank; the full check words the refusal.
        X = helpers.point()
        with pytest.raises(ValueError) as err:
            local_system(X, X.expand(1), -1, {})
        assert str(err.value) == helpers.NEGATIVE_RANK_POINT

    def test_is_local_false_for_scaling(self):
        F = extend_semicubical(helpers.weighted_torus_system(), 2)
        assert not is_local(F)

    def test_is_local_tests_every_matrix_object(self):
        # Every other operator shares the constant system's one identity.
        F = constant_system(helpers.torus().expand(2), 1)
        op = list(F.face)[-1]
        F.face = helpers.with_entry(F.face, op, len(F.face[op]) - 1, IntMatrix.from_rows([[2]]))
        assert not is_local(F)


UNIMODULAR = st.integers(0, 2**32).map(lambda seed: helpers.random_unimodular(random.Random(seed), 2))


class TestGeneratorCheck:
    """local_system checks generators only, from the presentation; the full check must agree."""

    CARRIERS = [helpers.torus(), helpers.twisted_square(), helpers.squashed_square(),
                standard_cube(3)]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_full_check(self, data):
        # Half the draws telescope through one unit per generator and are
        # functorial; the other half draw every face matrix on its own.
        X = data.draw(st.sampled_from(self.CARRIERS))
        variance = data.draw(st.sampled_from(["contravariant", "covariant"]))
        base = X.expand(max(X.generators.values()) + data.draw(st.integers(0, 1)))
        telescoped = data.draw(st.booleans())
        if telescoped:
            mats = helpers.telescoping_matrices(
                X, {g: data.draw(UNIMODULAR) for g in sorted(X.generators)}, variance)
        else:
            mats = {k: data.draw(UNIMODULAR) for k in sorted(X.faces)}
        cls = ContravariantSystem if variance == "contravariant" else CovariantSystem
        ranks = dict.fromkeys(X.generators, 2)
        F = _generated_system(cls, base, ranks, mats)
        full = validate_functoriality(F)
        failures = _face_face_failures(X, ranks, mats, variance, base.top)
        assert all(lhs != rhs for _, _, lhs, rhs in failures)
        on_generators = [f"face-face identity fails at dim {X.generators[g]} cube "
                         f"{Cube(g, identity(X.generators[g])).key()} ({detail})"
                         for g, detail, _, _ in failures]
        # the generator check finds the full check's face-face failures on
        # generator cubes, and fails exactly when the full check fails
        generators = {base.key(n, idx) for n in range(base.top + 1)
                      for idx in base.nondegenerate_indices(n)}
        assert on_generators == [line for line in full if line.startswith("face-face")
                                 and line.split(" cube ")[1].split(" (")[0] in generators]
        assert bool(on_generators) == bool(full)
        if telescoped:
            assert full == []
        if full:
            with pytest.raises(ValueError) as err:
                local_system(X, base, 2, mats, variance)
            assert str(err.value) == "generator matrices are not functorial: " + "; ".join(full[:3])
        else:
            assert local_system(X, base, 2, mats, variance).face == F.face


class TestGeneratedFaces:
    """Face matrices read off deletion maps equal the parent's event replay."""

    @pytest.mark.parametrize("variance", ["contravariant", "covariant"])
    def test_local_system_matches_event_replay(self, variance):
        rng = random.Random(21)
        for X in (helpers.torus(), helpers.twisted_square(), helpers.squashed_square(),
                  standard_cube(2)):
            mats = helpers.gauge_matrices(X, 2, rng, variance)
            F = local_system(X, X.expand(3), 2, mats, variance)
            want = helpers.reference_generated_faces(
                X, F.base, mats, dict.fromkeys(X.generators, 2), variance)
            assert F.face == want

    def test_extension_matches_event_replay(self):
        varying = SemiCubicalSystem(
            helpers.interval_semi(), {"a": 2, "b": 1, "e": 2},
            {("e", 1, 0): IntMatrix.from_rows([[1, 1], [0, 1]]),
             ("e", 1, 1): IntMatrix.from_rows([[3, 5]])})
        for S in (helpers.weighted_torus_system(), varying):
            G = extend_semicubical(S, 3)
            want = helpers.reference_generated_faces(
                universal_from_semicubical(S.base), G.base, S.face, S.ranks, "contravariant")
            assert G.face == want


class TestTranspose:
    def test_round_trip(self):
        rng = random.Random(14)
        F = helpers.gauge_system(helpers.torus(), 2, 2, rng)
        G = transpose_system(F)
        assert G.variance == "covariant"
        assert validate_functoriality(G) == []
        H = transpose_system(G)
        assert H.variance == "contravariant"
        assert H.face == F.face
        assert H.degen == F.degen

    def test_shared_matrix_transposed_once(self):
        F = constant_system(helpers.torus().expand(2), 2, "covariant")
        G = transpose_system(F)
        assert len({id(m) for m in helpers.operator_matrices(G)}) == 1


class TestPullback:
    def test_identity_pullback_is_same(self):
        rng = random.Random(15)
        X = helpers.torus()
        F = helpers.gauge_system(X, 2, 2, rng)
        G = pullback_system(helpers.identity_map(X), F)
        assert G.ranks == F.ranks
        assert G.face == F.face
        assert G.degen == F.degen

    def test_pullback_along_fold(self):
        F = helpers.monodromy_circle(top=2)
        G = pullback_system(helpers.fold_wedge(), F)
        assert G.variance == "contravariant"
        assert validate_functoriality(G) == []
        # both wedge loops pick up the sign flip
        loops = G.base.index[1]
        assert G.face[(1, 1, 1)][loops["e1@x1"]] == IntMatrix.from_rows([[-1]])
        assert G.face[(1, 1, 1)][loops["e2@x1"]] == IntMatrix.from_rows([[-1]])

    def test_pullback_preserves_variance(self):
        base = helpers.circle().expand(1)
        F = constant_system(base, 1, "covariant")
        G = pullback_system(helpers.endpoint_inclusion(), F)
        assert isinstance(G, CovariantSystem)


class TestDirectImage:
    def test_identity_direct_image_is_same(self):
        rng = random.Random(16)
        X = helpers.twisted_square()
        F = helpers.gauge_system(X, 2, 1, rng)
        G = direct_image(helpers.identity_map(X), F)
        assert G.ranks == F.ranks
        assert G.face == F.face
        assert G.degen == F.degen

    def test_fold_ranks_sum_over_fibers(self):
        base = helpers.fold_wedge().source.expand(2)
        F = constant_system(base, 1)
        G = direct_image(helpers.fold_wedge(), F)
        assert G.rank_of(0, G.base.index[0]["v@"]) == 1
        assert G.rank_of(1, G.base.index[1]["e@x1"]) == 2
        assert G.rank_of(1, G.base.index[1]["v@del:1"]) == 1
        assert validate_functoriality(G) == []

    def test_collapse_rank_at_degenerate_edge(self):
        # all three dim-1 cubes of the interval sit over the degenerate edge
        f = helpers.collapse_to_point(standard_cube(1))
        F = constant_system(f.source.expand(2), 1)
        G = direct_image(f, F)
        assert G.rank_of(1, G.base.index[1]["v@del:1"]) == 3
        assert validate_functoriality(G) == []

    def test_rejects_covariant(self):
        base = helpers.circle().expand(1)
        F = constant_system(base, 1, "covariant")
        with pytest.raises(ValueError):
            direct_image(helpers.identity_map(helpers.circle()), F)

    def test_gauge_direct_image_functorial(self):
        rng = random.Random(17)
        F = helpers.gauge_system(helpers.fold_wedge().source, 2, 2, rng)
        G = direct_image(helpers.fold_wedge(), F)
        assert validate_functoriality(G) == []


class TestSemiCubical:
    def test_weighted_torus_validates(self):
        F = helpers.weighted_torus_system()
        assert F.validate() == []

    def test_shape_mismatch_reported(self):
        F = helpers.weighted_torus_system()
        F.face[("t", 1, 0)] = IntMatrix.identity(2)
        assert any("shape" in line for line in F.validate())

    def test_commutation_violation_reported(self):
        F = helpers.weighted_torus_system()
        F.face[("t", 1, 0)] = IntMatrix.from_rows([[3]])
        assert any("face-face identity fails" in line for line in F.validate())

    def test_unexpected_face_matrix_reported(self):
        # a key the set has no face for is reported, not raised on
        one = IntMatrix.identity(1)
        F = SemiCubicalSystem(helpers.interval_semi(), {"a": 1, "b": 1, "e": 1},
                              {("e", 1, 0): one, ("e", 1, 1): one, ("e", 2, 0): one})
        assert F.validate() == ["unexpected face matrix ('e', 2, 0)"]

    def test_extension_is_functorial(self):
        F = helpers.weighted_torus_system()
        G = extend_semicubical(F, 2)
        assert G.variance == "contravariant"
        assert validate_functoriality(G) == []
        assert G.rank_of(2, G.base.index[2]["t@x1,x2"]) == 1
        mats = helpers.operator_matrices(G)
        assert len({id(m) for m in mats}) == len(set(mats))

    def test_extension_with_varying_ranks(self):
        S = helpers.interval_semi()
        F = SemiCubicalSystem(
            S, {"a": 2, "b": 1, "e": 2},
            {("e", 1, 0): IntMatrix.from_rows([[1, 1], [0, 1]]),
             ("e", 1, 1): IntMatrix.from_rows([[3, 5]])})
        assert F.validate() == []
        G = extend_semicubical(F, 2)
        assert validate_functoriality(G) == []
        assert G.rank_of(1, G.base.index[1]["b@del:1"]) == 1

    def test_extension_matches_constant(self):
        S = helpers.circle_semi()
        one = IntMatrix.identity(1)
        F = SemiCubicalSystem(S, {"v": 1, "e": 1},
                              {("e", 1, 0): one, ("e", 1, 1): one})
        G = extend_semicubical(F, 2)
        H = constant_system(helpers.circle().expand(2), 1)
        assert G.ranks == H.ranks
        assert G.face == H.face
        assert G.degen == H.degen
