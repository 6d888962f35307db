import random
from collections import Counter
from itertools import product
from math import comb

import pytest

from cubehom.boxcat import (
    CubeMorphism,
    FormalMorphismSum,
    cubical_identities,
    degeneracy,
    degeneracy_idempotent,
    face,
    hom_set,
    identity,
)

from helpers import epi_mono_factorize, mono_faces


class TestBasics:
    def test_identity_tokens(self):
        assert identity(0).tokens == ()
        assert identity(3).tokens == (1, 2, 3)
        assert identity(2).is_identity()

    def test_face_tokens(self):
        assert face(1, 1, 0).tokens == (0,)
        assert face(1, 1, 1).tokens == (-1,)
        assert face(3, 2, 1).tokens == (1, -1, 2)

    def test_degeneracy_tokens(self):
        assert degeneracy(1, 1).tokens == ()
        assert degeneracy(3, 2).tokens == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            CubeMorphism(1, 2, (2, 1))  # out of range
        with pytest.raises(ValueError):
            CubeMorphism(2, 2, (2, 1))  # decreasing
        with pytest.raises(ValueError):
            CubeMorphism(2, 2, (1, 1))  # repeated
        with pytest.raises(ValueError):
            face(2, 3, 0)
        with pytest.raises(ValueError):
            degeneracy(2, 0)

    def test_word_roundtrip(self):
        for m, n in product(range(3), repeat=2):
            for f in hom_set(m, n):
                assert CubeMorphism.from_word(m, f.token_word()) == f

    def test_word_rejects_junk(self):
        with pytest.raises(ValueError):
            CubeMorphism.from_word(2, "x1,2")
        with pytest.raises(ValueError):
            CubeMorphism.from_word(2, "x0")

    def test_evaluate(self):
        f = CubeMorphism(2, 3, (0, 2, -1))
        assert f((1, 0)) == (0, 0, 1)
        assert f((1, 1)) == (0, 1, 1)
        with pytest.raises(ValueError):
            f((1,))


class TestComposition:
    def test_compose_matches_vertex_maps(self):
        rng = random.Random(5)
        pool = {(m, n): hom_set(m, n) for m in range(4) for n in range(4)}
        for _ in range(200):
            a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            f = rng.choice(pool[(a, b)])
            g = rng.choice(pool[(b, c)])
            gf = g.compose(f)
            for p in product((0, 1), repeat=a):
                assert gf(p) == g(f(p))

    def test_associativity(self):
        rng = random.Random(6)
        pool = {(m, n): hom_set(m, n) for m in range(4) for n in range(4)}
        for _ in range(200):
            dims = [rng.randint(0, 3) for _ in range(4)]
            f = rng.choice(pool[(dims[0], dims[1])])
            g = rng.choice(pool[(dims[1], dims[2])])
            h = rng.choice(pool[(dims[2], dims[3])])
            assert h.compose(g.compose(f)) == h.compose(g).compose(f)

    def test_compose_dimension_check(self):
        with pytest.raises(ValueError):
            face(2, 1, 0).compose(face(3, 1, 0))


class TestRelations:
    def test_insert_insert(self):
        # inserting at j then i < j equals inserting at i then j-1
        for n in range(2, 5):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for alpha in (0, 1):
                        for beta in (0, 1):
                            lhs = face(n, j, beta).compose(face(n - 1, i, alpha))
                            rhs = face(n, i, alpha).compose(face(n - 1, j - 1, beta))
                            assert lhs == rhs

    def test_delete_delete(self):
        # deleting i then j (i <= j) equals deleting j+1 then i
        for n in range(2, 5):
            for i in range(1, n + 1):
                for j in range(i, n):
                    lhs = degeneracy(n - 1, j).compose(degeneracy(n, i))
                    rhs = degeneracy(n - 1, i).compose(degeneracy(n, j + 1))
                    assert lhs == rhs

    def test_delete_after_insert(self):
        for n in range(1, 5):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for eps in (0, 1):
                        got = degeneracy(n, j).compose(face(n, i, eps))
                        if i == j:
                            assert got.is_identity()
                        elif i < j:
                            assert got == face(n - 1, i, eps).compose(degeneracy(n - 1, j - 1))
                        else:
                            assert got == face(n - 1, i - 1, eps).compose(degeneracy(n - 1, j))


class TestCubicalIdentities:
    """The identity list against composition in the cube category, for top <= 5."""

    @staticmethod
    def morphism(n, path):
        # a path acts on a cube of dimension n; each step composes on the right
        f = identity(n)
        for step in path:
            f = f.compose(face(*step) if len(step) == 3 else degeneracy(step[0] + 1, step[1]))
        return f

    @pytest.mark.parametrize("top", range(6))
    def test_both_sides_are_one_morphism(self, top):
        for family, n, detail, lhs, rhs in cubical_identities(top):
            assert self.morphism(n, lhs) == self.morphism(n, rhs), (family, n, detail)

    @pytest.mark.parametrize("top", range(6))
    def test_instances_per_dimension(self, top):
        want = Counter()
        for n in range(2, top + 1):
            want["face-face", n] = 4 * comb(n, 2)
        for m in range(top - 1):
            want["degeneracy-degeneracy", m] = (m + 1) * (m + 2) // 2
        for m in range(top):
            want["face-degeneracy", m] = 2 * (m + 1) ** 2
        assert Counter((family, n) for family, n, *_ in cubical_identities(top)) == want

    @pytest.mark.parametrize("top", range(6))
    def test_no_entry_repeats(self, top):
        entries = cubical_identities(top)
        assert len({(n, lhs, rhs) for _, n, _, lhs, rhs in entries}) == len(entries)
        assert len({(family, detail, n) for family, n, detail, *_ in entries}) == len(entries)


class TestHomSets:
    def test_count_law(self):
        for m in range(6):
            for n in range(6):
                expected = sum(comb(m, k) * comb(n, k) * 2 ** (n - k) for k in range(min(m, n) + 1))
                assert len(hom_set(m, n)) == expected

    def test_no_duplicates(self):
        for m in range(4):
            for n in range(4):
                hs = hom_set(m, n)
                assert len(set(hs)) == len(hs)

    def test_generated_closure_matches_enumeration(self):
        # seed with identities, insertions and deletions up to dimension 3,
        # close under composition, and compare hom set by hom set
        top = 3
        sets = {(m, n): set() for m in range(top + 1) for n in range(top + 1)}
        for n in range(top + 1):
            sets[(n, n)].add(identity(n))
        for n in range(1, top + 1):
            for i in range(1, n + 1):
                for eps in (0, 1):
                    sets[(n - 1, n)].add(face(n, i, eps))
                sets[(n, n - 1)].add(degeneracy(n, i))
        changed = True
        while changed:
            changed = False
            snapshot = {k: tuple(v) for k, v in sets.items()}
            for (a, b), fs in snapshot.items():
                for (b2, c), gs in snapshot.items():
                    if b2 != b:
                        continue
                    bucket = sets[(a, c)]
                    for f in fs:
                        for g in gs:
                            gf = g.compose(f)
                            if gf not in bucket:
                                bucket.add(gf)
                                changed = True
        for m in range(top + 1):
            for n in range(top + 1):
                assert sets[(m, n)] == set(hom_set(m, n))


class TestFactorization:
    def test_epi_mono_parts(self):
        f = CubeMorphism(3, 3, (0, 2, -1))
        epi, mono = epi_mono_factorize(f)
        assert epi.is_epi() and mono.is_mono()
        assert mono.compose(epi) == f
        assert epi.tokens == (2,)
        assert mono.tokens == (0, 1, -1)

    def test_factorization_everywhere(self):
        for m in range(4):
            for n in range(4):
                for f in hom_set(m, n):
                    epi, mono = epi_mono_factorize(f)
                    assert epi.is_epi()
                    assert mono.is_mono()
                    assert mono.compose(epi) == f

    def test_epi_mono_flags(self):
        assert identity(2).is_epi() and identity(2).is_mono()
        assert degeneracy(2, 1).is_epi()
        assert not degeneracy(2, 1).is_mono()
        assert face(2, 1, 0).is_mono()
        assert not face(2, 1, 0).is_epi()

    def test_mono_faces_recompose(self):
        for r in range(3):
            for n in range(r, 4):
                for f in hom_set(r, n):
                    if not f.is_mono():
                        continue
                    peels = mono_faces(f)
                    # applying the peel list left to right contravariantly
                    # equals composing the faces right to left covariantly
                    cur = identity(r)
                    for slot, bit in reversed(peels):
                        cur = face(cur.dst_dim + 1, slot, bit).compose(cur)
                    assert cur == f

    def test_mono_faces_requires_mono(self):
        with pytest.raises(ValueError):
            mono_faces(degeneracy(1, 1))


class TestDegeneracyIdempotent:
    def test_idempotent(self):
        for k in range(4):
            z = degeneracy_idempotent(k)
            assert z.compose(z) == z

    def test_absorbs_non_monos(self):
        for k in range(1, 4):
            z = degeneracy_idempotent(k)
            for n in range(4):
                for f in hom_set(k, n):
                    if f.is_mono():
                        continue
                    fz = FormalMorphismSum.from_morphism(f).compose(z)
                    assert fz == FormalMorphismSum.from_morphism(f)

    def test_sum_arithmetic(self):
        f = FormalMorphismSum.from_morphism(identity(1))
        g = FormalMorphismSum.from_morphism(CubeMorphism(1, 1, (0,)))
        assert (f + g) - g == f
        assert (f - f).terms == {}
        assert f.scale(3).terms[identity(1)] == 3

    def test_sum_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            FormalMorphismSum.from_morphism(identity(1)) + FormalMorphismSum.from_morphism(identity(2))
