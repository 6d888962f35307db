"""sympy's Smith normal form as an independent oracle for the elimination.

The whole module skips where sympy is not installed; nothing in cubehom
imports it.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from cubehom.zlinalg import (  # noqa: E402
    FreeChainComplex,
    HomologyGroup,
    IntMatrix,
    cokernel_projection,
    homology_of_complex,
)


def random_matrices(seed, count=150):
    """Matrices up to 5 x 6 with entries in -6..6, about half of them zero,
    and every fifth one without a unit entry."""
    rng = random.Random(seed)
    for k in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        values = [x for x in range(-6, 7) if k % 5 or abs(x) != 1]
        yield IntMatrix(m, n, [[rng.choice(values) if rng.random() < 0.5 else 0
                                for _ in range(n)] for _ in range(m)])


def sympy_cokernel(a):
    """coker(a) from sympy's invariant factors over ZZ."""
    factors = [abs(int(x)) for x in
               invariant_factors(sympy.Matrix(a.data), domain=sympy.ZZ) if x]
    return HomologyGroup(a.rows - len(factors), tuple(sorted(x for x in factors if x > 1)))


@pytest.mark.parametrize("seed", [1, 2])
def test_homology_matches_sympy(seed):
    for a in random_matrices(seed):
        cx = FreeChainComplex([a.rows, a.cols], [a.sparse_rows()])
        assert homology_of_complex(cx) == (sympy_cokernel(a),), a


@pytest.mark.parametrize("seed", [3, 4])
def test_cokernel_torsion_matches_sympy(seed):
    for a in random_matrices(seed):
        expected = sympy_cokernel(a)
        pres = cokernel_projection(a)
        assert pres.torsion == expected.torsion, a
        assert pres.projection.rows == expected.betti, a
