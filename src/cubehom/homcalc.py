"""Chain and cochain complexes of cubical sets, from tables or from generators, and the drivers.

Boundary convention: d_k = sum over directions i of (-1)^i (lower face minus
upper face). Reported degrees are always strictly below the truncation of
the table, because the top-degree boundary out of unseen cubes is unknown.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .coeff import ContravariantSystem, is_local, transpose_system
from .cubset import (CubesTable, CubicalMap, PresentedCubicalSet, SemiCubicalSet, _equal_pairs,
                     _over_cube, _representable, fiber_source, universal_from_semicubical)
from .zlinalg import (
    FreeChainComplex,
    HomologyGroup,
    IntMatrix,
    cell_complex,
    cohomology_of_complex,
    cokernel_projection,
    homology_of_complex,
)


def _check_base(X: CubesTable, F, variance: str = "") -> None:
    if F.base is not X and F.base.keys != X.keys:
        raise ValueError("system is defined on a different table")
    if variance and F.variance != variance:
        raise ValueError(f"{'co' * (variance == 'covariant')}chain complexes take "
                         f"{variance} coefficients")


def _signed_faces(X: CubesTable, F, n: int, z: int, rows) -> dict:
    """The raw boundary of cube z at dimension n as {face cube index: (block, sign)}.

    Faces on a cube w with rows[w] == 0 are left out. Faces that land on the
    same cube are summed into one block of sign 1, so that each block is
    multiplied once by the projections of _normalize.
    """
    terms = {}
    for i in range(1, n + 1):
        for eps in (0, 1):
            w = X.face_index(n, i, eps, z)
            if rows[w]:
                terms.setdefault(w, []).append((F.face_matrix(n, i, eps, z), (-1) ** (i + eps)))
    return {w: t[0] if len(t) == 1 else (IntMatrix.from_blocks(
                [t[0][0].rows], [t[0][0].cols], [(0, 0, d, s) for d, s in t]), 1)
            for w, t in terms.items()}


class ComplexBuildReport(namedtuple("ComplexBuildReport", "complex blocks")):
    """A normalized FreeChainComplex plus the per-cube maps relating it to the raw one.

    blocks[n][z] = (P, S) for cube z at dimension n: P projects the summand
    of z onto its part of the normalized complex, S is a section of P, and
    P * S is the identity. Non-degenerate cubes carry (I, I).
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def _pair(r: int, kept: bool):
    """The pair of a kept or a dropped summand of rank r, shared since matrices are immutable."""
    eye = IntMatrix.identity(r)
    return (eye, eye) if kept else (IntMatrix.zeros(0, r), IntMatrix.zeros(r, 0))


def _normalize(X: CubesTable, F) -> ComplexBuildReport:
    """Normalized chains, built block by block from one pair (P, S) per cube.

    _cokernel_pair gives the pair of a degenerate cube z from the (i, x)
    with s_i x = z, read off its degeneracy mask as x = d_{i,0} z. In
    cell_complex every cube z is a cell of rank P_z.rows, with the block
    P_w * d_raw[w, z] * S_z for each face w it has. A cube with no
    degeneracy arriving has the identity pair, which is not multiplied, and
    a face whose P_w has no rows, or a cube whose S_z has no columns, gives
    no block. The boundary must carry degenerate chains to degenerate
    chains, otherwise the quotient complex would be meaningless, so every
    P_w * d_raw[w, z] * s_i(x) must vanish.
    """
    _check_base(X, F, "contravariant")
    blocks, arrivals = [], []
    for n, masks in enumerate(X.degeneracy_masks()):
        arriving = [[(i, X.face[(n, i, 0)][z]) for i in range(1, n + 1) if mask >> i & 1]
                    for z, mask in enumerate(masks)]
        blocks.append([_cokernel_pair(X, F, n, z, arriving[z]) if arriving[z]
                       else _pair(F.rank_of(n, z), True) for z in range(X.size(n))])
        arrivals.append(arriving)
    sizes = [[p.rows for p, _ in level] for level in blocks]

    def faces(n):
        for z in range(X.size(n)):
            for w, (d, sign) in _signed_faces(X, F, n, z, sizes[n - 1]).items():
                pd = blocks[n - 1][w][0] * d if arrivals[n - 1][w] else d
                for i, x in arrivals[n][z]:
                    if not (pd * F.degen_matrix(n - 1, i, x)).is_zero():
                        raise ValueError(
                            f"boundary does not preserve degenerate chains at dimension {n}")
                if sizes[n][z]:
                    yield w, z, pd * blocks[n][z][1] if arrivals[n][z] else pd, sign

    return ComplexBuildReport(cell_complex([range(len(s)) for s in sizes], sizes, faces), blocks)


def _cokernel_pair(X: CubesTable, F, n: int, z: int, arriving):
    mats = [F.degen_matrix(n - 1, i, x) for i, x in arriving]
    span = IntMatrix.from_blocks([F.rank_of(n, z)], [m.cols for m in mats],
                                 [(0, p, m, 1) for p, m in enumerate(mats)])
    pres = cokernel_projection(span)
    if pres.torsion:
        raise ValueError(
            f"degenerate quotient at dim {n} cube {X.key(n, z)} has torsion "
            f"{pres.torsion}; coefficient system is not functorial")
    return pres.projection, pres.section


def _local_complex(X: CubesTable, F) -> ComplexBuildReport:
    """Normalized chains of a unimodular F: cell_complex on the non-degenerate cubes.

    Face (i, eps) of a cell adds its matrix with sign (-1)^(i + eps) when
    the face is a cell. Every table obeys boxcat.cubical_identities (expand,
    _pullback and cubical_nerve by construction, documents by
    CubesTable.validate at load): d_i^eps s_i = id, and d_j^eps s_i x is
    degenerate for j != i. So a degenerate z has a face with rows only when
    z = s_i x for x non-degenerate of non-zero rank: x, by (i, 0) and (i, 1)
    with opposite signs. There the guard of _normalize is F.face(n, i, 0, z)
    * F.degen(n-1, i, x) == F.face(n, i, 1, z) * F.degen(n-1, i, x), tested
    once per distinct triple of matrix objects.
    """
    _check_base(X, F, "contravariant")
    cells = [X.nondegenerate_indices(n) for n in range(X.top + 1)]
    sizes = [[F.rank_of(n, x) for x in level] for n, level in enumerate(cells)]
    tested = set()

    def faces(n):
        for i, x in product(range(1, n + 1), [x for x, r in zip(cells[n - 1], sizes[n - 1]) if r]):
            z, s = X.degen_map[(n - 1, i)][x], F.degen[(n - 1, i)][x]
            a, b = F.face[(n, i, 0)][z], F.face[(n, i, 1)][z]
            key = (id(a), id(b), id(s))
            if key not in tested and a * s != b * s:
                raise ValueError(f"boundary does not preserve degenerate chains at dimension {n}")
            tested.add(key)
        cols = [(X.face[(n, i, eps)], F.face[(n, i, eps)], (-1) ** (i + eps))
                for i in range(1, n + 1) for eps in (0, 1)]
        return ((w[z], p, m[z], sign) for p, z in enumerate(cells[n]) for w, m, sign in cols)

    pairs = [[_pair(F.rank_of(n, z), not d) for z, d in enumerate(X.degenerate[n])]
             for n in range(X.top + 1)]
    return ComplexBuildReport(cell_complex(cells, sizes, faces), pairs)


def normalized_complex(X: CubesTable, F: ContravariantSystem) -> ComplexBuildReport:
    """Quotient by the images of all degeneracy operators, block by block.

    Each degeneracy lands inside the summand of a single degenerate cube, so
    the quotient is a direct sum of small cokernels. The quotient must be
    free (it is, for functorial systems); torsion raises.
    """
    return _normalize(X, F)


def normalized_complex_local(X: CubesTable, F: ContravariantSystem, *,
                             checked: bool = False) -> ComplexBuildReport:
    """The local route (see _local_complex); checked=True skips the is_local test."""
    if not checked and not is_local(F):
        raise ValueError("local path requires a unimodular system")
    return _local_complex(X, F)


def generator_complex(X: PresentedCubicalSet, ranks: dict[str, int], face_matrices,
                      top: int) -> FreeChainComplex:
    """Normalized chains to dimension top of a local system (ranks, face matrices) on X.

    Every cube is one degeneracy of one generator (Grandis and Mauri, TAC
    11, 2003), so the n-cells are the n-dimensional generators in order, and
    face (i, eps) of g adds g's matrix with sign (-1)^(i + eps) unless it is
    degenerate: then its generator has a lower dimension, and cell_complex
    drops it. The degenerate-chain guard of _normalize has nothing to check
    here: degeneracies, and faces along deleted coordinates, are identities
    by construction.
    """
    cells = [[g for g, d in X.generators.items() if d == n] for n in range(top + 1)]
    return cell_complex(cells, [[ranks[g] for g in level] for level in cells], lambda n: (
        (X.faces[(g, i, eps)].gen, p, face_matrices[(g, i, eps)], (-1) ** (i + eps))
        for p, g in enumerate(cells[n]) for i in range(1, n + 1) for eps in (0, 1)))


def _groups(X, F, max_dim: int, cochains: bool, path: str = "auto"):
    """The argument checks and route choice of homology and cohomology.

    X is a table with a system F on it, or a presented set with F =
    (variance, ranks, face matrices), a local system on its generators.
    """
    mark, want = ("H^", "covariant") if cochains else ("H_", "contravariant")
    if isinstance(X, CubesTable):
        _check_base(X, F)
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    if isinstance(X, PresentedCubicalSet):
        variance, ranks, mats = F
        if variance != want:
            raise ValueError(f"{'co' * cochains}chain complexes take {want} coefficients")
        cx = generator_complex(X, ranks, {k: m.transpose() for k, m in mats.items()}
                               if cochains else mats, max_dim + 1)
    elif X.top < max_dim + 1:
        raise ValueError(
            f"computing {mark}0..{mark}{max_dim} needs cubes up to dimension {max_dim + 1}, "
            f"table stops at {X.top}")
    elif cochains:
        cx = cochain_complex(X, F).complex
    elif path not in ("auto", "local", "generic"):
        raise ValueError(f"path must be auto, local, or generic, got {path!r}")
    elif (is_local(F) if path == "auto" else path == "local"):
        cx = normalized_complex_local(X, F, checked=path == "auto").complex
    else:
        cx = normalized_complex(X, F).complex
    return (cohomology_of_complex if cochains else homology_of_complex)(
        cx.truncate(max_dim + 1))


def homology(X, F, max_dim: int, path: str = "auto") -> tuple[HomologyGroup, ...]:
    """Homology of F on X, a table or a presented set, in degrees 0..max_dim (see _groups)."""
    return _groups(X, F, max_dim, False, path)


class CochainBuildReport(namedtuple("CochainBuildReport", "complex")):
    """A normalized cochain complex, held as the FreeChainComplex it is the dual of.

    ranks[k] is the rank of C^k and deltas[k] = d^k, the transpose of the
    boundary d_{k+1} of complex.
    """

    __slots__ = ()

    @property
    def ranks(self) -> list[int]:
        return list(self.complex.ranks)

    @property
    def deltas(self) -> list[IntMatrix]:
        return [d.transpose() for d in self.complex.boundaries]


def cochain_complex(X: CubesTable, G) -> CochainBuildReport:
    """Normalized cochains as the dual of the normalized chains of G transposed.

    The projection P_z of a degenerate cube is made of rows of a unimodular
    matrix, so its transpose is a saturated basis of the joint kernel of the
    degeneracy maps of G at z, and the transposed section is a left inverse
    of it. Hence d^k is the transpose of d_{k+1}, and the torsion and
    degenerate-chain guards of the chain builder hold for cochains too. The
    route is local when is_local holds for G transposed, else generic.
    """
    _check_base(X, G, "covariant")
    F = transpose_system(G)
    return CochainBuildReport((_local_complex if is_local(F) else _normalize)(X, F).complex)


def cohomology(X, G, max_dim: int) -> tuple[HomologyGroup, ...]:
    """Cohomology of G on X, a table or a presented set, in degrees 0..max_dim (see _groups)."""
    return _groups(X, G, max_dim, True)


def semicubical_homology(S: SemiCubicalSet, F, max_dim: int) -> tuple[HomologyGroup, ...]:
    """Homology of a semi-cubical set: generator_complex of its universal extension."""
    if F.base is not S and getattr(F.base, "levels", None) != S.levels:
        raise ValueError("system is defined on a different semi-cubical set")
    if S.top_dim < max_dim + 1:
        raise ValueError(
            f"computing H_0..H_{max_dim} needs cubes up to dimension {max_dim + 1}, "
            f"set stops at {S.top_dim}")
    return homology(universal_from_semicubical(S), (F.variance, F.ranks, F.face), max_dim)


class FiberRow(namedtuple("FiberRow", "dim key groups ok")):
    """One cube of the target: its dimension, key, fiber groups, and whether they are a point's."""

    __slots__ = ()


class FiberCriterionReport(namedtuple("FiberCriterionReport", "passed rows")):
    """Whether every fiber has the homology of a point, and one FiberRow per target cube."""

    __slots__ = ()


def _fiber_row(source, ty: CubesTable, n: int, iy: int, max_dim: int, top: int) -> FiberRow:
    """Homology of the fiber over the n-cube iy of ty, from the cells of X x_Y I^n.

    source is fiber_source's leg over ty. The cells are the non-degenerate
    pairs of pullback_fiber's table, in its order, and face (i, eps) of a
    pair is the pair of faces (i, eps), so the complex is _local_complex's
    with a rank-1 constant system. Its degenerate-chain guard is vacuous, as
    every matrix is one 1 x 1 identity; cell_complex still checks d . d = 0.
    """
    tx, images, masks = source
    cube, alphas, cube_masks = _over_cube(ty, n, iy, top)
    cells = [[(x, a) for x, a in _equal_pairs(images[k], alphas[k])
              if not masks[k][x] & cube_masks[k][a]] for k in range(top + 1)]
    one = IntMatrix.identity(1)
    cx = cell_complex(cells, [[1] * len(level) for level in cells], lambda k: (
        ((tx.face[(k, i, eps)][x], cube.face[(k, i, eps)][a]), p, one, (-1) ** (i + eps))
        for p, (x, a) in enumerate(cells[k]) for i in range(1, k + 1) for eps in (0, 1)))
    groups = homology_of_complex(cx.truncate(max_dim + 1))
    expected = tuple(HomologyGroup(1 if d == 0 else 0, ()) for d in range(max_dim + 1))
    return FiberRow(n, ty.key(n, iy), groups, groups == expected)


def fiber_criterion(f: CubicalMap, max_dim: int, top: int) -> FiberCriterionReport:
    """Check that every fiber of f has the homology of a point.

    Every cube of the target's truncation at top is tested; fibers are
    truncated at top as well, so top must be at least max_dim + 1. Source
    and target are expanded once, and the source's table and images are
    shared by every fiber, as are the tables of the representables; the
    largest, I^top to top, is built (or refused) before anything else. No
    fiber table or system is built (see _fiber_row).
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    if top < max_dim + 1:
        raise ValueError("fiber truncation must exceed the requested degree")
    if f.target.generators:
        _representable(top, top)
    ty = f.target.expand(top)
    source = fiber_source(f, top, ty)
    rows = tuple(_fiber_row(source, ty, n, iy, max_dim, top)
                 for n in range(ty.top + 1) for iy in range(ty.size(n)))
    return FiberCriterionReport(all(r.ok for r in rows), rows)
