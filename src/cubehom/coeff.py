"""Coefficient systems on cubical sets: free abelian values, integer matrices.

A system assigns a rank to every cube of a tabulated set and a matrix to
every face and degeneracy operator. Contravariant systems point from a cube
to its faces and degeneracies (that is the shape chain complexes eat);
covariant systems point the other way and feed cochain complexes.

A system is laid out like the table it lives on: ranks are keyed by
(dimension, cube index), and each face or degeneracy operator holds one
column with a matrix per cube, indexed like the operator's index column in
the table. Cube keys appear only in error messages here, and the JSON
documents of formats are the one place that converts between keys and
indices.

validate_functoriality checks a system against every instance of the
cubical identities on every cube. A local system, face matrices on the
generators of a presented set, is checked on the generators alone, with no
table (check_generator_matrices), and so are semi-cubical systems: both go
through PresentedCubicalSet.face_face_failures, the evaluator that checks
the set's own face commutation, with matrices as the sides' values.
"""

from __future__ import annotations

from itertools import groupby, repeat
from operator import attrgetter, is_

from .boxcat import cubical_identities, identity_failures
from .cubset import (
    CubesTable,
    CubicalMap,
    PresentedCubicalSet,
    SemiCubicalSet,
    _deletion_plan,
    universal_from_semicubical,
)
from .zlinalg import IntMatrix, det


class _TableSystem:
    """Common storage for both variances, laid out like base.

    ranks[(n, idx)] is the rank on cube idx of dimension n. face[(n, i,
    eps)] is a tuple with one matrix per cube of dimension n, the matrix of
    its face (i, eps), and degen[(m, i)] one with the matrix of the i-th
    degeneracy of each cube of dimension m: the operator keys and columns of
    base.face and base.degen_map. A matrix a document leaves out is None.
    """

    variance = "unset"

    def __init__(self, base: CubesTable,
                 ranks: dict[tuple[int, int], int],
                 face: dict[tuple[int, int, int], tuple[IntMatrix, ...]],
                 degen: dict[tuple[int, int], tuple[IntMatrix, ...]]):
        self.base = base
        self.ranks = dict(ranks)
        self.face = dict(face)
        self.degen = dict(degen)

    def rank_of(self, n: int, idx: int) -> int:
        return self.ranks[(n, idx)]

    def face_matrix(self, n: int, i: int, eps: int, idx: int) -> IntMatrix:
        return self.face[(n, i, eps)][idx]

    def degen_matrix(self, m: int, i: int, idx: int) -> IntMatrix:
        return self.degen[(m, i)][idx]


class ContravariantSystem(_TableSystem):
    """Face matrix at x maps the value on x to the value on the face."""

    variance = "contravariant"


class CovariantSystem(_TableSystem):
    """Face matrix at x maps the value on the face to the value on x."""

    variance = "covariant"


def _system_class(variance: str):
    if variance == "contravariant":
        return ContravariantSystem
    if variance == "covariant":
        return CovariantSystem
    raise ValueError(f"variance must be contravariant or covariant, got {variance!r}")


def constant_system(base: CubesTable, rank: int, variance: str = "contravariant"):
    """Rank r on every cube, identity on every operator."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    eye = IntMatrix.identity(rank)
    ranks = {(n, idx): rank for n in range(base.top + 1) for idx in range(base.size(n))}
    return _system_class(variance)(base, ranks,
                                   {op: (eye,) * base.size(op[0]) for op in base.face},
                                   {op: (eye,) * base.size(op[0]) for op in base.degen_map})


def validate_functoriality(F) -> list[str]:
    """Check shapes, then every instance of cubical_identities on every cube.

    Each instance is evaluated column by column over the cubes of its
    dimension, by _path_values.
    """
    base = F.base
    report = []
    contra = F.variance == "contravariant"
    if not contra and F.variance != "covariant":
        return [f"unknown variance {F.variance!r}"]

    for n in range(base.top + 1):
        for idx in range(base.size(n)):
            if (n, idx) not in F.ranks:
                report.append(f"missing rank for dim-{n} cube {base.key(n, idx)}")
            elif F.ranks[(n, idx)] < 0:
                report.append(f"negative rank at {base.key(n, idx)}")

    def column_fine(columns, table, op, dst, what):
        """Check the column of op; cube idx of dim op[0] goes to table[op][idx] at dim dst."""
        n, fine = op[0], True
        for idx, mat in enumerate(columns.get(op, (None,) * base.size(n))):
            if mat is None:
                report.append(f"missing {what} at {base.key(n, idx)}")
                fine = False
                continue
            src, image = F.ranks.get((n, idx)), F.ranks.get((dst, table[op][idx]))
            want = (image, src) if contra else (src, image)
            if None not in want and (mat.rows, mat.cols) != want:
                report.append(f"{what} at {base.key(n, idx)} has shape {mat.rows}x{mat.cols}, "
                              f"expected {want[0]}x{want[1]}")
                fine = False
        return fine

    shapes_fine = not report
    for n in range(1, base.top + 1):
        for i in range(1, n + 1):
            for eps in (0, 1):
                shapes_fine = column_fine(F.face, base.face, (n, i, eps), n - 1,
                                          f"face matrix ({n},{i},{eps})") and shapes_fine
    for m in range(base.top):
        for i in range(1, m + 2):
            shapes_fine = column_fine(F.degen, base.degen_map, (m, i), m + 1,
                                      f"degeneracy matrix ({m},{i})") and shapes_fine
    if not shapes_fine:
        return report

    values = _path_values(F)
    failures = identity_failures(cubical_identities(base.top),
                                 lambda n, path: values(n, path, range(base.size(n))))
    return [f"{family} identity fails at dim {n} cube {base.key(n, idx)} ({detail})"
            for family, n, idx, detail, _, _ in failures]


def _path_values(F):
    """values(n, path, at): the matrix of path at each cube index in at, of dimension n.

    The one evaluator of cubical_identities on a table's system; F's shapes
    must be checked first. A product of two matrix objects is formed once
    per _path_values call, since F holds every operand while values lives.
    """
    base = F.base
    contra = F.variance == "contravariant"
    products = {}
    eyes = {r: IntMatrix.identity(r) for r in set(F.ranks.values())}

    def then(m, s):
        """The matrix of an operator with matrix m followed by one with matrix s."""
        key = (id(m), id(s))
        if key not in products:
            products[key] = s * m if contra else m * s
        return products[key]

    def values(n, path, at):
        if not path:
            return [eyes[F.ranks[(n, idx)]] for idx in at]
        mats = None
        for op in path:
            column, table = ((F.face[op], base.face[op]) if len(op) == 3
                             else (F.degen[op], base.degen_map[op]))
            step = [column[x] for x in at]
            mats = step if mats is None else [then(m, s) for m, s in zip(mats, step)]
            at = [table[x] for x in at]
        return mats

    return values


def _distinct_matrices(F) -> dict[int, IntMatrix]:
    """Every matrix object of F once by id; a column repeating one object takes no id per entry."""
    out = {}
    for col in (*F.face.values(), *F.degen.values()):
        same = col and all(map(is_, col, repeat(col[0])))
        out.update(zip(map(id, col[:1] if same else col), col))
    return out


def transpose_system(F):
    """Swap variance by transposing every matrix.

    A matrix object that F shares between operators is transposed once, and
    its transpose is shared between the same operators.
    """
    cls = CovariantSystem if F.variance == "contravariant" else ContravariantSystem
    t = {i: m.transpose() for i, m in _distinct_matrices(F).items()}
    return cls(F.base, F.ranks,
               {op: tuple(t[id(m)] for m in col) for op, col in F.face.items()},
               {op: tuple(t[id(m)] for m in col) for op, col in F.degen.items()})


def is_local(F) -> bool:
    """True when every operator matrix is square with determinant +-1.

    A matrix object shared by many operators, such as the one identity of a
    constant system, is tested once.
    """
    return all(m.rows == m.cols and det(m) in (1, -1)
               for m in _distinct_matrices(F).values())


def _generated_system(cls, base: CubesTable, gen_ranks: dict[str, int],
                      gen_face_matrices: dict[tuple[str, int, int], IntMatrix]):
    """The system on base, an expansion of a presented set, fixed by its generators.

    The cube (g, epi) takes g's rank. Its face (i, eps) is the identity when
    epi deletes coordinate i, and g's matrix at (p, eps) when epi keeps i as
    its p-th coordinate, with p read off the deletion plan of g's block, as expand reads
    it, so base must be laid out as expand lays it out. Degeneracies are identities. Equal
    matrices are one shared object, and each generator matrix is resolved to it once.
    """
    eyes = {r: IntMatrix.identity(r) for r in set(gen_ranks.values())}
    shared = {eye: eye for eye in eyes.values()}
    mats = {key: shared.setdefault(m, m) for key, m in gen_face_matrices.items()}
    blocks = [[(g, eyes[gen_ranks[g]], _deletion_plan(n, next(run).gen_dim))
               for g, run in groupby(level, attrgetter("gen"))]
              for n, level in enumerate(base.elements)]
    if any([(c.gen, c.epi.tokens) for c in level]
           != [(g, e.tokens) for g, _, plan in row for e in plan.epis]
           for level, row in zip(base.elements, blocks)):
        raise ValueError("base is not laid out as expand lays out a presented set")
    eye_columns = [tuple(eyes[gen_ranks[c.gen]] for c in level) for level in base.elements]

    def column(n, i, eps):
        return tuple([mats[(g, p, eps)] if p else eye
                      for g, eye, plan in blocks[n] for p, _ in plan.faces[i - 1]])

    ranks = {(n, idx): gen_ranks[c.gen]
             for n in range(base.top + 1) for idx, c in enumerate(base.elements[n])}
    return cls(base, ranks, {op: column(*op) for op in base.face},
               {(m, i): eye_columns[m] for m, i in base.degen_map})


def _face_face_failures(X: PresentedCubicalSet, ranks: dict[str, int], face_matrices,
                        variance: str, top: int) -> list:
    """X.face_face_failures with the matrices of _generated_system as the sides' values.

    The side of the face entry k, the cube (h, epi), is k's matrix followed
    by h's matrix at (p, a) when epi keeps i as its p-th coordinate, else by
    the identity.
    """
    contra = variance == "contravariant"
    eyes = {r: IntMatrix.identity(r) for r in set(ranks.values())}

    def side(k, c, i, a):
        first, kept = face_matrices[k], c.epi.tokens
        then = face_matrices[(c.gen, kept.index(i) + 1, a)] if i in kept else eyes[ranks[c.gen]]
        return then * first if contra else first * then

    return X.face_face_failures(side, top)


def check_generator_matrices(X: PresentedCubicalSet, rank: int, gen_face_matrices,
                             variance: str, top: int):
    """(variance, ranks by generator, gen_face_matrices): a rank-r local system on X.

    Raises if the keys are not X's faces, a matrix is not a rank x rank
    unit, or functoriality fails up to dimension top. That is checked at the
    generators, with no table, by X.face_face_failures (_face_face_failures):
    each side is the matrix of one of g's face entries followed by one matrix
    read off that face's deletion map, with no _face_of. Degeneracies, and
    faces along deleted coordinates, are identities, so on a cube (g, epi) an
    instance is a face-face instance on g's cube, renumbered, or has one
    matrix of g, or none, between identities. A failure, or a negative rank,
    builds the system on X's table to top for validate_functoriality to word.
    """
    cls = _system_class(variance)
    keys, faces = set(gen_face_matrices), set(X.faces)
    if keys != faces:
        raise ValueError(f"face matrix keys do not match generators "
                         f"(missing {sorted(faces - keys)}, extra {sorted(keys - faces)})")
    for k, m in gen_face_matrices.items():
        if (m.rows, m.cols) != (rank, rank):
            raise ValueError(f"matrix at {k} is {m.rows}x{m.cols}, expected {rank}x{rank}")
        if det(m) not in (1, -1):
            raise ValueError(f"matrix at {k} has determinant {det(m)}, not a unit")
    ranks = dict.fromkeys(X.generators, rank)
    if rank < 0 or _face_face_failures(X, ranks, gen_face_matrices, variance, top):
        F = _generated_system(cls, X.expand(top), ranks, gen_face_matrices)
        raise ValueError("generator matrices are not functorial: "
                         + "; ".join(validate_functoriality(F)[:3]))
    return variance, ranks, gen_face_matrices


def local_system(X: PresentedCubicalSet, base: CubesTable, rank: int,
                 gen_face_matrices: dict[tuple[str, int, int], IntMatrix],
                 variance: str = "contravariant"):
    """Rank-r system on base, an expansion of X, from checked face matrices on generators."""
    _, ranks, _ = check_generator_matrices(X, rank, gen_face_matrices, variance, base.top)
    return _generated_system(_system_class(variance), base, ranks, gen_face_matrices)


def pullback_system(f: CubicalMap, F):
    """Restrict a system on the target of f along f; matrices are reused as is.

    Each column of the pullback gathers F's column through the table map, as
    cubset.pullback_fiber gathers index columns.
    """
    top = F.base.top
    tx = f.source.expand(top)
    tm = f.table_map(tx, F.base)
    ranks = {(n, idx): F.rank_of(n, iy) for n in range(top + 1) for idx, iy in enumerate(tm[n])}
    return type(F)(tx, ranks,
                   {op: tuple(col[iy] for iy in tm[op[0]]) for op, col in F.face.items()},
                   {op: tuple(col[iy] for iy in tm[op[0]]) for op, col in F.degen.items()})


def direct_image(f: CubicalMap, F: ContravariantSystem):
    """Push a contravariant system forward along f by summing over fibers.

    The value on a target cube y is the direct sum of the values on all
    source cubes over y; operator matrices are block matrices with one block
    per fiber element, placed by where the operator sends it.
    """
    if F.variance != "contravariant":
        raise ValueError("direct image is only defined for contravariant systems")
    top, tx = F.base.top, F.base
    ty = f.target.expand(top)
    tm = f.table_map(tx, ty)
    fibers = [[[] for _ in range(ty.size(n))] for n in range(top + 1)]
    place = []  # place[n][ix]: where the source cube ix of dim n sits in its fiber
    for level, images in zip(fibers, tm):
        place.append([])
        for ix, iy in enumerate(images):
            place[-1].append(len(level[iy]))
            level[iy].append(ix)
    sizes = [[[F.rank_of(n, ix) for ix in fiber] for fiber in level]
             for n, level in enumerate(fibers)]
    ranks = {(n, iy): sum(s) for n, level in enumerate(sizes) for iy, s in enumerate(level)}

    def column(n, dst, mats, in_x, in_y):
        """One block matrix per target cube of dim n, for an operator into dim dst.

        mats is the operator's column in F, in_x and in_y its index columns
        in tx and ty.
        """
        at = place[dst]
        return tuple(IntMatrix.from_blocks(sizes[dst][in_y[iy]], sizes[n][iy],
                                           [(at[in_x[ix]], p, mats[ix], 1)
                                            for p, ix in enumerate(fiber)])
                     for iy, fiber in enumerate(fibers[n]))

    return ContravariantSystem(
        ty, ranks,
        {op: column(op[0], op[0] - 1, F.face[op], tx.face[op], ty.face[op]) for op in ty.face},
        {op: column(op[0], op[0] + 1, F.degen[op], tx.degen_map[op], ty.degen_map[op])
         for op in ty.degen_map})


class SemiCubicalSystem:
    """Ranks and face matrices on a semi-cubical set (no degeneracies)."""

    variance = "contravariant"

    def __init__(self, base: SemiCubicalSet,
                 ranks: dict[str, int],
                 face: dict[tuple[str, int, int], IntMatrix]):
        self.base = base
        self.ranks = dict(ranks)
        self.face = dict(face)

    def validate(self) -> list[str]:
        """The problems of the set, else those of the ranks, shapes and face-face identities."""
        S = self.base
        if report := S.validate():
            return report
        for n, level in enumerate(S.levels):
            for name in level:
                if name not in self.ranks:
                    report.append(f"missing rank for {name}")
                elif self.ranks[name] < 0:
                    report.append(f"negative rank at {name}")
        for k in sorted(set(S.faces) - set(self.face)):
            report.append(f"missing face matrix {k}")
        for k in sorted(set(self.face) - set(S.faces)):
            report.append(f"unexpected face matrix {k}")
        if report:
            return report
        for (x, i, eps), m in self.face.items():
            want = (self.ranks[S.faces[(x, i, eps)]], self.ranks[x])
            if (m.rows, m.cols) != want:
                report.append(f"face matrix ({x},{i},{eps}) has shape "
                              f"{m.rows}x{m.cols}, expected {want[0]}x{want[1]}")
        if report:
            return report
        U = universal_from_semicubical(S)
        return [f"face-face identity fails at {x} ({detail})" for x, detail, _, _
                in _face_face_failures(U, self.ranks, self.face, self.variance, S.top_dim)]


def extend_semicubical(F: SemiCubicalSystem, top: int) -> ContravariantSystem:
    """Extend a semi-cubical system to the freely degenerated set.

    Values are copied from the underlying non-degenerate cube, degeneracy
    matrices are identities, and the face (i, eps) of a cube is the identity
    or one face matrix of its non-degenerate cube, as _generated_system
    reads off the cube's deletion map. Equal matrices are one shared object.
    """
    X = universal_from_semicubical(F.base)
    return _generated_system(ContravariantSystem, X.expand(top), F.ranks, F.face)


class FiniteDiagram:
    """A functor from a finite category to free abelian groups.

    The category is anything with .objects, .morphisms (name -> (src, dst)),
    .identity_of(obj), and .compose(second, first).
    """

    def __init__(self, category, ranks: dict[str, int], matrices: dict[str, IntMatrix]):
        self.category = category
        self.ranks = dict(ranks)
        self.matrices = dict(matrices)

    def rank_of(self, obj: str) -> int:
        return self.ranks[obj]

    def matrix(self, morphism: str) -> IntMatrix:
        return self.matrices[morphism]

    def validate(self) -> list[str]:
        report = []
        C = self.category
        for obj in C.objects:
            if obj not in self.ranks:
                report.append(f"missing rank for object {obj}")
        for name, (src, dst) in C.morphisms.items():
            if name not in self.matrices:
                report.append(f"missing matrix for morphism {name}")
            elif src in self.ranks and dst in self.ranks:
                m = self.matrices[name]
                if (m.rows, m.cols) != (self.ranks[dst], self.ranks[src]):
                    report.append(f"matrix for {name} has shape {m.rows}x{m.cols}, "
                                  f"expected {self.ranks[dst]}x{self.ranks[src]}")
        if report:
            return report
        for obj in C.objects:
            if self.matrices[C.identity_of(obj)] != IntMatrix.identity(self.ranks[obj]):
                report.append(f"identity of {obj} is not the identity matrix")
        leaving = {}  # the morphisms out of each object, in C.morphisms order
        for h, (hs, _) in C.morphisms.items():
            leaving.setdefault(hs, []).append(h)
        for g, (_, gd) in C.morphisms.items():
            for h in leaving.get(gd, ()):
                comp = C.compose(h, g)
                if self.matrices[comp] != self.matrices[h] * self.matrices[g]:
                    report.append(f"composition fails: {h} after {g} is {comp} "
                                  f"but matrices disagree")
        return report


def system_from_diagram_last_vertex(C, F: FiniteDiagram, N: CubesTable) -> ContravariantSystem:
    """Coefficients on a nerve table from a diagram on the opposite category.

    The value on a cube is the diagram's value at the cube's final vertex.
    Face (i, 1) shares that vertex, so its matrix is the diagram's identity
    there; face (i, 0) ends one edge below it in direction i, and its matrix
    is the diagram's matrix on that edge, read in the opposite category.
    Degeneracies keep the final vertex, so their matrices are identities,
    one shared matrix per rank. Labels are read at one CubeFunctor.position.
    """
    from .catalg import CubeFunctor
    last = [[x.vertex_labels[k] for x in level] for n, level in enumerate(N.elements)
            for k in [CubeFunctor.position(n, (1,) * n)]]
    ranks = {(n, idx): F.rank_of(v) for n, level in enumerate(last) for idx, v in enumerate(level)}
    identities = [tuple(F.matrix(C.identity_of(v)) for v in level) for level in last]

    def column(n, i, eps):
        ones = (1,) * n
        k = CubeFunctor.position(n, ones[:i - 1] + (0,) + ones[i:], ones)
        return identities[n] if eps else tuple([F.matrix(x.edge_labels[k]) for x in N.elements[n]])

    eyes = {r: IntMatrix.identity(r) for r in set(ranks.values())}
    return ContravariantSystem(
        N, ranks, {op: column(*op) for op in N.face},
        {(m, i): tuple(eyes[ranks[(m, idx)]] for idx in range(N.size(m)))
         for m, i in N.degen_map})


def natural_system_via_d(C, G: FiniteDiagram, N: CubesTable) -> CovariantSystem:
    """Coefficients on a nerve table from a diagram on the factorization category.

    The value on a cube is the diagram's value at the cube's long diagonal,
    tabulated level by level: an n-cube's diagonal is its last edge after
    the diagonal of its face (n, 0). Face (i, eps) factors the cube's
    diagonal beta as v . alpha . u, with alpha the face's diagonal and one
    of u, v an edge in direction i (u out of the first vertex for eps = 1, v
    into the final vertex for eps = 0), the other an identity. Its matrix
    is the diagram's matrix on "alpha|beta|u|v", looked up once per distinct
    arrow, and a degeneracy's is the one on "beta|beta|1|1".
    """
    from .catalg import CubeFunctor
    ids, found = {obj: C.identity_of(obj) for obj in C.objects}, {}
    ends = [[[ids[x.vertex_labels[k]] for x in level]  # identities at first and final vertices
             for k in (CubeFunctor.position(n, (0,) * n), CubeFunctor.position(n, (1,) * n))]
            for n, level in enumerate(N.elements)]
    diagonals = [ends[0][0]]
    for n in range(1, N.top + 1):
        ones = (1,) * n
        k = CubeFunctor.position(n, ones[:-1] + (0,), ones)
        diagonals.append([C.compose(x.edge_labels[k], diagonals[n - 1][f])
                          for x, f in zip(N.elements[n], N.face[(n, n, 0)])])
    ranks = {(n, idx): G.rank_of(d)
             for n, level in enumerate(diagonals) for idx, d in enumerate(level)}

    def column(n, i, eps):
        zeros, ones = (0,) * n, (1,) * n
        up, down = zeros[:i - 1] + (1,) + zeros[i:], ones[:i - 1] + (0,) + ones[i:]
        k = CubeFunctor.position(n, zeros, up) if eps else CubeFunctor.position(n, down, ones)
        edge, (first, last) = [x.edge_labels[k] for x in N.elements[n]], ends[n]
        keys = list(zip(map(diagonals[n - 1].__getitem__, N.face[(n, i, eps)]), diagonals[n],
                        edge if eps else first, last if eps else edge))
        found.update({key: G.matrix("%s|%s|%s|%s" % key)
                      for key in dict.fromkeys(keys) if key not in found})
        return tuple(map(found.__getitem__, keys))

    face = {op: column(*op) for op in N.face}
    # face (1, 0) of s_1 x is x along identity edges: its arrow is (1, 1) on x's diagonal
    eyes = [tuple(map(face[(m + 1, 1, 0)].__getitem__, N.degen_map[(m, 1)])) for m in range(N.top)]
    return CovariantSystem(N, ranks, face, {(m, i): eyes[m] for m, i in N.degen_map})
