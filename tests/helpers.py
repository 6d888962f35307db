"""Shared fixtures: small cubical sets, semi-cubical sets, and maps.

Everything here is tiny enough to check by hand; homology values asserted in
the test modules were computed on paper from these presentations.
"""

from itertools import combinations, product as iter_product

from cubehom.boxcat import CubeMorphism, degeneracy, face, hom_set, identity
from cubehom.catalg import STRING_BUDGET, CubeFunctor, FiniteCategory, chain_face
from cubehom.coeff import (
    ContravariantSystem,
    CovariantSystem,
    FiniteDiagram,
    SemiCubicalSystem,
    local_system,
)
from cubehom.cubset import (
    Cube,
    CubesTable,
    CubicalMap,
    PresentedCubicalSet,
    SemiCubicalSet,
    standard_cube,
    universal_from_semicubical,
)
from cubehom.homcalc import ComplexBuildReport
from cubehom.zlinalg import (
    CokernelPresentation,
    FreeChainComplex,
    IntMatrix,
    assemble_blocks,
    _reduce,
    _smith_factors,
    solve_exact,
)


def point():
    return PresentedCubicalSet({"v": 0}, {})


def interval_semi():
    return SemiCubicalSet(
        [["a", "b"], ["e"]],
        {("e", 1, 0): "a", ("e", 1, 1): "b"},
    )


def interval():
    return universal_from_semicubical(interval_semi())


def circle_semi():
    return SemiCubicalSet(
        [["v"], ["e"]],
        {("e", 1, 0): "v", ("e", 1, 1): "v"},
    )


def circle():
    return universal_from_semicubical(circle_semi())


def wedge_semi():
    return SemiCubicalSet(
        [["v"], ["e1", "e2"]],
        {("e1", 1, 0): "v", ("e1", 1, 1): "v",
         ("e2", 1, 0): "v", ("e2", 1, 1): "v"},
    )


def torus_semi():
    """One vertex, two loops, one square with opposite faces equal."""
    return SemiCubicalSet(
        [["v"], ["a", "b"], ["t"]],
        {("a", 1, 0): "v", ("a", 1, 1): "v",
         ("b", 1, 0): "v", ("b", 1, 1): "v",
         ("t", 1, 0): "a", ("t", 1, 1): "a",
         ("t", 2, 0): "b", ("t", 2, 1): "b"},
    )


def torus():
    return universal_from_semicubical(torus_semi())


def twisted_square_semi():
    """One vertex, two loops x and y, one square gluing them with a flip.

    The square q has lower/upper faces in direction 1 equal to y and x, and
    in direction 2 equal to x and y, which makes the degree-1 homology pick
    up 2-torsion.
    """
    return SemiCubicalSet(
        [["v"], ["x", "y"], ["q"]],
        {("x", 1, 0): "v", ("x", 1, 1): "v",
         ("y", 1, 0): "v", ("y", 1, 1): "v",
         ("q", 1, 0): "y", ("q", 1, 1): "x",
         ("q", 2, 0): "x", ("q", 2, 1): "y"},
    )


def twisted_square():
    return universal_from_semicubical(twisted_square_semi())


def squashed_square():
    """A circle with a square attached along degenerate vertical faces.

    The square's direction-1 faces are both the loop e and its direction-2
    faces are both the degenerate edge on v, which is only expressible in a
    presented set, not a semi-cubical one.
    """
    sq = Cube("v", CubeMorphism(1, 0, ()))
    return PresentedCubicalSet(
        {"v": 0, "e": 1, "q": 2},
        {("e", 1, 0): Cube("v", identity(0)),
         ("e", 1, 1): Cube("v", identity(0)),
         ("q", 1, 0): Cube("e", identity(1)),
         ("q", 1, 1): Cube("e", identity(1)),
         ("q", 2, 0): sq,
         ("q", 2, 1): sq},
    )


def collapse_to_point(X):
    """The unique map from X to the one-vertex set."""
    target = point()
    assignment = {}
    for g, d in X.generators.items():
        assignment[g] = Cube("v", CubeMorphism(d, 0, ()))
    return CubicalMap(X, target, assignment)


def fold_wedge():
    """Identify both loops of the wedge onto the single circle loop."""
    src = universal_from_semicubical(wedge_semi())
    dst = circle()
    return CubicalMap(src, dst, {
        "v": Cube("v", identity(0)),
        "e1": Cube("e", identity(1)),
        "e2": Cube("e", identity(1)),
    })


def endpoint_inclusion():
    """The interval mapped onto the circle's loop."""
    return CubicalMap(interval(), circle(), {
        "a": Cube("v", identity(0)),
        "b": Cube("v", identity(0)),
        "e": Cube("e", identity(1)),
    })


def identity_map(X):
    return CubicalMap(X, X, {g: Cube(g, identity(d)) for g, d in X.generators.items()})


def square_to_interval():
    """The projection of the standard square onto its first coordinate."""
    assignment = {}
    for g, k in standard_cube(2).generators.items():
        first = g[1]
        if first == "x":
            assignment[g] = Cube("cx", CubeMorphism(k, 1, (1,)))
        else:
            assignment[g] = Cube("c" + first, CubeMorphism(k, 0, ()))
    return CubicalMap(standard_cube(2), standard_cube(1), assignment)


def reference_product(A: PresentedCubicalSet, B: PresentedCubicalSet, top: int) -> CubesTable:
    """The product table by the definition, with its own loop over cube pairs.

    A pair is degenerate iff the two deletion maps share a deleted
    coordinate, and every operator is read off both factors' tables and
    found by the pair. Independent of the fiber product cubset.product uses.
    """
    ta = A.expand(top)
    tb = B.expand(top)
    keys, elements, degenerate = [], [], []
    pos = []
    for n in range(top + 1):
        level_keys, level_elems, level_deg = [], [], []
        level_pos = {}
        for ia, a in enumerate(ta.elements[n]):
            deleted_a = set(range(1, n + 1)) - set(a.epi.tokens)
            for ib, b in enumerate(tb.elements[n]):
                deleted_b = set(range(1, n + 1)) - set(b.epi.tokens)
                level_pos[(ia, ib)] = len(level_keys)
                level_keys.append(f"{a.key()}|{b.key()}")
                level_elems.append((a, b))
                level_deg.append(bool(deleted_a & deleted_b))
        keys.append(level_keys)
        elements.append(level_elems)
        degenerate.append(level_deg)
        pos.append(level_pos)
    faces = {}
    for n in range(1, top + 1):
        for i in range(1, n + 1):
            for eps in (0, 1):
                fa = ta.face[(n, i, eps)]
                fb = tb.face[(n, i, eps)]
                col = []
                for ia in range(ta.size(n)):
                    for ib in range(tb.size(n)):
                        col.append(pos[n - 1][(fa[ia], fb[ib])])
                faces[(n, i, eps)] = tuple(col)
    degen = {}
    for m in range(top):
        for i in range(1, m + 2):
            sa = ta.degen_map[(m, i)]
            sb = tb.degen_map[(m, i)]
            col = []
            for ia in range(ta.size(m)):
                for ib in range(tb.size(m)):
                    col.append(pos[m + 1][(sa[ia], sb[ib])])
            degen[(m, i)] = tuple(col)
    return CubesTable(top, keys, elements, degenerate, faces, degen)


def reference_expand(X: PresentedCubicalSet, top: int) -> CubesTable:
    """X tabulated to top cube by cube, with no deletion plan.

    Each face is found by token arithmetic on the cube's deletion map and
    looked up by (generator, tokens), and each degeneracy inserts a
    coordinate into the tokens. This is the loop PresentedCubicalSet.expand
    ran before it read the deletion plan, kept as the reference its tables
    are compared against.
    """
    def face_of(gen, tokens, i, eps):
        rest = tuple(t - (t > i) for t in tokens if t != i)
        if len(rest) == len(tokens):
            return gen, rest
        fc = X.face_cube(gen, tokens.index(i) + 1, eps)
        return fc.gen, tuple(rest[t - 1] for t in fc.epi.tokens)

    elements = []
    for n in range(top + 1):
        level = []
        for g, k in X.generators.items():
            if k > n:
                continue
            for kept in combinations(range(1, n + 1), k):
                level.append(Cube(g, CubeMorphism(n, k, kept)))
        elements.append(level)
    index = [{(c.gen, c.epi.tokens): i for i, c in enumerate(level)} for level in elements]
    faces = {}
    for n in range(1, top + 1):
        for i in range(1, n + 1):
            for eps in (0, 1):
                faces[(n, i, eps)] = tuple(
                    index[n - 1][face_of(c.gen, c.epi.tokens, i, eps)]
                    for c in elements[n])
    degen = {}
    for m in range(top):
        for i in range(1, m + 2):
            degen[(m, i)] = tuple(
                index[m + 1][(c.gen, tuple(t + (t >= i) for t in c.epi.tokens))]
                for c in elements[m])
    return CubesTable(
        top=top,
        keys=[[c.key() for c in level] for level in elements],
        elements=[list(level) for level in elements],
        degenerate=[[c.is_degenerate() for c in level] for level in elements],
        face=faces,
        degen_map=degen,
    )


def reference_direct_image(f: CubicalMap, F: ContravariantSystem) -> ContravariantSystem:
    """The direct image of F along f, each operator's block sizes and places found afresh.

    Every block matrix re-reads the ranks and positions of its two fibers,
    as coeff.direct_image did before it counted them once per target cube.
    """
    top = F.base.top
    tx = F.base
    ty = f.target.expand(top)
    tm = f.table_map(tx, ty)
    fibers = [[[] for _ in range(ty.size(n))] for n in range(top + 1)]
    for n in range(top + 1):
        for ix, iy in enumerate(tm[n]):
            fibers[n][iy].append(ix)
    ranks = {(n, iy): sum(F.rank_of(n, ix) for ix in fiber)
             for n, level in enumerate(fibers) for iy, fiber in enumerate(level)}

    def column(n, dst, mats, in_x, in_y):
        out = []
        for iy, col_fiber in enumerate(fibers[n]):
            row_fiber = fibers[dst][in_y[iy]]
            row_pos = {ix: p for p, ix in enumerate(row_fiber)}
            out.append(IntMatrix.from_blocks(
                [F.rank_of(dst, ix) for ix in row_fiber],
                [F.rank_of(n, ix) for ix in col_fiber],
                [(row_pos[in_x[ix]], p, mats[ix], 1) for p, ix in enumerate(col_fiber)]))
        return tuple(out)

    return ContravariantSystem(
        ty, ranks,
        {op: column(op[0], op[0] - 1, F.face[op], tx.face[op], ty.face[op]) for op in ty.face},
        {op: column(op[0], op[0] + 1, F.degen[op], tx.degen_map[op], ty.degen_map[op])
         for op in ty.degen_map})


# The general contravariant action: a morphism is split into deletions after
# insertions and the insertions are peeled through the face table one at a
# time. src/ resolves single faces with PresentedCubicalSet._face_of; these
# are the independent reference its tables, maps, fibers and validators are
# compared against.


def used_coordinates(f: CubeMorphism) -> tuple:
    """The input coordinates f reads, in output order: its non-constant tokens."""
    return tuple(t for t in f.tokens if t >= 1)


def epi_mono_factorize(f: CubeMorphism) -> tuple[CubeMorphism, CubeMorphism]:
    """Split f as (deletions, insertions) with f = mono . epi.

    The epi deletes the unused input coordinates; the mono renumbers the
    survivors and inserts the constants. Both parts are uniquely determined.
    """
    used = used_coordinates(f)
    rank = {c: k + 1 for k, c in enumerate(used)}
    epi = CubeMorphism(f.src_dim, len(used), used)
    mono = CubeMorphism(len(used), f.dst_dim, tuple(t if t <= 0 else rank[t] for t in f.tokens))
    return epi, mono


def mono_faces(f: CubeMorphism) -> tuple:
    """Write a mono as (slot, bit) insertions, outermost (largest slot) first.

    Peeling the largest slot first means the remaining slots keep their
    positions in the smaller cube, so a contravariant action can apply the
    listed single-coordinate faces in order, left to right.
    """
    if not f.is_mono():
        raise ValueError("mono_faces needs a mono (every input coordinate used)")
    return tuple(
        (pos, 0 if t == 0 else 1)
        for pos, t in sorted(enumerate(f.tokens, start=1), reverse=True)
        if t <= 0
    )


def apply_morphism(X: PresentedCubicalSet, alpha: CubeMorphism, c: Cube) -> Cube:
    """Contravariant action of alpha: I^m -> I^n on a dim-n cube of X.

    Splits c.epi . alpha into deletions after insertions, peels the
    outermost insertion through the face table, folds the face's own
    deletion map in, and repeats; the generator dimension drops every round.
    """
    if alpha.dst_dim != c.dim:
        raise ValueError(f"cannot act by I^{alpha.src_dim}->I^{alpha.dst_dim} "
                         f"on a cube of dimension {c.dim}")
    X.generator_dim(c.gen)
    beta, gen = c.epi.compose(alpha), c.gen
    while True:
        epi, mono = epi_mono_factorize(beta)
        if mono.is_identity():
            return Cube(gen, epi)
        slot, bit = mono_faces(mono)[0]
        fc = X.face_cube(gen, slot, bit)
        rest = CubeMorphism(
            mono.src_dim, mono.dst_dim - 1,
            tuple(t for pos, t in enumerate(mono.tokens, start=1) if pos != slot))
        beta = fc.epi.compose(rest).compose(epi)
        gen = fc.gen


def apply_to_cube(f: CubicalMap, c: Cube) -> Cube:
    if c.gen not in f.assignment:
        raise ValueError(f"map not defined on generator {c.gen!r}")
    return apply_morphism(f.target, c.epi, f.assignment[c.gen])


def reference_set_report(X: PresentedCubicalSet) -> list:
    """The face-commutation failures of X by the general action, in report order.

    X must pass PresentedCubicalSet.validate's structural checks; on such a
    set validate() must return exactly this list.
    """
    report = []
    for g, d in X.generators.items():
        for i in range(1, d):
            for j in range(i + 1, d + 1):
                for alpha in (0, 1):
                    for beta in (0, 1):
                        lhs = apply_morphism(X, face(d - 1, i, alpha), X.faces[(g, j, beta)])
                        rhs = apply_morphism(X, face(d - 1, j - 1, beta), X.faces[(g, i, alpha)])
                        if lhs != rhs:
                            report.append(
                                f"face commutation fails on generator {g!r} at "
                                f"(i={i}, j={j}, alpha={alpha}, beta={beta}): "
                                f"{lhs.key()} != {rhs.key()}")
    return report


def semi_cube(n):
    """The semi-cubical n-cube: the non-degenerate cubes of standard_cube(n)."""
    X = standard_cube(n)
    return SemiCubicalSet([[g for g, d in X.generators.items() if d == k] for k in range(n + 1)],
                          {k: c.gen for k, c in X.faces.items()})


def reference_semi_report(S: SemiCubicalSet) -> list:
    """The face-commutation failures of S by a walk over S.faces, in report order.

    S must pass SemiCubicalSet.validate's structural checks; on such a set
    validate() must return exactly this list.
    """
    report = []
    for n, level in enumerate(S.levels):
        for x in level:
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for alpha in (0, 1):
                        for beta in (0, 1):
                            lhs = S.faces[(S.faces[(x, j, beta)], i, alpha)]
                            rhs = S.faces[(S.faces[(x, i, alpha)], j - 1, beta)]
                            if lhs != rhs:
                                report.append(
                                    f"face commutation fails on {x!r} at "
                                    f"(i={i}, j={j}, alpha={alpha}, beta={beta})")
    return report


def reference_map_report(f: CubicalMap) -> list:
    """The naturality failures of f by the general action, in report order.

    f's sets must be valid and every value of the right dimension; on such
    a map validate() must return exactly this list.
    """
    report = []
    for g, d in f.source.generators.items():
        for i in range(1, d + 1):
            for eps in (0, 1):
                lhs = apply_to_cube(f, f.source.face_cube(g, i, eps))
                rhs = apply_morphism(f.target, face(d, i, eps), f.assignment[g])
                if lhs != rhs:
                    report.append(
                        f"naturality fails on generator {g!r} at (i={i}, eps={eps}): "
                        f"{lhs.key()} != {rhs.key()}")
    return report


def reference_table_map(f: CubicalMap, tx: CubesTable, ty: CubesTable):
    """CubicalMap.table_map by the definition: apply f to each cube, then find it by key."""
    return [tuple(ty.index[n][apply_to_cube(f, c).key()] for c in tx.elements[n])
            for n in range(min(tx.top, ty.top) + 1)]


def reference_fiber(f: CubicalMap, y: Cube, top: int) -> CubesTable:
    """The fiber of f over y by the definition, one cube pair at a time.

    Every pair (x, alpha) of a source cube and a morphism into y is tested,
    and every operator is applied to x in the presented source. Slow, but
    independent of the index tables pullback_fiber reads.
    """
    d = y.dim
    tx = f.source.expand(top)
    keys, elements, degenerate, pos = [], [], [], []
    for k in range(top + 1):
        level_keys, level_elems, level_deg = [], [], []
        level_pos = {}
        # y.alpha does not depend on x, so it is computed once per level
        over = [(alpha, apply_morphism(f.target, alpha, y)) for alpha in hom_set(k, d)]
        for x in tx.elements[k]:
            fx = apply_to_cube(f, x)
            deleted_x = set(range(1, k + 1)) - set(x.epi.tokens)
            for alpha, y_alpha in over:
                if y_alpha != fx:
                    continue
                used = set(t for t in alpha.tokens if t >= 1)
                level_pos[(x, alpha)] = len(level_keys)
                level_keys.append(f"{x.key()};{alpha.token_word()}")
                level_elems.append((x, alpha))
                level_deg.append(bool(deleted_x - used))
        keys.append(level_keys)
        elements.append(level_elems)
        degenerate.append(level_deg)
        pos.append(level_pos)
    faces = {}
    for k in range(1, top + 1):
        for i in range(1, k + 1):
            for eps in (0, 1):
                delta = face(k, i, eps)
                col = []
                for x, alpha in elements[k]:
                    col.append(pos[k - 1][(apply_morphism(f.source, delta, x),
                                           alpha.compose(delta))])
                faces[(k, i, eps)] = tuple(col)
    degen = {}
    for m in range(top):
        for i in range(1, m + 2):
            sigma = degeneracy(m + 1, i)
            col = []
            for x, alpha in elements[m]:
                col.append(pos[m + 1][(apply_morphism(f.source, sigma, x),
                                       alpha.compose(sigma))])
            degen[(m, i)] = tuple(col)
    return CubesTable(top, keys, elements, degenerate, faces, degen)


def random_unimodular(rng, r):
    """A small random determinant +-1 matrix built from row operations."""
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(3 * r):
        op = rng.randrange(3)
        if op == 0 and r >= 2:
            t, s = rng.sample(range(r), 2)
            q = rng.choice([-2, -1, 1, 2])
            rows[t] = [a + q * b for a, b in zip(rows[t], rows[s])]
        elif op == 1 and r >= 2:
            t, s = rng.sample(range(r), 2)
            rows[t], rows[s] = rows[s], rows[t]
        else:
            t = rng.randrange(r)
            rows[t] = [-a for a in rows[t]]
    return IntMatrix.from_rows(rows)


def inverse_unimodular(m):
    return solve_exact(m, IntMatrix.identity(m.rows))


def gauge_matrices(X, r, rng, variance="contravariant"):
    """Generator face matrices that telescope through one random unit per generator."""
    return telescoping_matrices(X, {g: random_unimodular(rng, r) for g in X.generators}, variance)


def telescoping_diagram(C, r, rng):
    """Diagram whose matrix on a: x -> y is gamma_y * gamma_x^-1, for random units gamma.

    Composites telescope, so the diagram is functorial for any units drawn.
    """
    gamma = {o: random_unimodular(rng, r) for o in C.objects}
    ginv = {o: inverse_unimodular(gamma[o]) for o in C.objects}
    mats = {name: gamma[dst] * ginv[src]
            for name, (src, dst) in C.morphisms.items()}
    return FiniteDiagram(C, {o: r for o in C.objects}, mats)


def telescoping_matrices(X, gamma, variance="contravariant"):
    """Generator face matrices that telescope through the unit gamma[g] of each generator.

    Every relation instance reduces to a difference of endpoints, so the
    local system they generate is functorial no matter which units are given.
    """
    gamma_inv = {g: inverse_unimodular(gamma[g]) for g in X.generators}
    mats = {}
    for (g, i, eps), c in X.faces.items():
        if variance == "contravariant":
            mats[(g, i, eps)] = gamma[c.gen] * gamma_inv[g]
        else:
            mats[(g, i, eps)] = gamma[g] * gamma_inv[c.gen]
    return mats


def gauge_system(X, top, r, rng, variance="contravariant"):
    """The local system on X.expand(top) of gauge_matrices(X, r, rng, variance)."""
    return local_system(X, X.expand(top), r, gauge_matrices(X, r, rng, variance), variance)


def flipped_torus_matrices():
    """Rank-1 torus face matrices whose square flips one side of a loop: not functorial."""
    one, minus = IntMatrix.identity(1), IntMatrix.from_rows([[-1]])
    mats = {(g, i, eps): one for g, i in (("a", 1), ("b", 1), ("t", 1), ("t", 2))
            for eps in (0, 1)}
    mats[("t", 1, 1)] = minus
    return mats


# local_system's refusals of flipped_torus_matrices at top 2 and of rank -1 on
# the point, as the full check at every cube words them
NON_FUNCTORIAL_TORUS = (
    "generator matrices are not functorial: "
    "face-face identity fails at dim 2 cube t@x1,x2 (i=1, j=2, alpha=1, beta=0); "
    "face-face identity fails at dim 2 cube t@x1,x2 (i=1, j=2, alpha=1, beta=1)")
NEGATIVE_RANK_POINT = ("generator matrices are not functorial: "
                       "negative rank at v@; negative rank at v@del:1")


def monodromy_circle(top=2, variance="contravariant"):
    """Rank-1 system on the circle whose loop flips the sign."""
    plus = IntMatrix.from_rows([[1]])
    minus = IntMatrix.from_rows([[-1]])
    X = circle()
    return local_system(X, X.expand(top), 1,
                        {("e", 1, 0): plus, ("e", 1, 1): minus}, variance)


def uniform_local_covariant(base, u):
    """Covariant system with every face matrix u and every degeneracy its inverse.

    The operator identities all reduce to powers of u against powers of its
    inverse, so this is functorial on any table.
    """
    uinv = inverse_unimodular(u)
    ranks = {(n, idx): u.rows for n in range(base.top + 1) for idx in range(base.size(n))}
    return CovariantSystem(base, ranks,
                           {op: (u,) * base.size(op[0]) for op in base.face},
                           {op: (uinv,) * base.size(op[0]) for op in base.degen_map})


def apply_with_events(X: PresentedCubicalSet, alpha: CubeMorphism, c: Cube):
    """Like apply_morphism, also returning the face-table lookups made.

    Events are (generator, slot, bit) triples in application order; a
    coefficient system transports matrices along exactly this list. This is
    the event replay generated systems were once built by, kept as the
    reference that coeff._generated_system is compared against.
    """
    if alpha.dst_dim != c.dim:
        raise ValueError(f"cannot act by I^{alpha.src_dim}->I^{alpha.dst_dim} "
                         f"on a cube of dimension {c.dim}")
    X.generator_dim(c.gen)
    events = []
    beta, gen = c.epi.compose(alpha), c.gen
    while True:
        epi, mono = epi_mono_factorize(beta)
        if mono.is_identity():
            return Cube(gen, epi), tuple(events)
        slot, bit = mono_faces(mono)[0]
        fc = X.face_cube(gen, slot, bit)
        events.append((gen, slot, bit))
        rest = CubeMorphism(
            mono.src_dim, mono.dst_dim - 1,
            tuple(t for pos, t in enumerate(mono.tokens, start=1) if pos != slot))
        beta = fc.epi.compose(rest).compose(epi)
        gen = fc.gen


def compose_events(gen_mats, ranks_by_gen, start_gen, events, variance):
    total = IntMatrix.identity(ranks_by_gen[start_gen])
    for ev in events:
        m = gen_mats[ev]
        if variance == "contravariant":
            total = m * total
        else:
            total = total * m
    return total


def reference_generated_faces(X, base, gen_mats, ranks_by_gen, variance):
    """Every face matrix of the system gen_mats generates on base, by event replay.

    base is an expansion of X; the result is laid out like the face dict of
    a system, one tuple per (n, i, eps) with a matrix per cube index.
    """
    out = {}
    for n in range(1, base.top + 1):
        for i in range(1, n + 1):
            for eps in (0, 1):
                delta = face(n, i, eps)
                out[(n, i, eps)] = tuple(
                    compose_events(gen_mats, ranks_by_gen, c.gen,
                                   apply_with_events(X, delta, c)[1], variance)
                    for c in base.elements[n])
    return out


def with_entry(columns, op, idx, m):
    """A copy of a system's face or degen columns with entry idx of op set to m."""
    col = list(columns[op])
    col[idx] = m
    return {**columns, op: tuple(col)}


def operator_matrices(F):
    """Every face and degeneracy matrix of a table system, one per operator and cube."""
    return [m for col in (*F.face.values(), *F.degen.values()) for m in col]


def poset_category(objects, relation):
    """Finite poset as a category: one morphism x_y per related pair x <= y."""
    pairs = sorted(set(relation) | {(x, x) for x in objects})
    morphisms = {f"{x}_{y}": (x, y) for x, y in pairs}
    composition = {}
    for x, y in pairs:
        for y2, z in pairs:
            if y2 == y and (x, z) in pairs:
                composition[(f"{y}_{z}", f"{x}_{y}")] = f"{x}_{z}"
    identities = {x: f"{x}_{x}" for x in objects}
    return FiniteCategory(objects, morphisms, composition, identities)


def point_category():
    """One object, one identity."""
    return poset_category(["pt"], [])


def arrow_category():
    """Two objects and the single arrow between them."""
    return poset_category(["0", "1"], [("0", "1")])


def square_poset():
    """Four objects with a least and a greatest element, square shaped."""
    return poset_category(
        ["00", "01", "10", "11"],
        [("00", "01"), ("00", "10"), ("00", "11"), ("01", "11"), ("10", "11")])


def cyclic2_monoid():
    """One object carrying an involution g with g after g = e."""
    return FiniteCategory(
        ["o"],
        {"e": ("o", "o"), "g": ("o", "o")},
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        {"o": "e"})


def idempotent_monoid():
    """One object carrying an idempotent e, e after e = e, beside the identity 1."""
    return FiniteCategory(
        ["o"],
        {"1": ("o", "o"), "e": ("o", "o")},
        {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"},
        {"o": "1"})


def cyclic3_monoid():
    """One object carrying g with g^3 = e: the non-identity strings of length n number 2^n."""
    powers = ["e", "g", "g2"]
    return FiniteCategory(
        ["o"],
        {name: ("o", "o") for name in powers},
        {(a, b): powers[(i + j) % 3] for i, a in enumerate(powers) for j, b in enumerate(powers)},
        {"o": "e"})


def transformation_category(sizes, generators):
    """The functions between finite sets composed from some generating ones.

    Object "s<k>" is the set range(sizes[k]). A generator (src, dst, values)
    is the function i -> values[i] from object src to object dst. The
    morphisms are the identities and every composite of generators, named
    "s<src>_s<dst>_<values>".
    """
    def name(src, dst, values):
        return f"s{src}_s{dst}_" + "".join(map(str, values))

    arrows = {(k, k, tuple(range(size))) for k, size in enumerate(sizes)}
    arrows |= {(src, dst, tuple(values)) for src, dst, values in generators}
    while True:  # close under composition
        grown = arrows | {(s, d, tuple(g[i] for i in f)) for s, m, f in arrows
                          for m2, d, g in arrows if m == m2}
        if grown == arrows:
            break
        arrows = grown
    composition = {(name(m, d, g), name(s, m, f)): name(s, d, tuple(g[i] for i in f))
                   for s, m, f in arrows for m2, d, g in arrows if m == m2}
    return FiniteCategory([f"s{k}" for k in range(len(sizes))],
                          {name(*f): (f"s{f[0]}", f"s{f[1]}") for f in arrows},
                          composition,
                          {f"s{k}": name(k, k, range(size)) for k, size in enumerate(sizes)})


# The categories whose nerves the tests build, by name.
NERVE_FIXTURES = {"point": point_category, "arrow": arrow_category,
                  "Z/2": cyclic2_monoid, "square": square_poset,
                  "idempotent": idempotent_monoid,
                  # "+" sorts before the "," of a key, so key order is not label order
                  "arrow a<a+": lambda: poset_category(["a", "a+"], [("a", "a+")])}


# The un-normalized string complex: every composable string, identities
# included, with all of its faces. It has the homology of the normalized
# complex catalg builds (Mac Lane, Homology, 1963, ch. IV, section 5; Gabriel and
# Zisman, 1967, Appendix 2), so the two are compared against each other.


def reference_chains(C: FiniteCategory, n: int):
    """All length-n strings of composable morphisms as (start object, names)."""
    if n == 0:
        return [(obj, ()) for obj in sorted(C.objects)]
    out = []
    for start, arrows in reference_chains(C, n - 1):
        tail = C.morphisms[arrows[-1]][1] if arrows else start
        for name in sorted(C.morphisms):
            if C.morphisms[name][0] == tail:
                out.append((start, arrows + (name,)))
        if len(out) > STRING_BUDGET:
            raise ValueError(f"string level {n} has more than {STRING_BUDGET} "
                             f"strings, the budget of one degree")
    return out


def reference_bar_complex(C: FiniteCategory, F: FiniteDiagram, top: int) -> FreeChainComplex:
    """Chain complex of every composable string with values at the string's start.

    Face 0 pushes the value along the first arrow; the remaining faces leave
    it in place. Strings through identities are kept, no normalization here.
    """
    levels = [reference_chains(C, n) for n in range(top + 1)]
    sizes = [[F.rank_of(start) for start, _ in level] for level in levels]
    boundaries = []
    for n in range(1, top + 1):
        pos = {chain: i for i, chain in enumerate(levels[n - 1])}
        blocks = []
        for c, chain in enumerate(levels[n]):
            start, arrows = chain
            blocks.append((pos[chain_face(C, chain, 0)], c, F.matrix(arrows[0]), 1))
            eye = IntMatrix.identity(F.rank_of(start))
            blocks.extend((pos[chain_face(C, chain, i)], c, eye, (-1) ** i)
                          for i in range(1, n + 1))
        boundaries.append(assemble_blocks(sizes[n - 1], sizes[n], blocks))
    return FreeChainComplex([sum(level) for level in sizes], boundaries)


def reference_normalize_local(X: CubesTable, F) -> ComplexBuildReport:
    """The local normalized complex of a table, by the per-cube walk over every cube.

    A cube that some degeneracy reaches drops out with the empty pair, any
    other cube keeps (I, I). For every cube z, the signed face matrices that
    land on one kept cube w of non-zero rank are summed into one raw block,
    which goes into the boundary when z is kept. The boundary must carry
    degenerate chains to degenerate chains: for every s_i x = z, that raw
    block times the degeneracy matrix of x must vanish. No identity of the
    table is assumed, and no matrix product is shared between cubes.
    """
    if F.base is not X and F.base.keys != X.keys:
        raise ValueError("system is defined on a different table")
    if F.variance != "contravariant":
        raise ValueError("chain complexes take contravariant coefficients")
    arrivals = []
    for n in range(X.top + 1):
        arriving = [[] for _ in range(X.size(n))]
        for i in range(1, n + 1):
            for x, z in enumerate(X.degen_map[(n - 1, i)]):
                arriving[z].append((i, x))
        arrivals.append(arriving)
    blocks = []
    for n, arriving in enumerate(arrivals):
        level = []
        for z, arrived in enumerate(arriving):
            r = F.rank_of(n, z)
            eye = IntMatrix.identity(r)
            level.append((IntMatrix.zeros(0, r), IntMatrix.zeros(r, 0)) if arrived else (eye, eye))
        blocks.append(level)
    boundaries = []
    for n in range(1, X.top + 1):
        row_sizes = [p.rows for p, _ in blocks[n - 1]]
        col_sizes = [s.cols for _, s in blocks[n]]
        out = []
        for z in range(X.size(n)):
            terms = {}
            for i in range(1, n + 1):
                for eps in (0, 1):
                    w = X.face_index(n, i, eps, z)
                    if row_sizes[w]:
                        terms.setdefault(w, []).append(
                            (0, 0, F.face_matrix(n, i, eps, z), (-1) ** (i + eps)))
            for w, t in terms.items():
                d = IntMatrix.from_blocks([row_sizes[w]], [F.rank_of(n, z)], t)
                for i, x in arrivals[n][z]:
                    if not (d * F.degen_matrix(n - 1, i, x)).is_zero():
                        raise ValueError(
                            f"boundary does not preserve degenerate chains at dimension {n}")
                if col_sizes[z]:
                    out.append((w, z, d, 1))
        boundaries.append(assemble_blocks(row_sizes, col_sizes, out))
    ranks = [sum(p.rows for p, _ in level) for level in blocks]
    return ComplexBuildReport(FreeChainComplex(ranks, boundaries), blocks)


def reference_cobar_complex(C: FiniteCategory, G: FiniteDiagram, top: int) -> FreeChainComplex:
    """The un-normalized complex whose dual computes the string cohomology of (C, G).

    As in catalg.category_cohomology: the string complex of C.op with every
    matrix of G transposed.
    """
    dual = FiniteDiagram(C.op(), G.ranks,
                         {name: m.transpose() for name, m in G.matrices.items()})
    return reference_bar_complex(C.op(), dual, top)


def reference_nerve(C: FiniteCategory, top: int) -> CubesTable:
    """The cubical nerve of C with every operator built and keyed per cube.

    An n-cube is a natural transformation between two (n-1)-cubes, so each
    level is grown from pairs x0, x1 of the level below and one morphism
    x0(p) -> x1(p) per vertex p, kept when every connecting square commutes.
    Faces, degeneracies and degenerate flags come from CubeFunctor.face,
    .degeneracy and .key, found by key string. Slow, but independent of the
    search and the label-tuple lookups cubical_nerve reads.
    """
    levels = [[CubeFunctor(C, 0, {(): obj}, {}) for obj in C.objects]]
    for n in range(1, top + 1):
        level = []
        for x0 in levels[-1]:
            for x1 in levels[-1]:
                v0, v1, e0, e1 = x0.vertices, x1.vertices, x0.edges, x1.edges
                pts = sorted(v0)
                homs = [[f for f, ends in C.morphisms.items() if ends == (v0[p], v1[p])]
                        for p in pts]
                for choice in iter_product(*homs):
                    t = dict(zip(pts, choice))
                    if any(C.compose(e1[(p, q)], t[p]) != C.compose(t[q], e0[(p, q)])
                           for p, q in e0):
                        continue
                    verts = ({(0,) + p: v0[p] for p in pts}
                             | {(1,) + p: v1[p] for p in pts})
                    edges = ({((0,) + p, (0,) + q): f for (p, q), f in e0.items()}
                             | {((1,) + p, (1,) + q): f for (p, q), f in e1.items()}
                             | {((0,) + p, (1,) + p): t[p] for p in pts})
                    level.append(CubeFunctor(C, n, verts, edges))
        levels.append(level)
    for level in levels:
        level.sort(key=CubeFunctor.key)
    keys = [[x.key() for x in level] for level in levels]
    pos = [{k: i for i, k in enumerate(level)} for level in keys]
    face = {}
    for n in range(1, top + 1):
        for i in range(1, n + 1):
            for eps in (0, 1):
                face[(n, i, eps)] = tuple(pos[n - 1][x.face(i, eps).key()]
                                          for x in levels[n])
    degen_map = {}
    for m in range(top):
        for i in range(1, m + 2):
            degen_map[(m, i)] = tuple(pos[m + 1][x.degeneracy(i).key()]
                                      for x in levels[m])
    degenerate = []
    for n, level in enumerate(levels):
        if n == 0:
            degenerate.append([False] * len(level))
            continue
        degenerate.append([any(x.face(i, 0).degeneracy(i) == x
                               for i in range(1, n + 1)) for x in level])
    return CubesTable(top, keys, levels, degenerate, face, degen_map)


def constant_diagram(C, rank=1):
    """Diagram with the same free group at every object, identities throughout."""
    eye = IntMatrix.identity(rank)
    return FiniteDiagram(C, {obj: rank for obj in C.objects},
                         {name: eye for name in C.morphisms})


def sign_diagram(C=None):
    """Rank-1 diagram on the involution monoid (or its opposite) with g = -1."""
    if C is None:
        C = cyclic2_monoid()
    return FiniteDiagram(C, {"o": 1},
                         {"e": IntMatrix.identity(1),
                          "g": IntMatrix.from_rows([[-1]])})


def codomain_diagram(C, fc, F):
    """Diagram on the decomposition category taking its values at codomains.

    A decomposition arrow "alpha|beta|u|v" goes to F(v), so the value at an
    object alpha is F(cod alpha); functoriality comes from v stacking.
    """
    ranks = {alpha: F.rank_of(C.morphisms[alpha][1]) for alpha in fc.objects}
    mats = {name: F.matrix(name.split("|")[3]) for name in fc.morphisms}
    return FiniteDiagram(fc, ranks, mats)


def value_on_leq(x: CubeFunctor, p, q) -> str:
    """Name of the composite morphism of the cube x from the image of p to that of q.

    Walks the monotone path from p to q that raises coordinates in
    increasing order, composing one edge at a time.
    """
    p, q = tuple(p), tuple(q)
    if len(p) != x.dim or len(q) != x.dim:
        raise ValueError("points must have the cube's dimension")
    if any(a > b for a, b in zip(p, q)):
        raise ValueError(f"{p} is not below {q}")
    C, edges = x.category, x.edges
    cur = p
    result = C.identity_of(x.vertices[p])
    for i in range(x.dim):
        if cur[i] < q[i]:
            nxt = cur[:i] + (1,) + cur[i + 1:]
            result = C.compose(edges[(cur, nxt)], result)
            cur = nxt
    return result


def reference_last_vertex_system(C, F: FiniteDiagram, N: CubesTable) -> ContravariantSystem:
    """coeff.system_from_diagram_last_vertex by a path walk per face per cube.

    A face matrix is the diagram's matrix on the composite from the face's
    final vertex up to the cube's, found with value_on_leq.
    """
    ranks = {(n, idx): F.rank_of(x.vertex((1,) * n))
             for n in range(N.top + 1) for idx, x in enumerate(N.elements[n])}

    def connecting(x, n, i, eps):
        ones = (1,) * n
        return F.matrix(value_on_leq(x, ones[:i - 1] + (eps,) + ones[i:], ones))

    eyes = {r: IntMatrix.identity(r) for r in set(ranks.values())}
    return ContravariantSystem(
        N, ranks,
        {(n, i, eps): tuple(connecting(x, n, i, eps) for x in N.elements[n])
         for n, i, eps in N.face},
        {(m, i): tuple(eyes[ranks[(m, idx)]] for idx in range(N.size(m)))
         for m, i in N.degen_map})


def reference_natural_system(C, G: FiniteDiagram, N: CubesTable) -> CovariantSystem:
    """coeff.natural_system_via_d with every diagonal and side found by value_on_leq."""
    fc = G.category
    diagonals = [[value_on_leq(x, (0,) * n, (1,) * n) for x in N.elements[n]]
                 for n in range(N.top + 1)]
    ranks = {(n, idx): G.rank_of(d)
             for n, level in enumerate(diagonals) for idx, d in enumerate(level)}

    def factorization(x, beta, n, i, eps):
        zeros, ones = (0,) * n, (1,) * n
        lo = zeros[:i - 1] + (eps,) + zeros[i:]
        hi = ones[:i - 1] + (eps,) + ones[i:]
        u = value_on_leq(x, zeros, lo)
        v = value_on_leq(x, hi, ones)
        alpha = value_on_leq(x, lo, hi)
        return G.matrix(f"{alpha}|{beta}|{u}|{v}")

    identities = [tuple(G.matrix(fc.identity_of(d)) for d in level) for level in diagonals]
    return CovariantSystem(
        N, ranks,
        {(n, i, eps): tuple(factorization(x, beta, n, i, eps)
                            for x, beta in zip(N.elements[n], diagonals[n]))
         for n, i, eps in N.face},
        {(m, i): identities[m] for m, i in N.degen_map})


def reference_diagram_report(F: FiniteDiagram) -> list:
    """FiniteDiagram.validate with its composition check over all pairs of morphisms.

    Every pair (g, h) is visited in C.morphisms order and skipped unless h
    starts where g ends, so the report lists the same lines in the same
    order as the indexed check of coeff.
    """
    report = []
    C = F.category
    for obj in C.objects:
        if obj not in F.ranks:
            report.append(f"missing rank for object {obj}")
    for name, (src, dst) in C.morphisms.items():
        if name not in F.matrices:
            report.append(f"missing matrix for morphism {name}")
        elif src in F.ranks and dst in F.ranks:
            m = F.matrices[name]
            if (m.rows, m.cols) != (F.ranks[dst], F.ranks[src]):
                report.append(f"matrix for {name} has shape {m.rows}x{m.cols}, "
                              f"expected {F.ranks[dst]}x{F.ranks[src]}")
    if report:
        return report
    for obj in C.objects:
        if F.matrices[C.identity_of(obj)] != IntMatrix.identity(F.ranks[obj]):
            report.append(f"identity of {obj} is not the identity matrix")
    for g, (gs, gd) in C.morphisms.items():
        for h, (hs, hd) in C.morphisms.items():
            if gd != hs:
                continue
            comp = C.compose(h, g)
            if F.matrices[comp] != F.matrices[h] * F.matrices[g]:
                report.append(f"composition fails: {h} after {g} is {comp} "
                              f"but matrices disagree")
    return report


def numbered_diagram(C):
    """Rank-1 diagram, not functorial, with the matrix [k + 2] on the k-th morphism by name.

    Every morphism gets its own matrix, so a builder that reads the wrong
    morphism shows it in the entries and not only in the object ids.
    """
    return FiniteDiagram(C, {obj: 1 for obj in C.objects},
                         {name: IntMatrix.from_rows([[k + 2]])
                          for k, name in enumerate(sorted(C.morphisms))})


def weighted_torus_system():
    """A non-local rank-1 semi-cubical system on the torus.

    Face matrices scale by 2 in one direction; the commutation constraint
    2 * 1 = 1 * 2 holds, so it is functorial without being unimodular.
    """
    one = IntMatrix.from_rows([[1]])
    two = IntMatrix.from_rows([[2]])
    return SemiCubicalSystem(
        torus_semi(),
        {"v": 1, "a": 1, "b": 1, "t": 1},
        {("a", 1, 0): two, ("a", 1, 1): two,
         ("b", 1, 0): one, ("b", 1, 1): one,
         ("t", 1, 0): one, ("t", 1, 1): one,
         ("t", 2, 0): two, ("t", 2, 1): two},
    )


def assert_universal_coefficients(hom, cohom):
    """Cohomology of the dual complex: betti^n = betti_n, torsion^n = torsion_{n-1}."""
    assert len(hom) == len(cohom)
    for n, group in enumerate(cohom):
        assert group.betti == hom[n].betti
        assert group.torsion == (hom[n - 1].torsion if n else ())


def dense_cokernel_projection(a: IntMatrix) -> CokernelPresentation:
    """coker(A) by the dense pivot loop with U and U_inv, as a reference.

    With U * A * V = D and r pivots, rows r.. of U * A are zero whatever V
    is, so they project onto the free part and the matching columns of
    U_inv are a section; the torsion comes from the pivots.
    """
    m = a.rows
    d = [list(row) for row in a.data]
    u, uinv_t = IntMatrix.identity(m).sparse_rows(), IntMatrix.identity(m).sparse_rows()
    r = _reduce(d, a.cols, (u, uinv_t))
    torsion = tuple(x for x in _smith_factors([d[k][k] for k in range(r)]) if x > 1)
    return CokernelPresentation(projection=IntMatrix.from_sparse(u[r:], m),
                                section=IntMatrix.from_sparse(uinv_t[r:], m).transpose(),
                                torsion=torsion)
