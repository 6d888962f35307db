"""Acceptance gate: twelve end-to-end checks, one printed verdict line each.

Every comparison is exact equality of (betti, torsion) data; nothing here is
approximate. Randomized checks draw from fixed seeds so a red line can be
reproduced by rerunning the file. Run with -s to watch the checklist.
"""

import random
from math import comb

import helpers
from cubehom.boxcat import (
    FormalMorphismSum,
    degeneracy,
    degeneracy_idempotent,
    face,
    hom_set,
)
from cubehom.catalg import (
    bar_complex,
    bw_comparison,
    factorization_category,
    nerve_vs_bar_comparison,
)
from cubehom.coeff import (
    FiniteDiagram,
    SemiCubicalSystem,
    constant_system,
    direct_image,
    extend_semicubical,
    pullback_system,
)
from cubehom.cubset import (
    SemiCubicalSet,
    product,
    pullback_fiber,
    standard_cube,
)
from cubehom.formats import resolve_cube_key
from cubehom.homcalc import (
    cohomology,
    fiber_criterion,
    homology,
    normalized_complex,
    normalized_complex_local,
    semicubical_homology,
)
from cubehom.zlinalg import HomologyGroup, IntMatrix, det, smith_normal_form


def verdict(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name})"


def groups(*pairs):
    return tuple(HomologyGroup(b, tuple(t)) for b, t in pairs)


def point_like(rank, top_degree):
    """Groups of a contractible space: rank in degree 0, nothing above."""
    return groups((rank, ()), *[(0, ())] * top_degree)


def pad_levels(S, extra):
    """Append empty levels so homology one degree below the top is in range."""
    levels = [list(level) for level in S.levels] + [[] for _ in range(extra)]
    return SemiCubicalSet(levels, dict(S.faces))


def rebase_semi(F, S):
    return SemiCubicalSystem(S, dict(F.ranks), dict(F.face))


def constant_semi(S, r):
    eye = IntMatrix.identity(r)
    ranks = {x: r for level in S.levels for x in level}
    return SemiCubicalSystem(S, ranks, {k: eye for k in S.faces})


def gauge_semi(S, r, rng):
    """Random semi-cubical system whose faces telescope between cube units."""
    gamma = {x: helpers.random_unimodular(rng, r)
             for level in S.levels for x in level}
    ginv = {x: helpers.inverse_unimodular(m) for x, m in gamma.items()}
    faces = {k: gamma[y] * ginv[k[0]] for k, y in S.faces.items()}
    return SemiCubicalSystem(S, {x: r for x in gamma}, faces)


def random_graph(rng, nv, ne, extra):
    """Random 1-dimensional semi-cubical set padded with empty levels."""
    verts = [f"v{i}" for i in range(nv)]
    edges = [f"e{i}" for i in range(ne)]
    faces = {}
    for e in edges:
        faces[(e, 1, 0)] = rng.choice(verts)
        faces[(e, 1, 1)] = rng.choice(verts)
    return SemiCubicalSet([verts, edges] + [[] for _ in range(extra)], faces)


def test_criterion_1_standard_cubes_acyclic():
    ok = True
    for n in range(4):
        X = standard_cube(n).expand(4)
        ok = ok and homology(X, constant_system(X, 1), 3) == point_like(1, 3)
    verdict(1, "standard cubes acyclic", ok)


def test_criterion_2_interval_product_anomaly():
    A = helpers.interval()
    T = product(A, A, 3)
    got = homology(T, constant_system(T, 1), 2)
    ok = got == groups((1, ()), (1, ()), (1, ()))
    # The same circle shows up as the fiber of the collapse map over the
    # degenerate 1-cube of the point.
    f = helpers.collapse_to_point(A)
    y = resolve_cube_key(f.target, "v@del:1")
    fib = pullback_fiber(f, y, 2)
    fib_groups = homology(fib, constant_system(fib, 1), 1)
    ok = ok and fib_groups == groups((1, ()), (1, ()))
    ok = ok and fib_groups[1] == got[1]
    verdict(2, "interval product anomaly", ok)


def test_criterion_3_local_system_on_a_cube():
    rng = random.Random(31)
    ok = True
    for n in range(3):
        for r in (1, 2):
            for _ in range(2):
                F = helpers.gauge_system(standard_cube(n), 3, r, rng)
                ok = ok and homology(F.base, F, 2) == point_like(r, 2)
    verdict(3, "local system on a cube", ok)


def test_criterion_4_local_route_oracle():
    carriers = (helpers.torus, helpers.twisted_square, helpers.circle,
                helpers.squashed_square)
    ok = True
    count = 0
    for seed in range(10):
        rng = random.Random(100 + seed)
        X = carriers[seed % len(carriers)]()
        F = helpers.gauge_system(X, 2, 1 + seed % 2, rng)
        fast = homology(F.base, F, 1, path="local")
        slow = homology(F.base, F, 1, path="generic")
        ok = ok and fast == slow
        count += 1
    verdict(4, "local route oracle", ok and count >= 10)


def test_criterion_5_direct_image_invariance():
    rng = random.Random(59)
    maps = (helpers.fold_wedge(),
            helpers.endpoint_inclusion(),
            helpers.collapse_to_point(helpers.torus()),
            helpers.collapse_to_point(helpers.interval()),
            helpers.identity_map(helpers.twisted_square()))
    ok = True
    count = 0
    for f in maps:
        for r in (1, 2):
            F = helpers.gauge_system(f.source, 3, r, rng)
            G = direct_image(f, F)
            ok = ok and homology(F.base, F, 2) == homology(G.base, G, 2)
            count += 1
    verdict(5, "direct image invariance", ok and count >= 10)


def test_criterion_6_semicubical_comparison():
    fixtures = []
    torus3 = pad_levels(helpers.torus_semi(), 1)
    fixtures.append((torus3, constant_semi(torus3, 1)))
    fixtures.append((torus3, rebase_semi(helpers.weighted_torus_system(), torus3)))
    twisted3 = pad_levels(helpers.twisted_square_semi(), 1)
    fixtures.append((twisted3, constant_semi(twisted3, 1)))
    circle3 = pad_levels(helpers.circle_semi(), 2)
    fixtures.append((circle3, constant_semi(circle3, 2)))
    for seed in range(6):
        rng = random.Random(600 + seed)
        S = random_graph(rng, 3 + seed % 3, 4, 2)
        fixtures.append((S, gauge_semi(S, 1 + seed % 2, rng)))
    ok = len(fixtures) >= 10
    for S, F in fixtures:
        direct = semicubical_homology(S, F, 2)
        G = extend_semicubical(F, 3)
        ok = ok and direct == homology(G.base, G, 2)
    verdict(6, "semi-cubical comparison", ok)


def test_criterion_7_nerve_vs_bar():
    rng = random.Random(73)
    pt = helpers.point_category()
    arrow = helpers.arrow_category()
    square = helpers.square_poset()
    z2 = helpers.cyclic2_monoid()
    arrow_op = arrow.op()
    ramp = FiniteDiagram(arrow_op, {"0": 2, "1": 1},
                         {"0_0": IntMatrix.identity(2),
                          "1_1": IntMatrix.identity(1),
                          "0_1": IntMatrix.from_rows([[1], [2]])})
    cases = [
        (pt, helpers.constant_diagram(pt.op())),
        (pt, helpers.constant_diagram(pt.op(), 2)),
        (arrow, helpers.constant_diagram(arrow_op)),
        (arrow, ramp),
        (square, helpers.constant_diagram(square.op())),
        (square, helpers.telescoping_diagram(square.op(), 2, rng)),
        (z2, helpers.sign_diagram(z2.op())),
    ]
    ok = True
    for C, F in cases:
        ok = ok and nerve_vs_bar_comparison(C, F, 2).equal
    # Group homology of the involution monoid pins both routes to a
    # hand-checked value, not merely to each other.
    oracle = nerve_vs_bar_comparison(z2, helpers.constant_diagram(z2.op()), 2)
    ok = ok and oracle.equal
    ok = ok and oracle.cubical == groups((1, ()), (0, (2,)), (0, ()))
    verdict(7, "nerve vs bar", ok)


def test_criterion_8_bw_comparison():
    rng = random.Random(83)
    pt = helpers.point_category()
    arrow = helpers.arrow_category()
    square = helpers.square_poset()
    fc_pt = factorization_category(pt)
    fc_arrow = factorization_category(arrow)
    fc_square = factorization_category(square)
    eye1 = IntMatrix.identity(1)
    triple = FiniteDiagram(arrow, {"0": 1, "1": 1},
                           {"0_0": eye1, "1_1": eye1,
                            "0_1": IntMatrix.from_rows([[3]])})
    cases = [
        (pt, helpers.constant_diagram(fc_pt)),
        (pt, helpers.constant_diagram(fc_pt, 3)),
        (arrow, helpers.constant_diagram(fc_arrow)),
        (arrow, helpers.codomain_diagram(arrow, fc_arrow, triple)),
        (square, helpers.constant_diagram(fc_square)),
        (square, helpers.codomain_diagram(square, fc_square,
                                          helpers.telescoping_diagram(square, 2, rng))),
    ]
    ok = True
    for C, G in cases:
        ok = ok and bw_comparison(C, G, 2).equal
    verdict(8, "bw comparison", ok)


def test_criterion_9_fiber_criterion():
    ok = fiber_criterion(helpers.identity_map(helpers.circle()), 1, 2).passed
    f = helpers.collapse_to_point(standard_cube(1))
    rep = fiber_criterion(f, 1, 2)
    ok = ok and not rep.passed
    ok = ok and all(row.ok for row in rep.rows if row.dim == 0)
    bad1 = [row for row in rep.rows if row.dim == 1 and not row.ok]
    ok = ok and [row.key for row in bad1] == ["v@del:1"]
    ok = ok and bad1[0].groups == groups((1, ()), (1, ()))
    # One dimension up the same circle persists, fattened by a free summand.
    bad2 = [row for row in rep.rows if row.dim == 2 and not row.ok]
    ok = ok and [row.key for row in bad2] == ["v@del:1,2"]
    ok = ok and bad2[0].groups == groups((1, ()), (2, ()))
    verdict(9, "fiber criterion", ok)


def test_criterion_10_torsion_fixtures():
    X = helpers.twisted_square().expand(2)
    ok = homology(X, constant_system(X, 1), 1) == groups((1, ()), (1, (2,)))
    F = helpers.monodromy_circle(2)
    ok = ok and homology(F.base, F, 1) == groups((0, (2,)), (0, ()))
    verdict(10, "torsion fixtures", ok)


def test_criterion_11_pullback_cohomology():
    f = helpers.collapse_to_point(standard_cube(1))
    base = f.target.expand(3)
    ok = True
    for seed in range(5):
        rng = random.Random(900 + seed)
        r = 1 + seed % 2
        L = helpers.uniform_local_covariant(base, helpers.random_unimodular(rng, r))
        P = pullback_system(f, L)
        downstairs = cohomology(base, L, 2)
        upstairs = cohomology(P.base, P, 2)
        ok = ok and downstairs == upstairs
        ok = ok and downstairs == point_like(r, 2)
    verdict(11, "pullback cohomology", ok)


def test_criterion_12_structural_suites():
    ok = True
    # d after d vanishes on freshly assembled complexes; the chain complex
    # constructor re-checks this on every build, so a red here means the
    # constructor guard was bypassed.
    X = helpers.torus().expand(3)
    F = constant_system(X, 1)
    for report in (normalized_complex(X, F), normalized_complex_local(X, F)):
        cx = report.complex
        for n in range(2, cx.top + 1):
            ok = ok and (cx.boundary(n - 1) * cx.boundary(n)).is_zero()
        # Normalization splits: on every cube, projection after section is
        # the identity.
        for n, level in enumerate(report.blocks):
            ok = ok and len(level) == X.size(n)
            for p, s in level:
                ok = ok and p * s == IntMatrix.identity(p.rows)
    z2 = helpers.cyclic2_monoid()
    bar = bar_complex(z2, helpers.constant_diagram(z2.op()), 3)
    for n in range(2, bar.top + 1):
        ok = ok and (bar.boundary(n - 1) * bar.boundary(n)).is_zero()
    # Smith decomposition laws on random matrices.
    rng = random.Random(101)
    for _ in range(8):
        a = IntMatrix.from_rows(
            [[rng.randrange(-4, 5) for _ in range(4)] for _ in range(3)])
        s = smith_normal_form(a)
        ok = ok and s.U * a * s.V == s.D
        ok = ok and det(s.U) in (1, -1) and det(s.V) in (1, -1)
        ok = ok and s.U * s.U_inv == IntMatrix.identity(3)
        ok = ok and s.V * s.V_inv == IntMatrix.identity(4)
        d = s.invariant_factors()
        ok = ok and all(x > 0 for x in d)
        ok = ok and all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
    # Cube category relation families at dimensions up to four.
    for n in range(2, 5):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                for alpha in (0, 1):
                    for beta in (0, 1):
                        lhs = face(n, j, beta).compose(face(n - 1, i, alpha))
                        rhs = face(n, i, alpha).compose(face(n - 1, j - 1, beta))
                        ok = ok and lhs == rhs
    for n in range(2, 5):
        for i in range(1, n + 1):
            for j in range(i, n):
                lhs = degeneracy(n - 1, j).compose(degeneracy(n, i))
                rhs = degeneracy(n - 1, i).compose(degeneracy(n, j + 1))
                ok = ok and lhs == rhs
    for n in range(1, 5):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for eps in (0, 1):
                    got = degeneracy(n, j).compose(face(n, i, eps))
                    if i == j:
                        ok = ok and got.is_identity()
                    elif i < j:
                        ok = ok and got == face(n - 1, i, eps).compose(
                            degeneracy(n - 1, j - 1))
                    else:
                        ok = ok and got == face(n - 1, i - 1, eps).compose(
                            degeneracy(n - 1, j))
    # Hom-set sizes follow the binomial count law up to dimension five.
    for m in range(6):
        for n in range(6):
            want = sum(comb(m, k) * comb(n, k) * 2 ** (n - k)
                       for k in range(min(m, n) + 1))
            ok = ok and len(hom_set(m, n)) == want
    # The normalization idempotent is a retraction: it squares to itself and
    # absorbs every morphism that factors through a deletion.
    for k in range(4):
        z = degeneracy_idempotent(k)
        ok = ok and z.compose(z) == z
    for k in range(1, 4):
        z = degeneracy_idempotent(k)
        for n in range(4):
            for f in hom_set(k, n):
                if f.is_mono():
                    continue
                lifted = FormalMorphismSum.from_morphism(f)
                ok = ok and lifted.compose(z) == lifted
    verdict(12, "structural suites", ok)
