"""Finite categories: string complexes, cubical nerves, factorization categories.

A cube of the nerve is a functor from the poset {0,1}^n, held as a tuple of
vertex labels and a tuple of edge labels in the fixed order of _points(n)
and _cube_edges(n). Other modules read a label by its point or its edge,
through CubeFunctor.vertex and .edge or at its CubeFunctor.position, so only
this module knows that order. Faces and degeneracies gather those tuples
through position maps computed once per operator, and each key string is
built once per cube from one template per dimension. Level n is grown from
level n-1 by the exponential law applied twice (Mac Lane, Categories for the
Working Mathematician, 1971): an n-cube is a commuting square of
(n-2)-cubes, found as a join of its four faces in directions 1 and 2, which
are then its face columns there. A level that would hold more than
NERVE_LABEL_BUDGET labels is refused on the Eilenberg-Zilber count of its
degenerate cubes before it is searched, and on the cubes found while it is.
The normalized string complex, of non-identity morphisms, refuses a degree
past STRING_BUDGET strings while it is built.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import product as iter_product
from math import comb

from .coeff import (FiniteDiagram, natural_system_via_d,
                    system_from_diagram_last_vertex)
from .cubset import CubesTable, degeneracy_masks
from .homcalc import cohomology, homology
from .zlinalg import (FreeChainComplex, HomologyGroup, IntMatrix, cell_complex,
                      cohomology_of_complex, homology_of_complex)


class FiniteCategory:
    """A small category given by explicit object, morphism, and composition tables."""

    def __init__(self, objects, morphisms: dict[str, tuple[str, str]],
                 composition: dict[tuple[str, str], str],
                 identities: dict[str, str]):
        self.objects = tuple(objects)
        self.morphisms = dict(morphisms)
        self.composition = dict(composition)
        self.identities = dict(identities)

    def source(self, name: str) -> str:
        return self.morphisms[name][0]

    def target(self, name: str) -> str:
        return self.morphisms[name][1]

    def identity_of(self, obj: str) -> str:
        if obj not in self.identities:
            raise KeyError(f"no identity recorded for object {obj!r}")
        return self.identities[obj]

    def compose(self, second: str, first: str) -> str:
        """Name of the composite (second after first)."""
        if self.morphisms[first][1] != self.morphisms[second][0]:
            raise ValueError(f"{second!r} after {first!r} is not composable")
        try:
            return self.composition[(second, first)]
        except KeyError:
            raise ValueError(f"composition table has no entry for "
                             f"{second!r} after {first!r}")

    def op(self) -> "FiniteCategory":
        """The opposite category: same names, endpoints and composition flipped."""
        flipped = {name: (dst, src) for name, (src, dst) in self.morphisms.items()}
        comp = {(first, second): h
                for (second, first), h in self.composition.items()}
        return FiniteCategory(self.objects, flipped, comp, self.identities)

    def validate(self) -> list[str]:
        """Structural problems: endpoints, totality, identity and associativity laws."""
        report = []
        if len(set(self.objects)) != len(self.objects):
            report.append("duplicate object names")
        for name, (src, dst) in self.morphisms.items():
            if src not in self.objects or dst not in self.objects:
                report.append(f"morphism {name} has unknown endpoint")
        for obj in self.objects:
            name = self.identities.get(obj)
            if name is None:
                report.append(f"object {obj} has no identity")
            elif self.morphisms.get(name) != (obj, obj):
                report.append(f"identity of {obj} is not an endomorphism of it")
        for (second, first), comp in self.composition.items():
            if first not in self.morphisms or second not in self.morphisms:
                report.append(f"composition entry ({second}, {first}) "
                              f"names unknown morphisms")
            elif self.morphisms[first][1] != self.morphisms[second][0]:
                report.append(f"composition entry ({second}, {first}) "
                              f"is not composable")
            elif comp not in self.morphisms:
                report.append(f"composite of ({second}, {first}) is unknown")
            elif self.morphisms[comp] != (self.morphisms[first][0],
                                          self.morphisms[second][1]):
                report.append(f"composite of ({second}, {first}) "
                              f"has wrong endpoints")
        for g, (gs, gd) in self.morphisms.items():
            for f, (fs, fd) in self.morphisms.items():
                if fd == gs and (g, f) not in self.composition:
                    report.append(f"composition table misses {g} after {f}")
        if report:
            return report
        for name, (src, dst) in self.morphisms.items():
            if self.compose(self.identity_of(dst), name) != name:
                report.append(f"left identity law fails on {name}")
            if self.compose(name, self.identity_of(src)) != name:
                report.append(f"right identity law fails on {name}")
        for h in self.morphisms:
            for g in self.morphisms:
                if self.morphisms[g][1] != self.morphisms[h][0]:
                    continue
                for f in self.morphisms:
                    if self.morphisms[f][1] != self.morphisms[g][0]:
                        continue
                    left = self.compose(self.compose(h, g), f)
                    right = self.compose(h, self.compose(g, f))
                    if left != right:
                        report.append(f"associativity fails on ({h}, {g}, {f})")
        return report


STRING_BUDGET = 50_000  # the most strings one degree of the string complex may hold


def _string_levels(C: FiniteCategory, top: int) -> list[list[tuple[str, tuple[str, ...]]]]:
    """composable_chains(C, n) for n = 0..top, each grown once from the level below."""
    after = {obj: [g for g in sorted(C.morphisms)
                   if C.morphisms[g][0] == obj and g != C.identity_of(obj)] for obj in C.objects}
    levels = [[(obj, ()) for obj in sorted(C.objects)]]
    for n in range(1, top + 1):
        out = []
        for start, arrows in levels[-1]:
            out += [(start, arrows + (name,))
                    for name in after[C.morphisms[arrows[-1]][1] if arrows else start]]
            if len(out) > STRING_BUDGET:
                raise ValueError(f"string level {n} has more than {STRING_BUDGET} "
                                 f"strings, the budget of one degree")
        levels.append(out)
    return levels


def composable_chains(C: FiniteCategory, n: int) -> list[tuple[str, tuple[str, ...]]]:
    """All length-n strings of composable non-identity morphisms as (start object, names)."""
    return _string_levels(C, n)[n]


def chain_face(C: FiniteCategory, chain, i: int):
    """Face i of a composable string: drop at the ends, compose inside."""
    start, arrows = chain
    n = len(arrows)
    if not 0 <= i <= n or n == 0:
        raise ValueError(f"face {i} undefined on a string of length {n}")
    if i == 0:
        return (C.morphisms[arrows[0]][1], arrows[1:])
    if i == n:
        return (start, arrows[:-1])
    merged = C.compose(arrows[i], arrows[i - 1])
    return (start, arrows[:i - 1] + (merged,) + arrows[i + 1:])


def bar_complex(C: FiniteCategory, F: FiniteDiagram, top: int) -> FreeChainComplex:
    """Normalized chain complex of strings of non-identity morphisms, valued at the start.

    Face 0 pushes the value along the first arrow; the remaining faces leave
    it in place. An inner face that composes to an identity is degenerate, zero
    in the normalized complex (Gabriel-Zisman 1967, Appendix 2): it is not a
    string of non-identity morphisms, so cell_complex drops it.
    """
    levels = _string_levels(C, top)
    eye = {obj: IntMatrix.identity(F.rank_of(obj)) for obj in C.objects}
    return cell_complex(levels, [[eye[s].rows for s, _ in level] for level in levels], lambda n: (
        (chain_face(C, chain, i), c, eye[chain[0]] if i else F.matrix(chain[1][0]), (-1) ** i)
        for c, chain in enumerate(levels[n]) for i in range(n + 1)))


def category_homology(C: FiniteCategory, F: FiniteDiagram,
                      max_dim: int) -> tuple[HomologyGroup, ...]:
    """Homology of the string complex in degrees 0..max_dim; refuses F if not functorial."""
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    if problems := F.validate():
        raise ValueError("diagram is not functorial: " + "; ".join(problems[:3]))
    return homology_of_complex(bar_complex(C, F, max_dim + 1))


def category_cohomology(C: FiniteCategory, G: FiniteDiagram,
                        max_dim: int) -> tuple[HomologyGroup, ...]:
    """Cohomology of the normalized string cochain complex in degrees 0..max_dim.

    Strings of C with values at their end are the reversed strings of C.op
    with values at their start, so the cochain complex is the transpose of
    the string complex of C.op with every matrix of G transposed, up to one
    sign per degree. G is checked as category_homology checks F.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    if problems := G.validate():
        raise ValueError("diagram is not functorial: " + "; ".join(problems[:3]))
    op = C.op()
    dual = FiniteDiagram(op, G.ranks,
                         {name: m.transpose() for name, m in G.matrices.items()})
    return cohomology_of_complex(bar_complex(op, dual, max_dim + 1))


@lru_cache(maxsize=None)
def _points(n: int) -> tuple[tuple[int, ...], ...]:
    """Vertices of the n-cube in lexicographic order: the order of vertex labels."""
    return tuple(iter_product((0, 1), repeat=n))


@lru_cache(maxsize=None)
def _cube_edges(n: int):
    """Edges (p, q) of the n-cube, by lower vertex then direction: the order of edge labels."""
    return tuple((p, p[:j] + (1,) + p[j + 1:])
                 for p in _points(n) for j in range(n) if p[j] == 0)


@lru_cache(maxsize=None)
def _positions(n: int):
    """Position of each vertex and of each edge of the n-cube in its label tuples.

    The two dicts are cached and shared by every caller, which only reads them.
    """
    return ({p: k for k, p in enumerate(_points(n))},
            {e: k for k, e in enumerate(_cube_edges(n))})


@lru_cache(maxsize=None)
def _edge_ends(n: int):
    """Each n-cube edge as the positions of its two vertices, and each pair's edge position."""
    vpos = _positions(n)[0]
    ends = tuple([(vpos[p], vpos[q]) for p, q in _cube_edges(n)])
    return ends, {e: k for k, e in enumerate(ends)}


@lru_cache(maxsize=None)
def _key_template(n: int) -> str:
    """The key of an n-cube as a %-template over its vertex labels, then its edge labels.

    A vertex entry is "01:" and an edge entry "00-01:" before its label; the
    entries are joined by "," and the two kinds by ";".
    """
    if n == 0:
        return "%s"
    bits = {p: "".join(map(str, p)) for p in _points(n)}
    return (",".join([f"{bits[p]}:%s" for p in _points(n)]) + ";"
            + ",".join([f"{bits[p]}-{bits[q]}:%s" for p, q in _cube_edges(n)]))


@lru_cache(maxsize=None)
def _face_positions(n: int, i: int, eps: int):
    """Where face (i, eps) of an n-cube reads its vertex and edge labels."""
    if not 1 <= i <= n or eps not in (0, 1):
        raise ValueError(f"face ({i}, {eps}) undefined on a {n}-cube")
    vpos, at = _positions(n)[0], _edge_ends(n)[1]
    vmap = tuple([vpos[p[:i - 1] + (eps,) + p[i - 1:]] for p in _points(n - 1)])
    return vmap, tuple([at[(vmap[a], vmap[b])] for a, b in _edge_ends(n - 1)[0]])


@lru_cache(maxsize=None)
def _degeneracy_positions(m: int, i: int):
    """Where degeneracy i of an m-cube reads its vertex and edge labels.

    Edges read the m-cube's edge labels followed by the identities of its
    vertices: a collapsed edge at vertex position k reads the identity at
    position len(edges) + k.
    """
    if not 1 <= i <= m + 1:
        raise ValueError(f"degeneracy {i} undefined on a {m}-cube")
    vpos, at = _positions(m)[0], _edge_ends(m)[1]
    vmap = tuple([vpos[p[:i - 1] + p[i:]] for p in _points(m + 1)])
    return vmap, tuple([len(at) + vmap[a] if vmap[a] == vmap[b] else at[(vmap[a], vmap[b])]
                        for a, b in _edge_ends(m + 1)[0]])


def _gather(labels, positions) -> tuple:
    return tuple([labels[k] for k in positions])


class CubeFunctor:
    """A functor from the poset cube {0,1}^n to a finite category.

    Stored as two tuples: the object at each vertex in the order of
    _points(n) and the morphism name on each edge in the order of
    _cube_edges(n). Every square face commutes, so composites along monotone
    paths are well defined.
    """

    __slots__ = ("category", "dim", "vertex_labels", "edge_labels")

    def __init__(self, category: FiniteCategory, dim: int, vertices, edges):
        vertices, edges = dict(vertices), dict(edges)
        self.category = category
        self.dim = dim
        self.vertex_labels = tuple(vertices[p] for p in _points(dim))
        self.edge_labels = tuple(edges[e] for e in _cube_edges(dim))

    @classmethod
    def _from_labels(cls, category, dim, vertex_labels, edge_labels) -> "CubeFunctor":
        x = cls.__new__(cls)
        x.category = category
        x.dim = dim
        x.vertex_labels = vertex_labels
        x.edge_labels = edge_labels
        return x

    @property
    def vertices(self) -> dict[tuple[int, ...], str]:
        return dict(zip(_points(self.dim), self.vertex_labels))

    @property
    def edges(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], str]:
        return dict(zip(_cube_edges(self.dim), self.edge_labels))

    @staticmethod
    def position(n: int, p, q=None) -> int:
        """Where an n-cube holds the label of point p, or of the edge p -> q, in its tuples."""
        return _positions(n)[0][tuple(p)] if q is None else _positions(n)[1][(tuple(p), tuple(q))]

    def vertex(self, point) -> str:
        return self.vertex_labels[self.position(self.dim, point)]

    def edge(self, p, q) -> str:
        """Morphism name on the edge from point p up to point q, one coordinate apart."""
        return self.edge_labels[self.position(self.dim, p, q)]

    def face(self, i: int, eps: int) -> "CubeFunctor":
        """Restrict to the sub-cube with coordinate i frozen at eps."""
        vmap, emap = _face_positions(self.dim, i, eps)
        return CubeFunctor._from_labels(self.category, self.dim - 1,
                                        _gather(self.vertex_labels, vmap),
                                        _gather(self.edge_labels, emap))

    def degeneracy(self, i: int) -> "CubeFunctor":
        """Insert a collapsed coordinate at slot i."""
        vmap, emap = _degeneracy_positions(self.dim, i)
        C = self.category
        ids = tuple(C.identity_of(v) for v in self.vertex_labels)
        return CubeFunctor._from_labels(C, self.dim + 1,
                                        _gather(self.vertex_labels, vmap),
                                        _gather(self.edge_labels + ids, emap))

    def key(self) -> str:
        return _key_template(self.dim) % (self.vertex_labels + self.edge_labels)

    def _canonical(self):
        return (self.dim, self.vertex_labels, self.edge_labels)

    def __eq__(self, other):
        return (isinstance(other, CubeFunctor)
                and self._canonical() == other._canonical())

    def __hash__(self):
        return hash(self._canonical())

    def __repr__(self):
        return f"CubeFunctor({self.key()!r})"


NERVE_LABEL_BUDGET = 2_400_000  # the most labels, vertices and edges, one nerve level may hold


def _check_level(n: int, cubes: int) -> None:
    """Refuse level n if cubes + 3n position maps, 2^n + n 2^(n-1) labels each, pass the budget."""
    if (cubes + 3 * n) * (2 ** n + n * 2 ** n // 2) > NERVE_LABEL_BUDGET:
        raise ValueError(f"nerve level {n} would hold more than {NERVE_LABEL_BUDGET} "
                         f"labels, the budget of one level")


@lru_cache(maxsize=None)
def _arrow_positions(n: int):
    """Where an n-cube (a, b, y, z), n >= 2, reads its edges from those of its four faces.

    The n-cube is an arrow a -> b of (n-1)-cubes along coordinate 1. Its
    morphism at a vertex of a is an edge along coordinate 1 of y, where
    coordinate 2 is 0, or of z, where it is 1. Edge labels are gathered from
    a's edges, b's, then those edges of y and of z; the second map lists where
    an (n-1)-cube holds its edges along coordinate 1, by lower vertex.
    """
    vpos, epos = _positions(n - 1)
    m = len(epos)
    gather = tuple(2 * m + vpos[p[1:]] if p[0] != q[0]
                   else p[0] * m + epos[(p[1:], q[1:])]
                   for p, q in _cube_edges(n))
    return gather, tuple([epos[((0,) + q, (1,) + q)] for q in _points(n - 2)])


def _nerve_level(C: FiniteCategory, n: int, below, face):
    """Level n of the nerve sorted by key: keys, cubes, and face columns in directions 1 and 2.

    Level 1 is read off C.morphisms. From n = 2 on, an n-cube is the tuple
    (a, b, y, z) of its faces (1, 0), (1, 1), (2, 0) and (2, 1), joined over
    the face columns of level n-1 by the cubical identities: y and z run over
    the cubes whose face (1, 0) is face (1, 0) and face (1, 1) of a, and b
    over those whose faces (1, 0) and (1, 1) are face (1, 1) of y and of z.
    It is kept when its 2^(n-2) squares in directions 1 and 2 commute; every
    other square is one of y or z. _check_level refuses the level once the
    cubes found, counted after each a, pass the budget.
    """
    if n == 0:
        found, sides = [((obj,), ()) for obj in C.objects], ()
    elif n == 1:
        at = {x.vertex_labels[0]: k for k, x in enumerate(below)}
        found = [(ends, (f,)) for f, ends in C.morphisms.items()]
        _check_level(1, len(found))
        sides = [[at[v[eps]] for v, _ in found] for eps in (0, 1)]
    else:
        gather, along = _arrow_positions(n)
        low, high = face[(n - 1, 1, 0)], face[(n - 1, 1, 1)]
        starting, spanning = {}, {}
        for c, ends in enumerate(zip(low, high)):
            starting.setdefault(ends[0], []).append(c)
            spanning.setdefault(ends, []).append(c)
        arrows = [tuple([x.edge_labels[k] for k in along]) for x in below]
        comp, found, sides = C.composition, [], ([], [], [], [])
        for a, xa in enumerate(below):
            ta = arrows[a]
            zs = [(z, arrows[z], [comp[g, f] for g, f in zip(arrows[z], ta)])
                  for z in starting[high[a]]]
            for y in starting[low[a]]:
                ty = arrows[y]
                for z, tz, want in zs:
                    for b in spanning.get((high[y], high[z]), ()):
                        if all(comp[g, f] == w for g, f, w in zip(arrows[b], ty, want)):
                            labels = xa.edge_labels + below[b].edge_labels + ty + tz
                            found.append((xa.vertex_labels + below[b].vertex_labels,
                                          tuple([labels[k] for k in gather])))
                            for col, k in zip(sides, (a, b, y, z)):
                                col.append(k)
            _check_level(n, len(found))
    template = _key_template(n)
    keys = [template % (v + e) for v, e in found]
    order = sorted(range(len(found)), key=keys.__getitem__)
    return ([keys[k] for k in order],
            [CubeFunctor._from_labels(C, n, *found[k]) for k in order],
            [tuple([col[k] for k in order]) for col in sides])


def cubical_nerve(C: FiniteCategory, top: int) -> CubesTable:
    """Table of cube-shaped diagrams in C with precomposition operators.

    Level n is joined from the faces of level n-1 in _nerve_level and sorted
    by key once; its faces in directions 1 and 2 are the join's own indices.
    Before that, _check_level is given its degenerate cubes, comb(n, k) per
    non-degenerate k-cube below it (the Eilenberg-Zilber lemma). A face in a
    direction i >= 3 or a degeneracy of a cube gathers its label tuples
    through the operator's position maps and is found in the level below or
    above by its edge labels, which fix the vertices. Degenerate flags come
    from degeneracy_masks. Names holding "," or ";", which separate the
    entries of a key, are refused: keys of distinct cubes could coincide.
    """
    if top < 0:
        raise ValueError("truncation must be nonnegative")
    for name in (*C.objects, *C.morphisms):
        if "," in name or ";" in name:
            raise ValueError(f"name {name!r} contains ',' or ';', which separate "
                             f"the entries of nerve keys")
    keys, levels, face, degen_map, nondegenerate = [], [], {}, {}, []
    lookup = None
    for n in range(top + 1):
        _check_level(n, sum(comb(n, k) * nd for k, nd in enumerate(nondegenerate)))
        level_keys, level, sides = _nerve_level(C, n, levels[n - 1] if n else None, face)
        face.update({(n, j // 2 + 1, j % 2): col for j, col in enumerate(sides)})
        below, lookup = lookup, {x.edge_labels: k for k, x in enumerate(level)}
        if n:
            for i in range(3, n + 1):
                for eps in (0, 1):
                    emap = _face_positions(n, i, eps)[1]
                    face[(n, i, eps)] = tuple([below[_gather(x.edge_labels, emap)]
                                               for x in level])
            sources = [x.edge_labels + tuple(map(C.identity_of, x.vertex_labels))
                       for x in levels[n - 1]]
            for i in range(1, n + 1):
                emap = _degeneracy_positions(n - 1, i)[1]
                degen_map[(n - 1, i)] = tuple([lookup[_gather(s, emap)]
                                               for s in sources])
            del sources, below  # freed before the next level is searched
        nondegenerate.append(len(level) - len({x for i in range(1, n + 1)
                                               for x in degen_map[(n - 1, i)]}))
        keys.append(level_keys)
        levels.append(level)
    del lookup  # freed before CubesTable builds its key index
    degenerate = [[mask != 0 for mask in level]
                  for level in degeneracy_masks(face, degen_map, [len(level) for level in keys])]
    return CubesTable(top, keys, levels, degenerate, face, degen_map)


def factorization_category(C: FiniteCategory) -> FiniteCategory:
    """Category of two-sided decompositions: objects are the morphisms of C.

    An arrow from alpha to beta is a pair (u, v) with beta = v . alpha . u,
    named "alpha|beta|u|v": one per u into the source of alpha and v out of
    its target, ordered by alpha, beta, then the places of u and v in C.
    Pairs compose by stacking on both sides. Such names would collide if a
    morphism name of C held the bar, so that is refused.
    """
    objects = sorted(C.morphisms)
    for name in objects:
        if "|" in name:
            raise ValueError(f"morphism name {name!r} contains '|', which "
                             f"separates the parts of factorization arrow names")
    by_source, by_target = {}, {}
    for name, (src, dst) in C.morphisms.items():
        by_source.setdefault(src, []).append(name)
        by_target.setdefault(dst, []).append(name)
    # listed by alpha, u, v: the stable sort by (alpha, beta) keeps u and v in C's order
    arrows = sorted(((alpha, C.compose(v, C.compose(alpha, u)), u, v) for alpha in objects
                     for u in by_target.get(C.source(alpha), ())
                     for v in by_source.get(C.target(alpha), ())), key=lambda a: a[:2])
    morphisms = {"|".join(a): a[:2] for a in arrows}
    starts = {}
    for name, a in zip(morphisms, arrows):
        starts.setdefault(a[0], []).append((name, a))
    identities = {alpha: f"{alpha}|{alpha}|{C.identity_of(C.source(alpha))}"
                  f"|{C.identity_of(C.target(alpha))}" for alpha in objects}
    composition = {}
    for name1, (alpha, beta, u1, v1) in zip(morphisms, arrows):
        for name2, (_, gamma, u2, v2) in starts.get(beta, ()):
            composition[(name2, name1)] = f"{alpha}|{gamma}|{C.compose(u1, u2)}|{C.compose(v2, v1)}"
    return FiniteCategory(objects, morphisms, composition, identities)


class ComparisonReport(namedtuple("ComparisonReport", "cubical categorical")):
    """Groups from the cubical route next to groups from the string complex."""

    __slots__ = ()

    @property
    def equal(self) -> bool:
        return self.cubical == self.categorical


def bw_cohomology_cubical(C: FiniteCategory, G: FiniteDiagram,
                          max_dim: int) -> tuple[HomologyGroup, ...]:
    """Nerve cohomology with coefficients pulled back along long diagonals."""
    nerve = cubical_nerve(C, max_dim + 1)
    system = natural_system_via_d(C, G, nerve)
    return cohomology(nerve, system, max_dim)


def bw_cohomology_oracle(C: FiniteCategory, G: FiniteDiagram,
                         max_dim: int) -> tuple[HomologyGroup, ...]:
    """The same groups from the string complex of G's category, which must be
    the decomposition category of C (reused here, not built again)."""
    return category_cohomology(G.category, G, max_dim)


def bw_comparison(C: FiniteCategory, G: FiniteDiagram,
                  max_dim: int) -> ComparisonReport:
    """Run both routes to the decomposition cohomology side by side."""
    return ComparisonReport(bw_cohomology_cubical(C, G, max_dim),
                            bw_cohomology_oracle(C, G, max_dim))


def nerve_vs_bar_comparison(C: FiniteCategory, F: FiniteDiagram,
                            max_dim: int) -> ComparisonReport:
    """Nerve homology with last-vertex coefficients against the string complex.

    F must be a diagram on the opposite category; the cubical side evaluates
    it at final vertices of nerve cubes, the other side is the string complex
    of the opposite category itself.
    """
    nerve = cubical_nerve(C, max_dim + 1)
    system = system_from_diagram_last_vertex(C, F, nerve)
    return ComparisonReport(homology(nerve, system, max_dim),
                            category_homology(C.op(), F, max_dim))
