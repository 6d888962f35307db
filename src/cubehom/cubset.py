"""Finite cubical sets, semi-cubical sets, their tabulated truncations, maps, products, fibers.

Two representations are used. A PresentedCubicalSet lists generators plus a
face table; every cube of the set is then a pair (generator, deletion map),
and a face of a cube takes at most one face-table lookup (_plan_face). A
CubesTable is the fully expanded, index-based form truncated at some
dimension; category nerves live there. Products and fibers are one
construction on tables, the fiber product: a product is taken over a point,
and the fiber of a map over a cube y is taken against the table of the
representable I^dim(y), whose cubes are the arrows into it (Grandis and
Mauri, "Cubical sets and their site", TAC 11, 2003); the fiber criterion
reads its pairs with no fiber table. Maps act on tables by index.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations
from math import comb

from .boxcat import (
    CubeMorphism,
    cubical_identities,
    degeneracy,
    face,
    hom_set,
    identity,
    identity_failures,
)

GENERATOR_NAME = re.compile(r"^[A-Za-z0-9_.\-]+$")
EXPANSION_CUBE_BUDGET = 50_000  # the most cubes one expansion of a presented set may hold


def epi_wire(epi: CubeMorphism) -> str:
    """Serialize a deletion map: identity as its token word, proper as del-list."""
    if epi.is_identity():
        return epi.token_word()
    kept = set(epi.tokens)
    deleted = [str(c) for c in range(1, epi.src_dim + 1) if c not in kept]
    return "del:" + ",".join(deleted)


def epi_from_wire(src_dim: int, dst_dim: int, text: str) -> CubeMorphism:
    """Parse either epi encoding, given both dimensions from context."""
    text = text.strip()
    if text.startswith("del:"):
        body = text[4:].strip()
        deleted = set()
        if body:
            for part in body.split(","):
                if not part.strip().lstrip("-").isdigit():
                    raise ValueError(f"bad deleted coordinate {part!r}")
                c = int(part)
                if not 1 <= c <= src_dim or c in deleted:
                    raise ValueError(f"deleted coordinate {c} invalid for I^{src_dim}")
                deleted.add(c)
        kept = [c for c in range(1, src_dim + 1) if c not in deleted]
        epi = CubeMorphism(src_dim, len(kept), kept)
    else:
        epi = CubeMorphism.from_word(src_dim, text)
    if not epi.is_epi():
        raise ValueError(f"{text!r} does not describe a deletion map")
    if epi.dst_dim != dst_dim:
        raise ValueError(f"deletion map lands in dimension {epi.dst_dim}, expected {dst_dim}")
    return epi


class Cube(namedtuple("Cube", "gen epi")):
    """A cube of a presented set: a generator (str) degenerated along a deletion map epi."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.epi.src_dim

    @property
    def gen_dim(self) -> int:
        return self.epi.dst_dim

    def is_degenerate(self) -> bool:
        return not self.epi.is_identity()

    def key(self) -> str:
        return f"{self.gen}@{epi_wire(self.epi)}"

    def __repr__(self):
        return f"Cube({self.key()}, dim {self.dim})"


class PresentedCubicalSet:
    """Generators with dimensions plus a face table; cubes are (generator, epi) pairs."""

    def __init__(self, generators: dict[str, int], faces: dict[tuple[str, int, int], Cube]):
        self.generators = dict(generators)
        self.faces = dict(faces)

    def generator_dim(self, name: str) -> int:
        if name not in self.generators:
            raise ValueError(f"unknown generator {name!r}")
        return self.generators[name]

    def cube_count(self, n: int) -> int:
        """Cubes of dimension n: comb(n, k) per k-dimensional generator, one per deletion map."""
        return sum(comb(n, k) for k in self.generators.values())

    def face_cube(self, gen: str, i: int, eps: int) -> Cube:
        try:
            return self.faces[(gen, i, eps)]
        except KeyError:
            raise ValueError(f"no face entry for ({gen}, {i}, {eps})") from None

    def cube_from_key(self, n: int, key: str) -> Cube:
        if "@" not in key:
            raise ValueError(f"cube key {key!r} has no '@' separator")
        gen, wire = key.rsplit("@", 1)
        k = self.generator_dim(gen)
        return Cube(gen, epi_from_wire(n, k, wire))

    def validate(self) -> list[str]:
        """Structural checks, then face commutation on every generator.

        face_face_failures evaluates the instances: a side is one of the
        generator's face entries followed by one _face_of step. Failures are
        reported by generator, in self.generators order, and a Cube is built
        only to word one.
        """
        report = []
        for name, dim in self.generators.items():
            if not GENERATOR_NAME.match(name):
                report.append(f"generator name {name!r} is not of the form [A-Za-z0-9_.-]+")
            if dim < 0:
                report.append(f"generator {name!r} has negative dimension {dim}")
        expected = {
            (g, i, eps)
            for g, d in self.generators.items()
            for i in range(1, d + 1)
            for eps in (0, 1)
        }
        for k in sorted(expected - set(self.faces)):
            report.append(f"missing face entry {k}")
        for k in sorted(set(self.faces) - expected):
            report.append(f"unexpected face entry {k}")
        structurally_ok = not report
        for (g, i, eps), c in self.faces.items():
            if (g, i, eps) not in expected:
                continue
            if c.gen not in self.generators:
                report.append(f"face ({g},{i},{eps}) references unknown generator {c.gen!r}")
                structurally_ok = False
                continue
            if not c.epi.is_epi() or c.epi.dst_dim != self.generators[c.gen]:
                report.append(f"face ({g},{i},{eps}) has a malformed deletion map")
                structurally_ok = False
            elif c.dim != self.generators[g] - 1:
                report.append(f"face ({g},{i},{eps}) has dimension {c.dim}, "
                              f"expected {self.generators[g] - 1}")
                structurally_ok = False
        if not structurally_ok:
            return report
        order = {g: p for p, g in enumerate(self.generators)}
        failures = self.face_face_failures(
            lambda k, c, i, a: self._face_of(c.gen, c.epi.tokens, i, a),
            max(self.generators.values(), default=0))
        for g, detail, lhs, rhs in sorted(failures, key=lambda f: order[f[0]]):
            lhs, rhs = (Cube(h, CubeMorphism(self.generators[g] - 2, len(t), t)).key()
                        for h, t in (lhs, rhs))
            report.append(f"face commutation fails on generator {g!r} at ({detail}): "
                          f"{lhs} != {rhs}")
        return report

    def face_face_failures(self, side, top: int) -> list:
        """The face-face instances of cubical_identities that fail at generators of dim <= top.

        A side at the generator g is its face entry k = (g, j, b), the cube
        c = self.faces[k], followed by face (i, a) of c, and side(k, c, i, a)
        gives its value. Each failure is (g, detail, lhs value, rhs value),
        ordered as identity_failures orders them: by dimension, then by
        generator, then by instance.
        """
        top = min(top, max(self.generators.values(), default=0))
        cells = [[g for g, d in self.generators.items() if d == n] for n in range(top + 1)]

        def ends(n, path):
            (_, j, b), (_, i, a) = path
            return [side((g, j, b), self.faces[(g, j, b)], i, a) for g in cells[n]]

        face_face = [e for e in cubical_identities(top) if e[0] == "face-face"]
        return [(cells[n][p], detail, lhs, rhs)
                for _, n, p, detail, lhs, rhs in identity_failures(face_face, ends)]

    def _face_of(self, gen: str, tokens: tuple[int, ...], i: int, eps: int):
        """Face (i, eps) of the cube (gen, deletion map with these tokens), as (gen, tokens).

        Both validators check with it; it applies _plan_face to one cube and builds no plan.
        """
        p, rest = _plan_face(tokens, i)
        if not p:
            return gen, rest
        fc = self.face_cube(gen, p, eps)
        return fc.gen, tuple(rest[t - 1] for t in fc.epi.tokens)

    def expand(self, top: int) -> "CubesTable":
        """Tabulate all cubes of dimension 0..top with face and degeneracy tables.

        A table of more than EXPANSION_CUBE_BUDGET cubes is refused before any is built.
        """
        if top < 0:
            raise ValueError("truncation must be nonnegative")
        cubes = sum(self.cube_count(n) for n in range(top + 1))
        if cubes > EXPANSION_CUBE_BUDGET:
            raise ValueError(f"expanding to dimension {top} gives {cubes} cubes, more than "
                             f"{EXPANSION_CUBE_BUDGET}, the budget of one table")
        keys, elements, degenerate = ([[] for _ in range(top + 1)] for _ in range(3))
        offsets = [{} for _ in range(top + 1)]
        for n in range(top + 1):
            for g, k in self.generators.items():
                if k <= n:
                    plan = _deletion_plan(n, k)
                    offsets[n][g] = len(elements[n])
                    keys[n] += [f"{g}@{w}" for w in plan.wires]
                    elements[n] += [Cube(g, e) for e in plan.epis]
                    degenerate[n] += [n != k] * len(plan.epis)
        faces, degen = {}, {}
        for n in range(1, top + 1):
            below = offsets[n - 1]

            def kept(g, p, rest, eps):
                fc = self.faces[(g, p, eps)]
                return below[fc.gen] + _deletion_plan(n - 1, fc.gen_dim).position[
                    tuple([rest[t - 1] for t in fc.epi.tokens])]

            blocks = [(g, k, _deletion_plan(n, k), below.get(g))
                      for g, k in self.generators.items() if k <= n]
            for i in range(1, n + 1):
                for eps in (0, 1):
                    faces[(n, i, eps)] = tuple([kept(g, p, rest, eps) if p else start + rest
                                                for g, k, plan, start in blocks
                                                for p, rest in plan.faces[i - 1]])
                degen[(n - 1, i)] = tuple(offsets[n][g] + q for g, k, plan, start in blocks
                                          if k < n for q in plan.degens[i - 1])
        return CubesTable(top, keys, elements, degenerate, faces, degen)


def _plan_face(tokens: tuple[int, ...], i: int):
    """The one face rule: face i of the cube (g, tokens) is (p, rest), tokens less i renumbered.

    p = 0 when the tokens delete i, and the face is (g, rest); else i is the
    p-th kept coordinate, and the face is g's face (p, eps) degenerated along rest.
    """
    rest = tuple(t - (t > i) for t in tokens if t != i)
    return (0 if len(rest) == len(tokens) else tokens.index(i) + 1), rest


_DeletionPlan = namedtuple("_DeletionPlan", "epis wires position faces degens")


@lru_cache(maxsize=None)
def _deletion_plan(n: int, k: int) -> _DeletionPlan:
    """The deletion maps I^n -> I^k in combinations order, with their faces; one per (n, k).

    epis and wires hold the maps and their epi_wire words; position maps tokens to
    places. faces[i - 1] holds each map's _plan_face at i, rest being a place of
    _deletion_plan(n - 1, k) when p = 0; degens[i - 1][q] is the place of s_i of
    that plan's map q. Tables share the maps and tuples. Only expand, which is
    budget-checked, and coeff on its tables read plans; single faces use _plan_face.
    """
    epis = tuple(CubeMorphism(n, k, kept) for kept in combinations(range(1, n + 1), k))
    position = {e.tokens: q for q, e in enumerate(epis)}
    below = _deletion_plan(n - 1, k).position if n > k else {}
    faces, degens = [], []
    for i in range(1, n + 1):
        column, up = [], [0] * len(below)
        for q, e in enumerate(epis):
            p, rest = _plan_face(e.tokens, i)
            if not p:
                rest = below[rest]
                up[rest] = q
            column.append((p, rest))
        faces.append(tuple(column))
        degens.append(tuple(up))
    return _DeletionPlan(epis, tuple(map(epi_wire, epis)), position, tuple(faces), tuple(degens))


def degeneracy_masks(face, degen_map, sizes) -> list[list[int]]:
    """Per dimension and cube z of a table, bit i set when s_i(d_{i,0} z) = z.

    face and degen_map are the table's index columns and sizes its number
    of cubes per dimension. A cube is degenerate exactly when its mask is
    nonzero: z = s_i(w) forces w = d_{i,0} z.
    """
    masks = [[0] * sizes[0]]
    for n in range(1, len(sizes)):
        level = [0] * sizes[n]
        for i in range(1, n + 1):
            up, bit = degen_map[(n - 1, i)], 1 << i
            for z, w in enumerate(face[(n, i, 0)]):
                if up[w] == z:
                    level[z] |= bit
        masks.append(level)
    return masks


class CubesTable:
    """A dimension-truncated cubical set with all operators resolved to indices."""

    def __init__(self, top, keys, elements, degenerate, face, degen_map):
        self.top = top
        self.keys = keys
        self.elements = elements
        self.degenerate = degenerate
        self.face = face
        self.degen_map = degen_map
        self.index = [{k: i for i, k in enumerate(level)} for level in keys]

    def size(self, n: int) -> int:
        return len(self.keys[n])

    def key(self, n: int, idx: int) -> str:
        return self.keys[n][idx]

    def element(self, n: int, idx: int):
        return self.elements[n][idx]

    def is_degenerate(self, n: int, idx: int) -> bool:
        return self.degenerate[n][idx]

    def face_index(self, n: int, i: int, eps: int, idx: int) -> int:
        return self.face[(n, i, eps)][idx]

    def nondegenerate_indices(self, n: int) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degenerate[n]) if not d)

    def degeneracy_masks(self) -> list[list[int]]:
        return degeneracy_masks(self.face, self.degen_map, [len(level) for level in self.keys])

    def _ends(self, n: int, path) -> Sequence[int]:
        """Where each cube of dimension n lands along an operator path (see cubical_identities)."""
        ends = range(self.size(n))
        for op in path:
            column = self.face[op] if len(op) == 3 else self.degen_map[op]
            ends = [column[x] for x in ends]
        return ends

    def validate(self) -> list[str]:
        report = []
        ops = [((n, i, eps), "face", self.face)
               for n in range(1, self.top + 1) for i in range(1, n + 1) for eps in (0, 1)]
        ops += [((m, i), "degeneracy", self.degen_map)
                for m in range(self.top) for i in range(1, m + 2)]
        for op, what, columns in ops:
            sel = ",".join(map(str, op))
            if op not in columns:
                report.append(f"missing {what} table ({sel})")
            elif len(columns[op]) != self.size(op[0]):
                report.append(f"{what} table ({sel}) has wrong length")
        if report:
            return report
        words = {"face-face": "face commutation",
                 "degeneracy-degeneracy": "degeneracy commutation",
                 "face-degeneracy": "face-degeneracy identity"}
        report = [f"{words[family]} fails at dim {n} cube {self.key(n, idx)} ({detail})"
                  for family, n, idx, detail, _, _
                  in identity_failures(cubical_identities(self.top), self._ends)]
        for n, masks in enumerate(self.degeneracy_masks()):
            for idx, mask in enumerate(masks):
                flag = self.is_degenerate(n, idx)
                if flag != bool(mask):
                    report.append(
                        f"degeneracy tag mismatch at dim {n} cube {self.key(n, idx)}: "
                        f"tagged {flag}, operators say {bool(mask)}")
        return report


class SemiCubicalSet:
    """Named cubes per dimension with face maps only (no degeneracies)."""

    def __init__(self, levels: Sequence[Sequence[str]], faces: dict[tuple[str, int, int], str]):
        self.levels = [list(l) for l in levels]
        self.faces = dict(faces)
        self._dims = {}
        for n, level in enumerate(self.levels):
            for name in level:
                self._dims[name] = n

    @property
    def top_dim(self) -> int:
        return len(self.levels) - 1

    def dim_of(self, name: str) -> int:
        if name not in self._dims:
            raise ValueError(f"unknown cube {name!r}")
        return self._dims[name]

    def validate(self) -> list[str]:
        report = []
        seen = set()
        for n, level in enumerate(self.levels):
            for name in level:
                if not GENERATOR_NAME.match(name):
                    report.append(f"cube name {name!r} is not of the form [A-Za-z0-9_.-]+")
                if name in seen:
                    report.append(f"cube name {name!r} appears twice")
                seen.add(name)
        expected = {
            (x, i, eps)
            for n, level in enumerate(self.levels) if n >= 1
            for x in level
            for i in range(1, n + 1)
            for eps in (0, 1)
        }
        for k in sorted(expected - set(self.faces)):
            report.append(f"missing face entry {k}")
        for k in sorted(set(self.faces) - expected):
            report.append(f"unexpected face entry {k}")
        if report:
            return report
        for (x, i, eps), y in self.faces.items():
            if y not in self._dims:
                report.append(f"face ({x},{i},{eps}) references unknown cube {y!r}")
            elif self._dims[y] != self._dims[x] - 1:
                report.append(f"face ({x},{i},{eps}) has dimension {self._dims[y]}, "
                              f"expected {self._dims[x] - 1}")
        if report:
            return report
        failures = universal_from_semicubical(self).face_face_failures(
            lambda k, c, i, a: self.faces[(c.gen, i, a)], self.top_dim)
        return [f"face commutation fails on {x!r} at ({detail})" for x, detail, _, _ in failures]


def universal_from_semicubical(S: SemiCubicalSet) -> PresentedCubicalSet:
    """Freely add degeneracies: generators are the cubes of S, faces non-degenerate."""
    return PresentedCubicalSet({x: n for n, level in enumerate(S.levels) for x in level},
                               {k: Cube(y, identity(S.dim_of(k[0]) - 1))
                                for k, y in S.faces.items()})


def standard_cube(n: int) -> PresentedCubicalSet:
    """The representable cubical set of I^n; generators are its injections.

    A generator is named by its coordinate pattern prefixed with "c": letters
    "0"/"1" for pinned coordinates and "x" for free ones, so standard_cube(2)
    has generators c00 .. cxx.
    """
    generators = {}
    words = [""]
    for _ in range(n):
        words = [w + ch for w in words for ch in "01x"]
    for w in words:
        generators["c" + w] = w.count("x")
    faces = {}
    for w in words:
        k = w.count("x")
        for i in range(1, k + 1):
            positions = [p for p, ch in enumerate(w) if ch == "x"]
            p = positions[i - 1]
            for eps in (0, 1):
                faces[("c" + w, i, eps)] = Cube("c" + w[:p] + str(eps) + w[p + 1:], identity(k - 1))
    return PresentedCubicalSet(generators, faces)


class CubicalMap:
    """A map of presented cubical sets, given on generators."""

    def __init__(self, source: PresentedCubicalSet, target: PresentedCubicalSet,
                 assignment: dict[str, Cube]):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def validate(self) -> list[str]:
        """The problems of the source and target sets, else those of the assignment.

        Naturality compares, for each face of each source generator, the
        face's value degenerated along the face's deletion map with the
        target's _face_of of the generator's value.
        """
        report = [f"{side}: {problem}"
                  for side, X in (("source", self.source), ("target", self.target))
                  for problem in X.validate()]
        if report:
            return report
        src_gens = set(self.source.generators)
        for g in sorted(src_gens - set(self.assignment)):
            report.append(f"no value assigned to generator {g!r}")
        for g in sorted(set(self.assignment) - src_gens):
            report.append(f"value assigned to unknown generator {g!r}")
        if report:
            return report
        for g, c in self.assignment.items():
            if c.gen not in self.target.generators:
                report.append(f"value of {g!r} references unknown target generator {c.gen!r}")
            elif c.gen_dim != self.target.generators[c.gen] or c.dim != self.source.generators[g]:
                report.append(f"value of {g!r} has dimension {c.dim}, "
                              f"expected {self.source.generators[g]}")
        if report:
            return report
        for g, d in self.source.generators.items():
            value = self.assignment[g]
            for i in range(1, d + 1):
                for eps in (0, 1):
                    fc = self.source.face_cube(g, i, eps)
                    img = self.assignment[fc.gen]
                    lhs = img.gen, tuple(fc.epi.tokens[t - 1] for t in img.epi.tokens)
                    rhs = self.target._face_of(value.gen, value.epi.tokens, i, eps)
                    if lhs != rhs:
                        lhs, rhs = (Cube(h, CubeMorphism(d - 1, len(t), t)).key()
                                    for h, t in (lhs, rhs))
                        report.append(
                            f"naturality fails on generator {g!r} at (i={i}, eps={eps}): "
                            f"{lhs} != {rhs}")
        return report

    def table_map(self, tx: CubesTable, ty: CubesTable) -> list[tuple[int, ...]]:
        """Per dimension, the target index of the image of each source cube.

        The image of a generator is looked up by key once. The source cube
        (g, epi) goes to the image of g degenerated along each coordinate
        epi deletes, in increasing order, one target degeneracy column each.
        """
        top = min(tx.top, ty.top)
        start = {g: ty.index[c.dim][c.key()] for g, c in self.assignment.items() if c.dim <= top}
        out = []
        for n in range(top + 1):
            imgs = []
            for x in tx.elements[n]:
                if x.gen not in start:
                    raise ValueError(f"map not defined on generator {x.gen!r}")
                z, m = start[x.gen], x.gen_dim
                for c in range(1, n + 1):
                    if c not in x.epi.tokens:
                        z, m = ty.degen_map[(m, c)][z], m + 1
                imgs.append(z)
            out.append(tuple(imgs))
        return out


def _equal_pairs(images_a: Sequence[int], images_b: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (ia, ib) with images_a[ia] == images_b[ib], ordered by ia and then ib."""
    over = {}
    for ib, img in enumerate(images_b):
        over.setdefault(img, []).append(ib)
    return [(ia, ib) for ia, img in enumerate(images_a) for ib in over.get(img, ())]


def _pullback(a, b, sep: str) -> CubesTable:
    """The fiber product of two tables over a common base, up to the first one's top.

    a and b are (table, images, masks) with images[k][z] the index in the
    base of the k-cube z and masks the table's degeneracy_masks(), which a
    sweep reads once. The k-cubes are the pairs (ia, ib) with equal images,
    ordered by ia and then ib and keyed key_a + sep + key_b. Operators act
    on both parts by index, and a pair is degenerate when both parts are
    degenerate along a common coordinate. b's table may run higher.
    """
    (ta, images_a, masks_a), (tb, images_b, masks_b) = a, b
    keys, elements, degenerate, pos, cells = [], [], [], [], []
    for k in range(ta.top + 1):
        level = _equal_pairs(images_a[k], images_b[k])
        key_a, key_b, elem_a, elem_b = ta.keys[k], tb.keys[k], ta.elements[k], tb.elements[k]
        mask_a, mask_b, width = masks_a[k], masks_b[k], tb.size(k)
        keys.append([key_a[ia] + sep + key_b[ib] for ia, ib in level])
        elements.append([(elem_a[ia], elem_b[ib]) for ia, ib in level])
        degenerate.append([bool(mask_a[ia] & mask_b[ib]) for ia, ib in level])
        pos.append({ia * width + ib: p for p, (ia, ib) in enumerate(level)})
        cells.append(level)

    def column(op, col_a, col_b, dst):
        into, width = pos[dst], tb.size(dst)
        return tuple(into[col_a[ia] * width + col_b[ib]] for ia, ib in cells[op[0]])

    return CubesTable(ta.top, keys, elements, degenerate,
                      {op: column(op, col, tb.face[op], op[0] - 1) for op, col in ta.face.items()},
                      {op: column(op, col, tb.degen_map[op], op[0] + 1)
                       for op, col in ta.degen_map.items()})


def product(A: PresentedCubicalSet, B: PresentedCubicalSet, top: int) -> CubesTable:
    """The product A x B tabulated up to top, keyed "a|b".

    It is the fiber product of the two tables over a point, so a pair is
    degenerate iff the two deletion maps share a deleted coordinate.
    """
    cubes = sum(A.cube_count(n) * B.cube_count(n) for n in range(top + 1))
    if cubes > EXPANSION_CUBE_BUDGET:
        raise ValueError(f"the product to dimension {top} has {cubes} cubes, more than "
                         f"{EXPANSION_CUBE_BUDGET}, the budget of one table")
    legs = [(t, [[0] * t.size(k) for k in range(top + 1)], t.degeneracy_masks())
            for t in (A.expand(top), B.expand(top))]
    return _pullback(*legs, "|")


@lru_cache(maxsize=None)
def _representable(d: int, top: int) -> tuple[CubesTable, list[list[int]]]:
    """The representable I^d tabulated up to top, with its degeneracy masks.

    Its k-cubes are hom_set(k, d) in token order, keyed by token words; face
    (i, eps) of alpha is alpha . face(k, i, eps) and its i-th degeneracy is
    alpha . degeneracy(k + 1, i). Both are shared by every caller, which
    only reads them. It is counted as standard_cube(d).expand(top) counts it
    and refused past EXPANSION_CUBE_BUDGET before any arrow is listed.
    """
    cubes = sum(comb(d, j) * comb(k, j) << (d - j) for k in range(top + 1) for j in range(d + 1))
    if cubes > EXPANSION_CUBE_BUDGET:
        raise ValueError(f"the representable I^{d} to dimension {top} has {cubes} cubes, "
                         f"more than {EXPANSION_CUBE_BUDGET}, the budget of one table")
    arrows = [hom_set(k, d) for k in range(top + 1)]
    index = [{a.tokens: n for n, a in enumerate(level)} for level in arrows]
    faces = {(k, i, eps): tuple(index[k - 1][a.compose(face(k, i, eps)).tokens] for a in arrows[k])
             for k in range(1, top + 1) for i in range(1, k + 1) for eps in (0, 1)}
    degens = {(m, i): tuple(index[m + 1][a.compose(degeneracy(m + 1, i)).tokens]
                            for a in arrows[m])
              for m in range(top) for i in range(1, m + 2)}
    cube = CubesTable(top, [[a.token_word() for a in level] for level in arrows],
                      [list(level) for level in arrows],
                      [[not a.is_mono() for a in level] for level in arrows], faces, degens)
    return cube, cube.degeneracy_masks()


def fiber_source(f: CubicalMap, top: int, ty: CubesTable):
    """The leg (table, images, masks) of f's source in its fibers at truncation top.

    table is the source tabulated up to top, images[k][ix] the index in ty,
    the target's table up to top or beyond, of f applied to the k-cube ix,
    and masks is table.degeneracy_masks(); a sweep computes the leg once.
    """
    tx = f.source.expand(top)
    return tx, f.table_map(tx, ty), tx.degeneracy_masks()


def _over_cube(ty: CubesTable, d: int, iy: int, top: int):
    """The leg (I^d, y.alpha, masks) of the fiber over the d-cube iy = y of ty."""
    cube, cube_masks = _representable(d, max(top, d))
    y_alpha = [[None] * cube.size(k) for k in range(cube.top + 1)]
    # the identity goes to y, and a mono below d to a face of a mono one level up
    y_alpha[d][cube.index[d][identity(d).token_word()]] = iy
    for k in range(d, 0, -1):
        for b in cube.nondegenerate_indices(k):
            for i in range(1, k + 1):
                for eps in (0, 1):
                    y_alpha[k - 1][cube.face[(k, i, eps)][b]] = ty.face[(k, i, eps)][y_alpha[k][b]]
    # alpha not using coordinate i is s_i of its face (i, 0)
    for k, masks in enumerate(cube_masks[1:top + 1], start=1):
        for a, mask in enumerate(masks):
            if mask:
                i = (mask & -mask).bit_length() - 1
                y_alpha[k][a] = ty.degen_map[(k - 1, i)][y_alpha[k - 1][cube.face[(k, i, 0)][a]]]
    return cube, y_alpha, cube_masks


def pullback_fiber(f: CubicalMap, y: Cube, top: int) -> CubesTable:
    """The fiber of f over the single cube y, tabulated up to dimension top.

    It is the pullback of f along the map I^d -> Y that picks y, d = dim y:
    a k-cube is a pair (x, alpha) with x a k-cube of the source and
    alpha: I^k -> I^d satisfying f(x) = y.alpha, keyed "x;alpha". y.alpha
    is read off the target's columns by _over_cube, and _pullback pairs the
    source's leg (fiber_source) with the table of I^d.
    """
    ty = f.target.expand(max(top, y.dim))
    iy = ty.index[y.dim].get(y.key())
    if iy is None:
        raise ValueError(f"{y!r} is not a cube of the target's table")
    return _pullback(fiber_source(f, top, ty), _over_cube(ty, y.dim, iy, top), ";")
