"""Finite cubical sets, semi-cubical sets, their tabulated truncations, maps, products, fibers.

Two representations are used. A PresentedCubicalSet lists generators plus a
face table; every cube of the set is then a pair (generator, deletion map)
and the contravariant action is computed by epi-mono factorization. A
CubesTable is the fully expanded, index-based form truncated at some
dimension; products, pullback fibers, and category nerves live there, and
all chain builders consume tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .boxcat import (
    CubeMorphism,
    cubical_identities,
    degeneracy,
    epi_mono_factorize,
    face,
    hom_set,
    identity,
    identity_failures,
    mono_faces,
)

GENERATOR_NAME = re.compile(r"^[A-Za-z0-9_.\-]+$")


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


@dataclass(frozen=True)
class Cube:
    """A cube of a presented set: a generator degenerated along a deletion map."""

    gen: str
    epi: CubeMorphism

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

    def __init__(self, generators: Dict[str, int], faces: Dict[Tuple[str, int, int], Cube]):
        self.generators = dict(generators)
        self.faces = dict(faces)

    def generator_dim(self, name: str) -> int:
        if name not in self.generators:
            raise ValueError(f"unknown generator {name!r}")
        return self.generators[name]

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

    def validate(self) -> List[str]:
        """Structural checks plus the face-commutation identity on every generator."""
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
        for g, d in self.generators.items():
            for i in range(1, d):
                for j in range(i + 1, d + 1):
                    for alpha in (0, 1):
                        for beta in (0, 1):
                            lhs = apply_morphism(self, face(d - 1, i, alpha), self.faces[(g, j, beta)])
                            rhs = apply_morphism(self, face(d - 1, j - 1, beta), self.faces[(g, i, alpha)])
                            if lhs != rhs:
                                report.append(
                                    f"face commutation fails on generator {g!r} at "
                                    f"(i={i}, j={j}, alpha={alpha}, beta={beta}): "
                                    f"{lhs.key()} != {rhs.key()}")
        return report

    def _face_of(self, gen: str, tokens: Tuple[int, ...], i: int, eps: int):
        """Face (i, eps) of the cube (gen, deletion map with these tokens), as (gen, tokens).

        If the deletion map drops coordinate i, the face only renumbers it.
        If it keeps i as its p-th coordinate, the face is the generator's
        face (p, eps) degenerated along the deletion map less coordinate i.
        """
        rest = tuple(t - (t > i) for t in tokens if t != i)
        if len(rest) == len(tokens):
            return gen, rest
        fc = self.face_cube(gen, tokens.index(i) + 1, eps)
        return fc.gen, tuple(rest[t - 1] for t in fc.epi.tokens)

    def expand(self, top: int) -> "CubesTable":
        """Tabulate all cubes of dimension 0..top with face and degeneracy tables."""
        if top < 0:
            raise ValueError("truncation must be nonnegative")
        elements: List[List[Cube]] = []
        for n in range(top + 1):
            level = []
            for g, k in self.generators.items():
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
                        index[n - 1][self._face_of(c.gen, c.epi.tokens, i, eps)]
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

    def degeneracy_index(self, m: int, i: int, idx: int) -> int:
        """Index at dimension m+1 of the i-th degeneracy of cube idx at dimension m."""
        return self.degen_map[(m, i)][idx]

    def nondegenerate_indices(self, n: int) -> Tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degenerate[n]) if not d)

    def _ends(self, n: int, path) -> Sequence[int]:
        """Where each cube of dimension n lands along an operator path (see cubical_identities)."""
        ends = range(self.size(n))
        for op in path:
            column = self.face[op] if len(op) == 3 else self.degen_map[op]
            ends = [column[x] for x in ends]
        return ends

    def validate(self) -> List[str]:
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
                  for family, n, idx, detail
                  in identity_failures(cubical_identities(self.top), self._ends)]
        for n in range(self.top + 1):
            for idx in range(self.size(n)):
                flag = self.is_degenerate(n, idx)
                hit = n >= 1 and any(
                    self.degeneracy_index(n - 1, i, self.face_index(n, i, 0, idx)) == idx
                    for i in range(1, n + 1))
                if flag != hit:
                    report.append(
                        f"degeneracy tag mismatch at dim {n} cube {self.key(n, idx)}: "
                        f"tagged {flag}, operators say {hit}")
        return report


class SemiCubicalSet:
    """Named cubes per dimension with face maps only (no degeneracies)."""

    def __init__(self, levels: Sequence[Sequence[str]], faces: Dict[Tuple[str, int, int], str]):
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

    def face(self, name: str, i: int, eps: int) -> str:
        try:
            return self.faces[(name, i, eps)]
        except KeyError:
            raise ValueError(f"no face entry for ({name}, {i}, {eps})") from None

    def validate(self) -> List[str]:
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

        def ends(n, path):
            (_, i, a), (_, j, b) = path
            return [self.faces[(self.faces[(x, i, a)], j, b)] for x in self.levels[n]]

        face_face = [e for e in cubical_identities(self.top_dim) if e[0] == "face-face"]
        return [f"face commutation fails on {self.levels[n][p]!r} at ({detail})"
                for _, n, p, detail in identity_failures(face_face, ends)]


def universal_from_semicubical(S: SemiCubicalSet) -> PresentedCubicalSet:
    """Freely add degeneracies: generators are the cubes of S, faces non-degenerate."""
    generators = {name: n for n, level in enumerate(S.levels) for name in level}
    faces = {}
    for (x, i, eps), y in S.faces.items():
        faces[(x, i, eps)] = Cube(y, identity(S.dim_of(x) - 1))
    return PresentedCubicalSet(generators, faces)


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
                 assignment: Dict[str, Cube]):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def apply_to_cube(self, c: Cube) -> Cube:
        if c.gen not in self.assignment:
            raise ValueError(f"map not defined on generator {c.gen!r}")
        return apply_morphism(self.target, c.epi, self.assignment[c.gen])

    def validate(self) -> List[str]:
        report = []
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
            for i in range(1, d + 1):
                for eps in (0, 1):
                    lhs = self.apply_to_cube(self.source.face_cube(g, i, eps))
                    rhs = apply_morphism(self.target, face(d, i, eps), self.assignment[g])
                    if lhs != rhs:
                        report.append(
                            f"naturality fails on generator {g!r} at (i={i}, eps={eps}): "
                            f"{lhs.key()} != {rhs.key()}")
        return report

    def table_map(self, tx: CubesTable, ty: CubesTable) -> List[Tuple[int, ...]]:
        """Per dimension, the target index of the image of each source cube."""
        top = min(tx.top, ty.top)
        out = []
        for n in range(top + 1):
            imgs = []
            for c in tx.elements[n]:
                img = self.apply_to_cube(c)
                imgs.append(ty.index[n][img.key()])
            out.append(tuple(imgs))
        return out


def product(A: PresentedCubicalSet, B: PresentedCubicalSet, top: int) -> CubesTable:
    """Levelwise product table; a pair is degenerate iff the two deletion maps
    share a deleted coordinate."""
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


@lru_cache(maxsize=None)
def _homs(k: int, d: int):
    """hom_set(k, d) numbered once per process, with what a fiber reads of each arrow.

    Returns the arrows, their token words, the bitmask of the input
    coordinates each arrow uses (bit t for coordinate t), and the number of
    each arrow by token tuple. All four are shared by every caller, which
    only reads them.
    """
    arrows = hom_set(k, d)
    return (arrows, tuple(a.token_word() for a in arrows),
            tuple(sum(1 << t for t in a.tokens if t >= 1) for a in arrows),
            {a.tokens: n for n, a in enumerate(arrows)})


@lru_cache(maxsize=None)
def _hom_faces(k: int, d: int):
    """Per (i, eps), the index in hom_set(k-1, d) of alpha . face(k, i, eps), per alpha."""
    arrows, index = _homs(k, d)[0], _homs(k - 1, d)[3]
    return {(i, eps): tuple(index[a.compose(face(k, i, eps)).tokens] for a in arrows)
            for i in range(1, k + 1) for eps in (0, 1)}


@lru_cache(maxsize=None)
def _hom_degens(k: int, d: int):
    """Per i, the index in hom_set(k+1, d) of alpha . degeneracy(k+1, i), per alpha."""
    arrows, index = _homs(k, d)[0], _homs(k + 1, d)[3]
    return {i: tuple(index[a.compose(degeneracy(k + 1, i)).tokens] for a in arrows)
            for i in range(1, k + 2)}


@lru_cache(maxsize=None)
def _hom_steps(k: int, d: int):
    """One step of the action y -> y.alpha on a table, per alpha in hom_set(k, d).

    None for the identity. If alpha has a constant at its last constant
    position p, alpha = face(d, p, bit) . beta and y.alpha = (face_{p,bit} y).beta:
    the step is (True, (d, p, bit), index of beta in hom_set(k, d-1)). If alpha
    is epi and misses its last unused coordinate c, alpha = beta . degeneracy(k, c)
    and y.alpha = s_c(y.beta): the step is (False, (k-1, c), index of beta in
    hom_set(k-1, d)).
    """
    steps = []
    for a in _homs(k, d)[0]:
        toks = a.tokens
        consts = [p for p, t in enumerate(toks, start=1) if t <= 0]
        if consts:
            p = consts[-1]
            beta = toks[:p - 1] + toks[p:]
            steps.append((True, (d, p, 0 if toks[p - 1] == 0 else 1),
                          _homs(k, d - 1)[3][beta]))
        elif k > d:
            c = max(set(range(1, k + 1)) - set(toks))
            beta = tuple(t if t < c else t - 1 for t in toks)
            steps.append((False, (k - 1, c), _homs(k - 1, d)[3][beta]))
        else:
            steps.append(None)
    return tuple(steps)


class FiberSource:
    """What every fiber of f at one truncation reads; a sweep builds it once.

    table is the source tabulated up to top and target the target tabulated
    at least that far. images[k][ix] is the target index of f applied to
    source cube ix of dimension k, and deleted[k][ix] the bitmask of the
    coordinates its deletion map drops. action memoizes y.alpha as a target
    index, per (k, d, alpha index, y index), filled as fibers ask for it.
    """

    __slots__ = ("table", "target", "images", "deleted", "action")

    def __init__(self, table: CubesTable, target: CubesTable,
                 images: List[Tuple[int, ...]], deleted: List[Tuple[int, ...]]):
        self.table = table
        self.target = target
        self.images = images
        self.deleted = deleted
        self.action: Dict[Tuple[int, int, int, int], int] = {}


def fiber_source(f: CubicalMap, top: int, target: CubesTable = None) -> FiberSource:
    """The source of f tabulated up to top, with the target index of every image.

    target is the target's table, at least up to top; it is expanded here
    when not given. Every fiber of f at truncation top reads the result, so
    a sweep over fibers computes it once.
    """
    tx = f.source.expand(top)
    ty = f.target.expand(top) if target is None else target
    if ty.top < top:
        raise ValueError(f"target table stops at {ty.top}, fibers need {top}")
    deleted = [tuple(((1 << (k + 1)) - 2) & ~sum(1 << t for t in x.epi.tokens)
                     for x in level) for k, level in enumerate(tx.elements)]
    return FiberSource(tx, ty, f.table_map(tx, ty), deleted)


def _act(source: FiberSource, k: int, d: int, a: int, iy: int) -> int:
    """Target index of y.alpha for alpha = hom_set(k, d)[a] and y = cube iy of dim d."""
    memo = source.action
    key = (k, d, a, iy)
    got = memo.get(key)
    if got is None:
        step = _hom_steps(k, d)[a]
        if step is None:
            got = iy
        elif step[0]:
            got = _act(source, k, d - 1, step[2], source.target.face[step[1]][iy])
        else:
            got = source.target.degen_map[step[1]][_act(source, k - 1, d, step[2], iy)]
        memo[key] = got
    return got


def pullback_fiber(f: CubicalMap, y: Cube, top: int, *, source: FiberSource = None) -> CubesTable:
    """The fiber of f over the single cube y, tabulated up to dimension top.

    A k-cube is a pair (x, alpha) with x a k-cube of the source and
    alpha: I^k -> I^dim(y) satisfying f(x) = y.alpha; operators act on both
    components at once. Internally a fiber cube is the pair (source index,
    index in the numbered hom_set(k, dim y)), so faces and degeneracies are
    gathers through the source's tables and the per-(k, d) composite
    tables. source is fiber_source(f, top), built here when not given.
    """
    d = y.dim
    if source is None:
        source = fiber_source(f, top, f.target.expand(max(top, d)))
    tx, ty, images, deleted = source.table, source.target, source.images, source.deleted
    if tx.top != top:
        raise ValueError(f"source table stops at {tx.top}, fiber needs {top}")
    iy = ty.index[d].get(y.key()) if d <= ty.top else None
    if iy is None:
        raise ValueError(f"{y!r} is not a cube of the target's table")
    keys, elements, degenerate, pos, cells = [], [], [], [], []
    for k in range(top + 1):
        arrows, words, used, _ = _homs(k, d)
        over = {}
        for a in range(len(arrows)):
            over.setdefault(_act(source, k, d, a, iy), []).append(a)
        level = [(ix, a) for ix, img in enumerate(images[k]) for a in over.get(img, ())]
        xkeys, xelems, xdel, width = tx.keys[k], tx.elements[k], deleted[k], len(arrows)
        keys.append([f"{xkeys[ix]};{words[a]}" for ix, a in level])
        elements.append([(xelems[ix], arrows[a]) for ix, a in level])
        degenerate.append([bool(xdel[ix] & ~used[a]) for ix, a in level])
        pos.append({ix * width + a: p for p, (ix, a) in enumerate(level)})
        cells.append(level)
    faces = {}
    for k in range(1, top + 1):
        below, width, composite = pos[k - 1], len(_homs(k - 1, d)[0]), _hom_faces(k, d)
        for i in range(1, k + 1):
            for eps in (0, 1):
                src, comp = tx.face[(k, i, eps)], composite[(i, eps)]
                faces[(k, i, eps)] = tuple(below[src[ix] * width + comp[a]]
                                           for ix, a in cells[k])
    degen = {}
    for m in range(top):
        above, width, composite = pos[m + 1], len(_homs(m + 1, d)[0]), _hom_degens(m, d)
        for i in range(1, m + 2):
            src, comp = tx.degen_map[(m, i)], composite[i]
            degen[(m, i)] = tuple(above[src[ix] * width + comp[a]] for ix, a in cells[m])
    return CubesTable(top, keys, elements, degenerate, faces, degen)
