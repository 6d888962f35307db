"""Self-describing JSON documents for every entity the command line handles.

Each document is a JSON object with a "type" discriminator.  Parsers raise
FormatError when the document itself is malformed (wrong field types, unknown
names, matrices of the wrong shape); mathematical defects in a well-formed
document are left to the entity's own validate() so the caller can report
them as validation failures rather than parse errors.
"""

import json

from .catalg import FiniteCategory
from .coeff import (ContravariantSystem, CovariantSystem, FiniteDiagram,
                    SemiCubicalSystem, constant_system, local_system)
from .cubset import Cube, CubesTable, CubicalMap, PresentedCubicalSet, SemiCubicalSet
from .zlinalg import HomologyGroup, IntMatrix


class FormatError(Exception):
    """A document failed to parse; the message names the offending field."""


def load_document(path: str) -> dict:
    """Read one JSON document from a file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: {e}") from None
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    return data


def dumps_document(data: dict) -> str:
    """Serialize a document with sorted keys so output is byte-reproducible."""
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def dump_document(data: dict, path: str) -> None:
    """Write one JSON document to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(data))


def _check_type(data, expected: str):
    if not isinstance(data, dict):
        raise FormatError(f"a {expected} document must be a JSON object")
    t = data.get("type")
    if t != expected:
        raise FormatError(f"expected a {expected!r} document, got type {t!r}")


def _field(data: dict, name: str, kind, where: str):
    if name not in data:
        raise FormatError(f"{where}: missing field {name!r}")
    value = data[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"{where}: field {name!r} must be a {kind.__name__}")
    return value


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{where}: expected a string, got {value!r}")
    return value


def _selector(text: str, parts: int, where: str) -> tuple[int, ...]:
    """Parse a comma-separated integer selector such as "i,eps" or "n,i,eps"."""
    if not isinstance(text, str):
        raise FormatError(f"{where}: selector must be a string, got {text!r}")
    pieces = text.split(",")
    if len(pieces) != parts:
        raise FormatError(f"{where}: selector {text!r} needs {parts} integers")
    try:
        return tuple(int(p) for p in pieces)
    except ValueError:
        raise FormatError(f"{where}: selector {text!r} is not integers") from None


def _matrix(data, rows: int, cols: int, where: str) -> IntMatrix:
    """Parse a list of integer rows and enforce the expected shape."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise FormatError(f"{where}: a matrix is a list of rows")
    widths = {len(r) for r in data}
    if len(widths) > 1:
        raise FormatError(f"{where}: matrix rows have unequal lengths")
    for r in data:
        for x in r:
            if isinstance(x, bool) or not isinstance(x, int):
                raise FormatError(f"{where}: matrix entries must be integers")
    got_cols = widths.pop() if widths else cols
    if len(data) != rows or (rows > 0 and got_cols != cols):
        raise FormatError(f"{where}: matrix has shape {len(data)}x{got_cols}, "
                          f"expected {rows}x{cols}")
    return IntMatrix(rows, cols, data)


def _matrix_rows(m: IntMatrix) -> list[list[int]]:
    return [list(r) for r in m.data]


def _face_table(data: dict, kind: str, names, noun: str, values: str):
    """Each entry ((name, i, eps), value) of the "faces" field {name: {"i,eps": value}}.

    names are the names a face table may be listed for, noun what a name is
    and values what the values are, for messages; the caller checks each value.
    """
    for name, table in _field(data, "faces", dict, kind).items():
        if name not in names:
            raise FormatError(f"{kind}: faces listed for unknown {noun} {name!r}")
        if not isinstance(table, dict):
            raise FormatError(f"{kind}: faces of {name!r} must map \"i,eps\" to {values}")
        for ie, value in table.items():
            yield (name, *_selector(ie, 2, f"{kind}: face of {name!r}")), value


def _face_table_data(faces: dict, write) -> dict:
    """The "faces" field {name: {"i,eps": write(value)}} of a face table keyed (name, i, eps)."""
    out: dict[str, dict] = {}
    for (name, i, eps), value in faces.items():
        out.setdefault(name, {})[f"{i},{eps}"] = write(value)
    return out


# ---------------------------------------------------------------- cube keys

def cube_key_dim(X: PresentedCubicalSet, key: str) -> int:
    """Dimension of the cube a key denotes, read off the degeneracy wire."""
    if "@" not in key:
        raise FormatError(f"cube key {key!r} has no '@' separator")
    gen, wire = key.rsplit("@", 1)
    try:
        k = X.generator_dim(gen)
    except ValueError as e:
        raise FormatError(str(e)) from None
    if wire.startswith("del:"):
        body = wire[len("del:"):]
        return k + (len(body.split(",")) if body else 0)
    return k


def resolve_cube_key(X: PresentedCubicalSet, key: str):
    """Turn a cube key into a cube of X, inferring the dimension."""
    n = cube_key_dim(X, key)
    try:
        return X.cube_from_key(n, key)
    except ValueError as e:
        raise FormatError(f"cube key {key!r}: {e}") from None


# ------------------------------------------------------------- cubical sets

def parse_cubical_set(data) -> PresentedCubicalSet:
    """Read a cubical-set document; face targets are cube keys."""
    _check_type(data, "cubical-set")
    gens_raw = _field(data, "generators", dict, "cubical-set")
    generators = {}
    for name, dim in gens_raw.items():
        generators[name] = _int(dim, f"generator {name!r}")
    stub = PresentedCubicalSet(generators, {})
    faces = {}
    for (gen, i, eps), key in _face_table(data, "cubical-set", generators, "generator",
                                          "cube keys"):
        key = _str(key, f"face ({gen},{i},{eps})")
        try:
            faces[(gen, i, eps)] = stub.cube_from_key(generators[gen] - 1, key)
        except ValueError as e:
            raise FormatError(f"face ({gen},{i},{eps}): {e}") from None
    return PresentedCubicalSet(generators, faces)


def cubical_set_to_data(X: PresentedCubicalSet) -> dict:
    return {"type": "cubical-set",
            "generators": dict(X.generators),
            "faces": _face_table_data(X.faces, Cube.key)}


def parse_semicubical_set(data) -> SemiCubicalSet:
    """Read a semicubical-set document: levels of names plus face lookups."""
    _check_type(data, "semicubical-set")
    levels_raw = _field(data, "levels", list, "semicubical-set")
    levels = []
    for n, level in enumerate(levels_raw):
        if not isinstance(level, list) or not all(isinstance(x, str) for x in level):
            raise FormatError(f"level {n} must be a list of cube names")
        levels.append(list(level))
    names = {x for level in levels for x in level}
    faces = {(x, i, eps): _str(y, f"face ({x},{i},{eps})") for (x, i, eps), y
             in _face_table(data, "semicubical-set", names, "cube", "cube names")}
    return SemiCubicalSet(levels, faces)


def semicubical_set_to_data(S: SemiCubicalSet) -> dict:
    return {"type": "semicubical-set",
            "levels": [list(l) for l in S.levels],
            "faces": _face_table_data(S.faces, str)}


def parse_cubical_map(data) -> CubicalMap:
    """Read a cubical-map document with inlined source and target sets."""
    _check_type(data, "cubical-map")
    source = parse_cubical_set(_field(data, "source", dict, "cubical-map"))
    target = parse_cubical_set(_field(data, "target", dict, "cubical-map"))
    assignment = {}
    for gen, key in _field(data, "assignment", dict, "cubical-map").items():
        if gen not in source.generators:
            raise FormatError(f"assignment for unknown generator {gen!r}")
        key = _str(key, f"assignment of {gen!r}")
        try:
            assignment[gen] = target.cube_from_key(source.generators[gen], key)
        except ValueError as e:
            raise FormatError(f"assignment of {gen!r}: {e}") from None
    return CubicalMap(source, target, assignment)


def cubical_map_to_data(f: CubicalMap) -> dict:
    return {"type": "cubical-map",
            "source": cubical_set_to_data(f.source),
            "target": cubical_set_to_data(f.target),
            "assignment": {g: c.key() for g, c in f.assignment.items()}}


# -------------------------------------------------------------- cube tables

def parse_cubes_table(data) -> CubesTable:
    """Read a cubes-table document with resolved index tables."""
    _check_type(data, "cubes-table")
    top = _field(data, "top", int, "cubes-table")
    if top < 0:
        raise FormatError(f"cubes-table: top is {top}, must be nonnegative")
    keys_raw = _field(data, "keys", list, "cubes-table")
    if len(keys_raw) != top + 1:
        raise FormatError(f"cubes-table: expected {top + 1} key levels, "
                          f"got {len(keys_raw)}")
    keys = []
    for n, level in enumerate(keys_raw):
        if not isinstance(level, list) or not all(isinstance(k, str) for k in level):
            raise FormatError(f"cubes-table: key level {n} must be a list of strings")
        seen = set()
        for key in level:
            if key in seen:
                raise FormatError(f"cubes-table: key level {n} repeats the key {key!r}")
            seen.add(key)
        keys.append(list(level))
    deg_raw = _field(data, "degenerate", list, "cubes-table")
    if len(deg_raw) != top + 1 or any(
            not isinstance(l, list) or len(l) != len(keys[n])
            or not all(isinstance(b, bool) for b in l)
            for n, l in enumerate(deg_raw)):
        raise FormatError("cubes-table: degenerate flags must mirror the key levels")
    degenerate = [list(l) for l in deg_raw]

    def index_list(raw, length, lower, where):
        if not isinstance(raw, list) or len(raw) != length:
            raise FormatError(f"cubes-table: {where} must list {length} indices")
        out = []
        for v in raw:
            v = _int(v, f"cubes-table: {where}")
            if not 0 <= v < lower:
                raise FormatError(f"cubes-table: {where} index {v} out of range")
            out.append(v)
        return tuple(out)

    face = {}
    faces_raw = _field(data, "faces", dict, "cubes-table")
    for sel, raw in faces_raw.items():
        n, i, eps = _selector(sel, 3, "cubes-table faces")
        if not (1 <= n <= top and 1 <= i <= n and eps in (0, 1)):
            raise FormatError(f"cubes-table: face selector {sel!r} out of range")
        face[(n, i, eps)] = index_list(raw, len(keys[n]), len(keys[n - 1]),
                                       f"face table {sel}")
    degen_map = {}
    degens_raw = _field(data, "degens", dict, "cubes-table")
    for sel, raw in degens_raw.items():
        m, i = _selector(sel, 2, "cubes-table degens")
        if not (0 <= m < top and 1 <= i <= m + 1):
            raise FormatError(f"cubes-table: degeneracy selector {sel!r} out of range")
        degen_map[(m, i)] = index_list(raw, len(keys[m]), len(keys[m + 1]),
                                       f"degeneracy table {sel}")
    elements = [list(level) for level in keys]
    return CubesTable(top, keys, elements, degenerate, face, degen_map)


def cubes_table_to_data(T: CubesTable) -> dict:
    return {"type": "cubes-table",
            "top": T.top,
            "keys": [list(level) for level in T.keys],
            "degenerate": [[bool(b) for b in level] for level in T.degenerate],
            "faces": {f"{n},{i},{eps}": list(col)
                      for (n, i, eps), col in T.face.items()},
            "degens": {f"{m},{i}": list(col)
                       for (m, i), col in T.degen_map.items()}}


# -------------------------------------------------------- coefficient systems

def parse_table_system(data, base: CubesTable | None = None):
    """Read a table-system document; the base table is embedded or supplied.

    When both are present the embedded table must carry the supplied one's
    keys; the supplied table is kept if every column agrees, else the caller
    refuses the embedded one after validating it. The document names cubes
    by key; the system holds one column per operator of base, with the
    matrix of each cube at its index. A matrix the document leaves out
    stays None in its column, a hole that validate_functoriality reports.
    """
    _check_type(data, "table-system")
    variance = _field(data, "variance", str, "table-system")
    if variance not in ("contravariant", "covariant"):
        raise FormatError(f"table-system: unknown variance {variance!r}")
    if "base" in data:
        embedded = parse_cubes_table(data["base"])
        if base is not None and embedded.keys != base.keys:
            raise ValueError("table-system base does not match the given table")
        if base is None or (embedded.degenerate, embedded.face, embedded.degen_map) != (
                base.degenerate, base.face, base.degen_map):
            base = embedded
    if base is None:
        raise FormatError("table-system: no base table embedded or supplied")

    def cube_index(n, key, what):
        idx = base.index[n].get(key) if 0 <= n <= base.top else None
        if idx is None:
            raise FormatError(f"table-system: {what} for unknown dim-{n} cube {key!r}")
        return idx

    ranks = {}
    for ns, level in _field(data, "ranks", dict, "table-system").items():
        (n,) = _selector(ns, 1, "table-system ranks")
        if not isinstance(level, dict):
            raise FormatError(f"table-system: ranks[{ns!r}] must map keys to integers")
        for key, r in level.items():
            ranks[(n, cube_index(n, key, "rank"))] = _int(r, f"rank of {key!r}")

    contra = variance == "contravariant"

    def matrix(src, dst, rows, where):
        """The matrix of an operator from cube src to cube dst, shape-checked."""
        if src not in ranks or dst not in ranks:
            raise FormatError(f"table-system: {where} has no ranks to check against")
        want = (ranks[dst], ranks[src]) if contra else (ranks[src], ranks[dst])
        return _matrix(rows, want[0], want[1], where)

    columns = []
    for field, arity, step, noun, index in (("faces", 3, -1, "face", base.face),
                                            ("degens", 2, 1, "degeneracy", base.degen_map)):
        cols = {op: [None] * base.size(op[0]) for op in index}
        for sel, level in _field(data, field, dict, "table-system").items():
            op = _selector(sel, arity, f"table-system {field}")
            if op not in cols:
                raise FormatError(f"table-system: {noun} selector {sel!r} names no table "
                                  f"of the base")
            if not isinstance(level, dict):
                raise FormatError(f"table-system: {field}[{sel!r}] must map keys to matrices")
            n = op[0]
            for key, rows in level.items():
                idx = cube_index(n, key, f"{noun} matrix")
                cols[op][idx] = matrix((n, idx), (n + step, index[op][idx]), rows,
                                       f"{noun} matrix ({sel}) at {key!r}")
        columns.append({op: tuple(col) for op, col in cols.items()})
    return (ContravariantSystem if contra else CovariantSystem)(base, ranks, *columns)


def table_system_to_data(F) -> dict:
    """Write a table system, naming each cube by its key in F.base; holes are left out."""
    key = F.base.key
    ranks: dict[str, dict[str, int]] = {}
    for (n, idx), r in F.ranks.items():
        ranks.setdefault(str(n), {})[key(n, idx)] = r
    doc = {"type": "table-system",
           "variance": F.variance,
           "base": cubes_table_to_data(F.base),
           "ranks": ranks}
    for field, columns in (("faces", F.face), ("degens", F.degen)):
        out = doc[field] = {}
        for op, col in columns.items():
            for idx, m in enumerate(col):
                if m is not None:
                    out.setdefault(",".join(map(str, op)), {})[key(op[0], idx)] = _matrix_rows(m)
    return doc


def parse_generator_system(data, X: PresentedCubicalSet):
    """The rank, face matrices by (g, i, eps) and variance of a constant or local system on X.

    Document-level defects raise FormatError; check_generator_matrices checks the rest.
    """
    if data.get("type") == "constant-system":
        rank, variance = _constant_system(data)
        return rank, dict.fromkeys(X.faces, IntMatrix.identity(rank)), variance
    _check_type(data, "local-system")
    rank = _field(data, "rank", int, "local-system")
    variance = _field(data, "variance", str, "local-system")
    if variance not in ("contravariant", "covariant"):
        raise FormatError(f"local-system: unknown variance {variance!r}")
    mats = {(gen, i, eps): _matrix(rows, rank, rank, f"face matrix of {gen!r} at ({i},{eps})")
            for (gen, i, eps), rows in _face_table(data, "local-system", X.generators,
                                                   "generator", "matrices")}
    return rank, mats, variance


def local_system_to_data(rank: int, variance: str,
                         gen_face_matrices: dict[tuple[str, int, int], IntMatrix]) -> dict:
    return {"type": "local-system", "rank": rank, "variance": variance,
            "faces": _face_table_data(gen_face_matrices, _matrix_rows)}


def parse_semicubical_system(data, S: SemiCubicalSet) -> SemiCubicalSystem:
    """Read a semicubical-system document against its carrier set."""
    _check_type(data, "semicubical-system")
    names = {x for level in S.levels for x in level}
    ranks = {}
    for name, r in _field(data, "ranks", dict, "semicubical-system").items():
        if name not in names:
            raise FormatError(f"semicubical-system: rank for unknown cube {name!r}")
        ranks[name] = _int(r, f"rank of {name!r}")
    face = {}
    for (x, i, eps), rows in _face_table(data, "semicubical-system", names, "cube", "matrices"):
        if (x, i, eps) not in S.faces:
            raise FormatError(f"semicubical-system: the set has no face ({x},{i},{eps})")
        y = S.faces[(x, i, eps)]
        if y not in ranks or x not in ranks:
            raise FormatError(f"semicubical-system: face matrix at {x!r} has no "
                              f"ranks to check against")
        face[(x, i, eps)] = _matrix(rows, ranks[y], ranks[x],
                                    f"face matrix of {x!r} at ({i},{eps})")
    return SemiCubicalSystem(S, ranks, face)


def semicubical_system_to_data(F: SemiCubicalSystem) -> dict:
    return {"type": "semicubical-system",
            "ranks": dict(F.ranks),
            "faces": _face_table_data(F.face, _matrix_rows)}


def build_semicubical_system(data, S: SemiCubicalSet) -> SemiCubicalSystem:
    """Build a coefficient-system document against a semi-cubical carrier."""
    if not isinstance(data, dict):
        raise FormatError("a coefficient system document must be a JSON object")
    t = data.get("type")
    if t == "constant-system":
        rank, variance = _constant_system(data)
        if variance != "contravariant":
            raise ValueError("semi-cubical systems are contravariant")
        return SemiCubicalSystem(S, {x: rank for level in S.levels for x in level},
                                 dict.fromkeys(S.faces, IntMatrix.identity(rank)))
    if t == "semicubical-system":
        return parse_semicubical_system(data, S)
    raise FormatError(f"not a semi-cubical coefficient document (type {t!r})")


def _constant_system(data) -> tuple[int, str]:
    """The rank and variance of a constant-system document."""
    rank = _field(data, "rank", int, "constant-system")
    variance = data.get("variance", "contravariant")
    if variance not in ("contravariant", "covariant"):
        raise FormatError(f"constant-system: unknown variance {variance!r}")
    if rank < 0:
        raise FormatError(f"constant-system: rank is {rank}, must be nonnegative")
    return rank, variance


def build_system(data, base: CubesTable,
                 presented: PresentedCubicalSet | None = None):
    """Build whichever coefficient-system document this is against a carrier."""
    if not isinstance(data, dict):
        raise FormatError("a coefficient system document must be a JSON object")
    t = data.get("type")
    if t == "constant-system":
        return constant_system(base, *_constant_system(data))
    if t == "table-system":
        return parse_table_system(data, base)
    if t == "local-system":
        if presented is None:
            raise ValueError("a local-system document needs generator data; "
                             "a bare cubes table does not carry any")
        return local_system(presented, base, *parse_generator_system(data, presented))
    raise FormatError(f"not a coefficient system document (type {t!r})")


# ---------------------------------------------------------------- categories

def parse_category(data) -> FiniteCategory:
    """Read a category document with explicit composition rows."""
    _check_type(data, "category")
    objects = _field(data, "objects", list, "category")
    if not all(isinstance(o, str) for o in objects):
        raise FormatError("category: objects must be strings")
    morphisms = {}
    for name, ends in _field(data, "morphisms", dict, "category").items():
        if (not isinstance(ends, list) or len(ends) != 2
                or not all(isinstance(e, str) for e in ends)):
            raise FormatError(f"category: morphism {name!r} needs [source, target]")
        morphisms[name] = (ends[0], ends[1])
    identities = {}
    for obj, name in _field(data, "identities", dict, "category").items():
        identities[obj] = _str(name, f"identity of {obj!r}")
    composition = {}
    for row in _field(data, "composition", list, "category"):
        if (not isinstance(row, list) or len(row) != 3
                or not all(isinstance(x, str) for x in row)):
            raise FormatError("category: composition rows are "
                              "[second, first, composite]")
        composition[(row[0], row[1])] = row[2]
    return FiniteCategory(objects, morphisms, composition, identities)


def category_to_data(C: FiniteCategory) -> dict:
    return {"type": "category",
            "objects": list(C.objects),
            "morphisms": {name: [src, dst]
                          for name, (src, dst) in C.morphisms.items()},
            "identities": dict(C.identities),
            "composition": sorted([second, first, result]
                                  for (second, first), result in C.composition.items())}


def parse_diagram(data, C: FiniteCategory) -> FiniteDiagram:
    """Read a diagram document against the category it lives on."""
    _check_type(data, "diagram")
    ranks = {}
    for obj, r in _field(data, "ranks", dict, "diagram").items():
        if obj not in C.objects:
            raise FormatError(f"diagram: rank for unknown object {obj!r}")
        ranks[obj] = _int(r, f"rank of {obj!r}")
        if r < 0:
            raise FormatError(f"diagram: rank of {obj!r} is {r}, must be nonnegative")
    matrices = {}
    for name, rows in _field(data, "matrices", dict, "diagram").items():
        if name not in C.morphisms:
            raise FormatError(f"diagram: matrix for unknown morphism {name!r}")
        src, dst = C.morphisms[name]
        if src not in ranks or dst not in ranks:
            raise FormatError(f"diagram: matrix for {name!r} has no ranks "
                              f"to check against")
        matrices[name] = _matrix(rows, ranks[dst], ranks[src],
                                 f"matrix of {name!r}")
    return FiniteDiagram(C, ranks, matrices)


def diagram_to_data(F: FiniteDiagram) -> dict:
    return {"type": "diagram",
            "ranks": dict(F.ranks),
            "matrices": {name: _matrix_rows(m) for name, m in F.matrices.items()}}


# -------------------------------------------------------------------- groups

def parse_groups(data) -> tuple[HomologyGroup, ...]:
    """Read a groups document back into graded group summaries."""
    _check_type(data, "groups")
    out = []
    for k, entry in enumerate(_field(data, "groups", list, "groups")):
        if not isinstance(entry, dict):
            raise FormatError(f"groups: entry {k} must be an object")
        betti = _field(entry, "betti", int, f"groups entry {k}")
        if betti < 0:
            raise FormatError(f"groups entry {k}: betti is {betti}, must be nonnegative")
        torsion_raw = _field(entry, "torsion", list, f"groups entry {k}")
        torsion = tuple(_int(d, f"groups entry {k} torsion") for d in torsion_raw)
        if any(d < 2 for d in torsion):
            raise FormatError(f"groups entry {k}: torsion {list(torsion)} has an "
                              f"order below 2")
        out.append(HomologyGroup(betti, torsion))
    return tuple(out)


def groups_to_data(groups, kind: str = "homology") -> dict:
    return {"type": "groups",
            "kind": kind,
            "groups": [{"betti": g.betti, "torsion": list(g.torsion)}
                       for g in groups]}


def format_groups(groups, kind: str = "homology") -> str:
    """One-line report: "H_0 = Z; H_1 = Z^2; H_2 = Z/3"."""
    mark = "H^" if kind == "cohomology" else "H_"
    return "; ".join(f"{mark}{k} = {g}" for k, g in enumerate(groups))
