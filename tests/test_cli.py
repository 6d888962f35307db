"""Round trips of the document formats and flows through the command line.

Fixture files are written into tmp_path by serializing the shared helper
objects, so every command test exercises the parsers on realistic input.
"""

import contextlib
import copy
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from cubehom import cubset, formats
from cubehom.catalg import (NERVE_LABEL_BUDGET, STRING_BUDGET, FiniteCategory,
                            cubical_nerve, factorization_category)
from cubehom.cli import build_parser, main
from cubehom.coeff import (ContravariantSystem, CovariantSystem, constant_system,
                           validate_functoriality)
from cubehom.cubset import EXPANSION_CUBE_BUDGET, standard_cube
from cubehom.formats import FormatError
from cubehom.zlinalg import HomologyGroup, IntMatrix


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def const_doc(tmp_path, variance="contravariant", rank=1):
    return write(tmp_path, f"const-{rank}-{variance}.json",
                 {"type": "constant-system", "rank": rank, "variance": variance})


def reparse(parse, to_data, entity, *args):
    return parse(json.loads(formats.dumps_document(to_data(entity))), *args)


def same_system(F, G):
    return (F.variance == G.variance and F.ranks == G.ranks
            and F.face == G.face and F.degen == G.degen
            and F.base.keys == G.base.keys)


class TestRoundTrips:
    def test_cubical_set(self):
        X = helpers.torus()
        Y = reparse(formats.parse_cubical_set, formats.cubical_set_to_data, X)
        assert Y.generators == X.generators
        assert Y.faces == X.faces

    def test_cubical_set_with_degenerate_faces(self):
        X = helpers.squashed_square()
        Y = reparse(formats.parse_cubical_set, formats.cubical_set_to_data, X)
        assert Y.faces == X.faces

    def test_semicubical_set(self):
        S = helpers.torus_semi()
        T = reparse(formats.parse_semicubical_set, formats.semicubical_set_to_data, S)
        assert T.levels == S.levels
        assert T.faces == S.faces

    def test_cubical_map(self):
        f = helpers.fold_wedge()
        g = reparse(formats.parse_cubical_map, formats.cubical_map_to_data, f)
        assert g.assignment == f.assignment
        assert g.source.generators == f.source.generators
        assert g.target.faces == f.target.faces

    def test_category(self):
        C = helpers.square_poset()
        D = reparse(formats.parse_category, formats.category_to_data, C)
        assert D.objects == C.objects
        assert D.morphisms == C.morphisms
        assert D.composition == C.composition
        assert D.identities == C.identities

    def test_diagram(self):
        C = helpers.cyclic2_monoid()
        F = helpers.sign_diagram(C)
        G = reparse(formats.parse_diagram, formats.diagram_to_data, F, C)
        assert G.ranks == F.ranks
        assert G.matrices == F.matrices

    def test_cubes_table(self):
        T = helpers.interval().expand(2)
        U = reparse(formats.parse_cubes_table, formats.cubes_table_to_data, T)
        assert U.top == T.top
        assert U.keys == T.keys
        assert U.degenerate == T.degenerate
        assert U.face == T.face
        assert U.degen_map == T.degen_map

    def test_table_system(self):
        F = helpers.gauge_system(helpers.torus(), 2, 2, random.Random(5))
        G = reparse(formats.parse_table_system, formats.table_system_to_data, F)
        assert same_system(F, G)

    def test_table_system_listed_out_of_table_order(self):
        # Keys resolve to cube indices whatever order the document lists
        # them in, and the writer names each cube by its key again.
        F = helpers.gauge_system(helpers.torus(), 2, 2, random.Random(6))
        data = formats.table_system_to_data(F)
        for section in ("ranks", "faces", "degens"):
            data[section] = {sel: dict(reversed(level.items()))
                             for sel, level in reversed(data[section].items())}
        G = formats.parse_table_system(json.loads(json.dumps(data)))
        assert list(G.ranks) != list(F.ranks)
        assert same_system(F, G)
        assert formats.dumps_document(formats.table_system_to_data(G)) \
            == formats.dumps_document(data)

    def test_covariant_table_system(self):
        F = helpers.uniform_local_covariant(helpers.circle().expand(2),
                                            IntMatrix.from_rows([[1, 1], [0, 1]]))
        G = reparse(formats.parse_table_system, formats.table_system_to_data, F)
        assert same_system(F, G)

    def test_local_system_document(self):
        data = {"type": "local-system", "rank": 1, "variance": "contravariant",
                "faces": {"e": {"1,0": [[1]], "1,1": [[-1]]}}}
        X = helpers.circle()
        F = formats.build_system(data, X.expand(2), X)
        assert same_system(F, helpers.monodromy_circle(2))

    def test_local_system_document_on_the_callers_table(self):
        data = {"type": "local-system", "rank": 1, "variance": "contravariant",
                "faces": {"e": {"1,0": [[1]], "1,1": [[-1]]}}}
        X = helpers.circle()
        base = X.expand(2)
        F = formats.build_system(data, base, X)
        assert F.base is base
        assert same_system(F, helpers.monodromy_circle(2))

    def test_local_system_serializer(self):
        plus = IntMatrix.from_rows([[1]])
        minus = IntMatrix.from_rows([[-1]])
        mats = {("e", 1, 0): plus, ("e", 1, 1): minus}
        data = formats.local_system_to_data(1, "contravariant", mats)
        X = helpers.circle()
        F = formats.build_system(json.loads(formats.dumps_document(data)), X.expand(2), X)
        assert same_system(F, helpers.monodromy_circle(2))

    def test_semicubical_system(self):
        F = helpers.weighted_torus_system()
        G = formats.parse_semicubical_system(
            json.loads(formats.dumps_document(formats.semicubical_system_to_data(F))),
            helpers.torus_semi())
        assert G.ranks == F.ranks
        assert G.face == F.face

    def test_constant_system_document(self):
        base = helpers.circle().expand(2)
        F = formats.build_system({"type": "constant-system", "rank": 2,
                                  "variance": "covariant"}, base)
        assert same_system(F, constant_system(base, 2, "covariant"))

    def test_groups(self):
        gs = (HomologyGroup(1, ()), HomologyGroup(2, (2, 6)))
        assert formats.parse_groups(formats.groups_to_data(gs)) == gs
        assert formats.format_groups(gs) == "H_0 = Z; H_1 = Z^2 (+) Z/2 (+) Z/6"
        assert formats.format_groups(gs, "cohomology").startswith("H^0")

    def test_dumps_is_deterministic(self):
        T = helpers.torus().expand(2)
        first = formats.dumps_document(formats.cubes_table_to_data(T))
        second = formats.dumps_document(
            formats.cubes_table_to_data(formats.parse_cubes_table(json.loads(first))))
        assert first == second


class TestRejections:
    def test_nonincreasing_word_in_cube_key(self):
        X = helpers.torus()
        with pytest.raises(FormatError, match="increasing"):
            formats.resolve_cube_key(X, "t@x2,x1")

    def test_nonincreasing_word_in_face_target(self):
        data = {"type": "cubical-set", "generators": {"v": 0, "q": 2},
                "faces": {"q": {"1,0": "q@x2,x1"}}}
        with pytest.raises(FormatError):
            formats.parse_cubical_set(data)

    def test_wrong_shape_matrix_in_diagram(self):
        C = helpers.cyclic2_monoid()
        data = {"type": "diagram", "ranks": {"o": 1},
                "matrices": {"e": [[1]], "g": [[1, 0]]}}
        with pytest.raises(FormatError, match="shape"):
            formats.parse_diagram(data, C)

    def test_negative_diagram_rank(self, tmp_path, capsys):
        # the rank itself is refused, before any matrix is checked against it,
        # by every command that reads a diagram
        C = FiniteCategory(["a"], {"ia": ("a", "a")}, {("ia", "ia"): "ia"}, {"a": "ia"})
        cat = write(tmp_path, "cat.json", formats.category_to_data(C))
        on_c = write(tmp_path, "on-c.json",
                     {"type": "diagram", "ranks": {"a": -1}, "matrices": {"ia": []}})
        on_fc = write(tmp_path, "on-fc.json",
                      {"type": "diagram", "ranks": {"ia": -1}, "matrices": {"ia|ia|ia|ia": []}})
        for argv, obj in ((["validate", "--category", cat, "--diagram", on_c], "a"),
                          (["cat-homology", "--category", cat, "--diagram", on_c,
                            "--max-dim", "1"], "a"),
                          (["compare", "--contract", "homolcatcub", "--category", cat,
                            "--diagram", on_c, "--max-dim", "1"], "a"),
                          (["compare", "--contract", "homolbwcub", "--category", cat,
                            "--diagram", on_fc, "--max-dim", "1"], "ia")):
            assert main(argv) == 2, argv
            assert capsys.readouterr() == (
                "", f"parse error: diagram: rank of {obj!r} is -1, must be nonnegative\n"), argv

    def test_ragged_matrix(self):
        C = helpers.cyclic2_monoid()
        data = {"type": "diagram", "ranks": {"o": 2},
                "matrices": {"e": [[1, 0], [0]], "g": [[1, 0], [0, 1]]}}
        with pytest.raises(FormatError, match="unequal"):
            formats.parse_diagram(data, C)

    def test_wrong_shape_in_local_system(self):
        data = {"type": "local-system", "rank": 2, "variance": "contravariant",
                "faces": {"e": {"1,0": [[1]], "1,1": [[1]]}}}
        with pytest.raises(FormatError, match="shape"):
            X = helpers.circle()
            formats.build_system(data, X.expand(2), X)

    def test_wrong_type_discriminator(self):
        with pytest.raises(FormatError, match="expected"):
            formats.parse_cubical_set({"type": "category"})

    def test_unknown_generator_in_faces(self):
        data = {"type": "cubical-set", "generators": {"v": 0},
                "faces": {"w": {"1,0": "v@"}}}
        with pytest.raises(FormatError, match="unknown generator"):
            formats.parse_cubical_set(data)

    def test_bad_selector(self):
        data = {"type": "cubical-set", "generators": {"v": 0, "e": 1},
                "faces": {"e": {"1;0": "v@"}}}
        with pytest.raises(FormatError, match="selector"):
            formats.parse_cubical_set(data)

    def test_boolean_is_not_a_dimension(self):
        with pytest.raises(FormatError):
            formats.parse_cubical_set({"type": "cubical-set",
                                       "generators": {"v": True}, "faces": {}})

    def test_missing_field(self):
        with pytest.raises(FormatError, match="missing field"):
            formats.parse_semicubical_set({"type": "semicubical-set", "levels": []})

    def test_table_system_without_base(self):
        data = {"type": "table-system", "variance": "contravariant",
                "ranks": {}, "faces": {}, "degens": {}}
        with pytest.raises(FormatError, match="base"):
            formats.parse_table_system(data)

    def test_table_system_base_mismatch(self):
        F = constant_system(helpers.circle().expand(1), 1)
        data = formats.table_system_to_data(F)
        other = helpers.torus().expand(1)
        with pytest.raises(ValueError, match="does not match"):
            formats.parse_table_system(data, other)

    def test_groups_entries_must_be_objects(self):
        with pytest.raises(FormatError):
            formats.parse_groups({"type": "groups", "groups": [3]})

    def test_cube_key_without_separator(self):
        with pytest.raises(FormatError, match="separator"):
            formats.cube_key_dim(helpers.circle(), "e")

    def test_table_index_out_of_range(self):
        data = formats.cubes_table_to_data(helpers.interval().expand(1))
        data["faces"]["1,1,0"][0] = 99
        with pytest.raises(FormatError, match="out of range"):
            formats.parse_cubes_table(data)


class TestFaceTableReader:
    """The one reader of the "faces" field {name: {"i,eps": value}}, from the command line."""

    @pytest.mark.parametrize("fault", ["unknown name", "not an object", "bad selector"])
    @pytest.mark.parametrize("kind", ["cubical-set", "semicubical-set", "local-system",
                                      "semicubical-system"])
    def test_fault_is_a_parse_error(self, tmp_path, capsys, kind, fault):
        set_doc = formats.cubical_set_to_data(helpers.torus())
        semi_doc = formats.semicubical_set_to_data(helpers.torus_semi())
        doc = {"cubical-set": set_doc, "semicubical-set": semi_doc,
               "local-system": formats.local_system_to_data(
                   1, "contravariant", dict.fromkeys(helpers.torus().faces, IntMatrix.identity(1))),
               "semicubical-system": formats.semicubical_system_to_data(
                   helpers.weighted_torus_system())}[kind]
        faces = copy.deepcopy(doc["faces"])
        if fault == "unknown name":
            faces["zz"] = faces.pop("t")
        elif fault == "not an object":
            faces["t"] = [1, 0]
        else:
            faces["t"]["1"] = faces["t"].pop("1,0")
        path = write(tmp_path, "faulty.json", {**doc, "faces": faces})
        argv = {"cubical-set": ["--set", path], "semicubical-set": ["--semi", path],
                "local-system": ["--set", write(tmp_path, "set.json", set_doc), "--system", path],
                "semicubical-system": ["--semi", write(tmp_path, "semi.json", semi_doc),
                                       "--system", path]}[kind]
        assert main(["validate", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {kind}: ") and err.count("\n") == 1, err


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.rstrip("\n")
    return code, out


def _containers(node):
    """Every dict and list inside a document, the document included."""
    if isinstance(node, dict):
        children = list(node.values())
    elif isinstance(node, list):
        children = node
    else:
        return []
    return [node] + [c for child in children for c in _containers(child)]


def mutate_somewhere(doc, data, op, names, junk):
    """Drop or rename the key of, or put junk in place of, one entry of a
    non-empty dict or list of doc; False when doc has none left."""
    nonempty = [c for c in _containers(doc) if c]
    if not nonempty:
        return False
    node = data.draw(st.sampled_from(nonempty))
    where = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                      else range(len(node))))
    if op == "drop":
        del node[where]
    elif op == "rename" and isinstance(node, dict):
        node[data.draw(st.sampled_from(names))] = node.pop(where)
    else:
        node[where] = data.draw(junk)
    return True


class TestTableSystemFuzz:
    SYSTEM = helpers.gauge_system(helpers.circle(), 2, 2, random.Random(8))
    DOCUMENT = formats.table_system_to_data(SYSTEM)
    NAMES = sorted({key for level in SYSTEM.base.keys for key in level}) + [
        "", "0", "1", "2", "3", "-1", "0,1", "1,1", "2,3", "1,1,0", "2,2,1", "3,1,0",
        "1,0,0", "1,,0", "a,b", "1.0", "w@x1", "e@del:1"]
    JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                     st.lists(st.integers(-2, 2), max_size=2),
                     st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=3),
                     st.dictionaries(st.sampled_from(NAMES), st.integers(-1, 2), max_size=2))

    @classmethod
    def mutate(cls, doc, data):
        """Drop or rename keys, retarget selectors, or put junk, such as a
        non-dict level, where a value was."""
        for _ in range(data.draw(st.integers(1, 4))):
            nonempty = [c for c in _containers(doc) if c]
            if not nonempty:
                break
            node = data.draw(st.sampled_from(nonempty))
            where = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                              else range(len(node))))
            op = data.draw(st.sampled_from(["drop", "rename", "junk"]))
            if op == "drop":
                del node[where]
            elif op == "rename" and isinstance(node, dict):
                node[data.draw(st.one_of(st.sampled_from(cls.NAMES), st.text(max_size=4)))] \
                    = node.pop(where)
            else:
                node[where] = data.draw(cls.JUNK)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_documents_fail_cleanly(self, data):
        # Parsing a mutated document gives a system or a FormatError or
        # ValueError, never any other exception.
        doc = copy.deepcopy(self.DOCUMENT)
        self.mutate(doc, data)
        try:
            F = formats.parse_table_system(doc)
        except (FormatError, ValueError):
            return
        assert isinstance(F, (ContravariantSystem, CovariantSystem))
        assert isinstance(validate_functoriality(F), list)


class TestSemiCubicalSystemFuzz:
    """Mutated semicubical-system documents through validate and homology in-process."""

    # a loop at w beside an isolated vertex v, and the weighted torus
    POINT_AND_LOOP = {"type": "semicubical-set", "levels": [["v", "w"], ["e"]],
                      "faces": {"e": {"1,0": "w", "1,1": "w"}}}
    CASES = [
        (POINT_AND_LOOP,
         {"type": "semicubical-system", "ranks": {"v": 1, "w": 1, "e": 1},
          "faces": {"e": {"1,0": [[1]], "1,1": [[1]]}}}),
        (formats.semicubical_set_to_data(helpers.torus_semi()),
         formats.semicubical_system_to_data(helpers.weighted_torus_system())),
    ]
    NAMES = ["v", "w", "e", "a", "b", "t", "x", "", "1,0", "1,1", "2,0", "2,1", "3,0",
             "0,0", "1", "1,0,0", "type", "ranks", "faces"]
    JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                     st.lists(st.integers(-2, 2), max_size=2),
                     st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=3),
                     st.dictionaries(st.sampled_from(NAMES), st.integers(-2, 2), max_size=2))

    @staticmethod
    def outcome(argv):
        """Exit code and all printed text of one in-process command."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue() + err.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_documents_fail_cleanly(self, tmp_path_factory, data):
        # Drop or rename keys, set a cube's rank to a small integer, negative
        # ones included, or put junk where a value was: non-integer ranks,
        # matrices of the wrong shape, non-dict levels.
        # Every command exits 0, 1 with a message, or 2; an exception
        # escaping main fails the test with its traceback.
        carrier, system = data.draw(st.sampled_from(self.CASES))
        doc = copy.deepcopy(system)
        for _ in range(data.draw(st.integers(1, 4))):
            op = data.draw(st.sampled_from(["drop", "rename", "junk", "rank"]))
            ranks = doc.get("ranks")
            if op == "rank" and isinstance(ranks, dict) and ranks:
                ranks[data.draw(st.sampled_from(sorted(ranks)))] = data.draw(st.integers(-3, 3))
                continue
            nonempty = [c for c in _containers(doc) if c]
            if not nonempty:
                break
            node = data.draw(st.sampled_from(nonempty))
            where = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                              else range(len(node))))
            if op == "drop":
                del node[where]
            elif op == "rename" and isinstance(node, dict):
                node[data.draw(st.sampled_from(self.NAMES))] = node.pop(where)
            else:
                node[where] = data.draw(self.JUNK)
        folder = tmp_path_factory.mktemp("semi-fuzz")
        semi, sys_ = write(folder, "semi.json", carrier), write(folder, "sys.json", doc)
        max_dim = str(data.draw(st.integers(0, len(carrier["levels"]) - 2)))
        for argv in (["validate", "--semi", semi, "--system", sys_],
                     ["semicubical-homology", "--semi", semi, "--system", sys_,
                      "--max-dim", max_dim]):
            code, text = self.outcome(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert text.strip(), argv


def swap_in_base(data, sel="3,1,0", a=0, b=2):
    """Swap two entries of one face column of a table-system's embedded base."""
    column = data["base"]["faces"][sel]
    column[a], column[b] = column[b], column[a]
    return data


# the first report line of swap_in_base on the constant torus system at top 3
TORUS_SWAP_REPORT = "face commutation fails at dim 3 cube v@del:1,2,3 (i=1, j=3, alpha=0, beta=0)"


class TestCubesTableFuzz:
    """Mutated cubes-table documents through validate and homology in-process."""

    CASES = [(formats.cubes_table_to_data(helpers.torus().expand(3)), "2"),
             (formats.cubes_table_to_data(cubical_nerve(helpers.square_poset(), 2)), "1")]

    @staticmethod
    def mutate(doc, data):
        """One mutation the parser accepts: swap, set, flag or drop."""
        op = data.draw(st.sampled_from(["swap", "set", "flag", "drop"]))
        if op == "flag":
            level = doc["degenerate"][data.draw(st.integers(0, doc["top"]))]
            i = data.draw(st.integers(0, len(level) - 1))
            level[i] = not level[i]
            return
        part = data.draw(st.sampled_from([p for p in ("faces", "degens") if doc[p]]))
        sel = data.draw(st.sampled_from(sorted(doc[part])))
        if op == "drop":
            del doc[part][sel]
            return
        column = doc[part][sel]
        i = data.draw(st.integers(0, len(column) - 1))
        if op == "swap":
            j = data.draw(st.integers(0, len(column) - 1))
            column[i], column[j] = column[j], column[i]
        else:
            n = int(sel.split(",")[0])
            size = len(doc["keys"][n - 1 if part == "faces" else n + 1])
            column[i] = (column[i] + data.draw(st.integers(1, max(size - 1, 1)))) % size

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invalid_tables_never_give_groups(self, tmp_path_factory, data):
        # Every command exits 0, 1 with a message, or 2. A table that
        # validate refuses is refused by homology too, whether it comes as a
        # cubes-table or as the base of a table-system.
        clean, max_dim = data.draw(st.sampled_from(self.CASES))
        doc = copy.deepcopy(clean)
        for _ in range(data.draw(st.integers(1, 3))):
            self.mutate(doc, data)
        system = formats.table_system_to_data(
            constant_system(formats.parse_cubes_table(clean), 1))
        system["base"] = doc
        folder = tmp_path_factory.mktemp("table-fuzz")
        table = write(folder, "table.json", doc)
        outcomes = [TestSemiCubicalSystemFuzz.outcome(argv) for argv in (
            ["validate", "--table", table],
            ["homology", "--table", table, "--system", const_doc(folder), "--max-dim", max_dim],
            ["homology", "--table", write(folder, "ts.json", system), "--max-dim", max_dim])]
        for code, text in outcomes:
            assert code in (0, 1, 2)
            if code == 1:
                assert text.strip()
        if outcomes[0][0] == 1:
            assert 0 not in (outcomes[1][0], outcomes[2][0]), outcomes[0][1]


def category_case(C, F):
    """Documents of C, of a diagram F on it, and of its codomain diagram on C's factorizations."""
    fc = factorization_category(C)
    return (formats.category_to_data(C), formats.diagram_to_data(F),
            formats.diagram_to_data(helpers.codomain_diagram(C, fc, F)))


def rename_parts(node, old, new):
    """Replace old by new in every string and key of a document, part by part between bars."""
    def name(s):
        return "|".join(new if part == old else part for part in s.split("|"))
    if isinstance(node, dict):
        return {name(k) if isinstance(k, str) else k: rename_parts(v, old, new)
                for k, v in node.items()}
    if isinstance(node, list):
        return [rename_parts(v, old, new) for v in node]
    return name(node) if isinstance(node, str) else node


class TestCategoryDiagramFuzz:
    """Mutated category and diagram documents through four commands in-process."""

    CASES = [category_case(helpers.square_poset(),
                           helpers.constant_diagram(helpers.square_poset(), 2)),
             category_case(helpers.cyclic2_monoid(), helpers.sign_diagram())]
    NAMES = ["00", "01", "11", "00_01", "01_11", "00_11", "o", "e", "g", "e|e|e|e", "g|e|e|g",
             "", "|", "x|y", "type", "objects", "morphisms", "identities", "composition",
             "ranks", "matrices"]
    JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                     st.sampled_from(NAMES), st.lists(st.sampled_from(NAMES), max_size=3),
                     st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=3),
                     st.dictionaries(st.sampled_from(NAMES), st.integers(-1, 2), max_size=2))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_documents_fail_cleanly(self, tmp_path_factory, data):
        # Drop or rename keys, put junk where a value was, or rename one or
        # two morphisms everywhere to names with a bar in them. Every
        # command exits 0, 1 with a message, or 2; an exception escaping
        # main fails the test with its traceback. Both contracts are
        # theorems, so a comparison that runs must find its sides equal.
        docs = copy.deepcopy(list(data.draw(st.sampled_from(self.CASES))))
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["drop", "rename", "junk", "bar"]))
            morphisms = docs[0].get("morphisms")
            if op == "bar" and isinstance(morphisms, dict) and morphisms:
                for old in data.draw(st.lists(st.sampled_from(sorted(morphisms)),
                                              min_size=1, max_size=2, unique=True)):
                    new = data.draw(st.sampled_from(["|", "||", "|" + old, old + "|", "a|b"]))
                    docs = [rename_parts(doc, old, new) for doc in docs]
                continue
            k = data.draw(st.integers(0, 2))
            nonempty = [c for c in _containers(docs[k]) if c]
            if not nonempty:
                continue
            node = data.draw(st.sampled_from(nonempty))
            where = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                              else range(len(node))))
            if op == "drop":
                del node[where]
            elif op == "rename" and isinstance(node, dict):
                node[data.draw(st.sampled_from(self.NAMES))] = node.pop(where)
            else:
                node[where] = data.draw(self.JUNK)
        folder = tmp_path_factory.mktemp("category-fuzz")
        cat, diag, fc_diag = (write(folder, f"{k}.json", doc) for k, doc in enumerate(docs))
        max_dim = str(data.draw(st.integers(0, 1)))
        for argv in (["validate", "--category", cat, "--diagram", diag],
                     ["cat-homology", "--category", cat, "--diagram", diag, "--max-dim", max_dim],
                     ["compare", "--contract", "homolcatcub", "--category", cat,
                      "--diagram", diag, "--max-dim", max_dim],
                     ["compare", "--contract", "homolbwcub", "--category", cat,
                      "--diagram", fc_diag, "--max-dim", max_dim]):
            code, text = TestSemiCubicalSystemFuzz.outcome(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert text.strip(), argv
            assert text.splitlines()[-1:] != ["unequal"], (argv, text)


def map_case(f):
    """A map document and the keys of its target's cubes up to dimension 2."""
    return (formats.cubical_map_to_data(f),
            sorted(key for level in f.target.expand(2).keys for key in level))


class TestCubicalMapFuzz:
    """Mutated cubical-map documents through six map commands in-process."""

    CASES = [map_case(helpers.fold_wedge()),
             map_case(helpers.collapse_to_point(standard_cube(2))),
             map_case(helpers.identity_map(helpers.squashed_square())),
             map_case(helpers.identity_map(standard_cube(2))),
             map_case(helpers.square_to_interval()),
             map_case(helpers.endpoint_inclusion())]
    NAMES = ["v", "e", "e1", "e2", "a", "b", "q", "c0", "cx", "c0x", "cxx", "", "@",
             "1,0", "1,1", "2,0", "2,1", "type", "source", "target", "assignment",
             "generators", "faces"]
    JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                     st.sampled_from(NAMES), st.sampled_from(["v@del:1", "e@del:2", "q@x2,x1"]),
                     st.lists(st.sampled_from(NAMES), max_size=2),
                     st.dictionaries(st.sampled_from(NAMES), st.integers(-1, 2), max_size=2))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_mutated_documents_fail_cleanly(self, tmp_path_factory, data):
        # Drop or rename keys, put junk where a value was, or assign a
        # generator or a face of the source or target set another cube of
        # the target. Every command exits 0, 1 with a message, or 2; an
        # exception escaping main fails the test with its traceback.
        clean, cubes = data.draw(st.sampled_from(self.CASES))
        doc = copy.deepcopy(clean)
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["drop", "rename", "junk", "assign", "face"]))
            assignment = doc.get("assignment")
            if op == "assign" and isinstance(assignment, dict) and assignment:
                assignment[data.draw(st.sampled_from(sorted(assignment)))] = \
                    data.draw(st.sampled_from(cubes))
                continue
            sides = [doc[side]["faces"] for side in ("source", "target")
                     if isinstance(doc.get(side), dict) and isinstance(doc[side].get("faces"), dict)]
            entries = sorted({(g, sel) for faces in sides for g, row in faces.items()
                              if isinstance(row, dict) for sel in row})
            if op == "face" and entries:
                # the same entry of both sets, so an identity map stays natural
                g, sel = data.draw(st.sampled_from(entries))
                new = data.draw(st.sampled_from(cubes))
                for faces in sides:
                    if isinstance(faces.get(g), dict) and sel in faces[g]:
                        faces[g][sel] = new
                continue
            nonempty = [c for c in _containers(doc) if c]
            if not nonempty:
                break
            node = data.draw(st.sampled_from(nonempty))
            where = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                              else range(len(node))))
            if op == "drop":
                del node[where]
            elif op == "rename" and isinstance(node, dict):
                node[data.draw(st.sampled_from(self.NAMES))] = node.pop(where)
            else:
                node[where] = data.draw(self.JUNK)
        folder = tmp_path_factory.mktemp("map-fuzz")
        fmap, const = write(folder, "map.json", doc), const_doc(folder)
        cube, max_dim = data.draw(st.sampled_from(cubes)), str(data.draw(st.integers(0, 1)))
        for argv in (["validate", "--map", fmap],
                     ["fiber", "--map", fmap, "--cube", cube, "--max-dim", "1"],
                     ["fiber-criterion", "--map", fmap, "--max-dim", max_dim],
                     ["direct-image", "--map", fmap, "--system", const, "--truncate", "1"],
                     ["pullback-system", "--map", fmap, "--system", const, "--truncate", "1"],
                     ["compare", "--contract", "dirhomol", "--map", fmap, "--system", const,
                      "--max-dim", max_dim]):
            code, text = TestSemiCubicalSystemFuzz.outcome(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert text.strip(), argv


def set_case(X):
    """A cubical-set document and the keys of its cubes up to dimension 2."""
    return (formats.cubical_set_to_data(X),
            sorted(key for level in X.expand(2).keys for key in level))


class TestCubicalSetFuzz:
    """Mutated cubical-set documents through validate, homology and product in-process."""

    CASES = [set_case(helpers.interval()), set_case(helpers.torus()),
             set_case(helpers.twisted_square()), set_case(helpers.squashed_square()),
             set_case(standard_cube(2))]
    CUBES = sorted({key for _, keys in CASES for key in keys})
    NAMES = ["v", "e", "a", "b", "t", "x", "y", "q", "cx", "cxx", "", "@", "1,0", "1,1",
             "2,0", "2,1", "3,0", "0,0", "type", "generators", "faces"]
    JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                     st.sampled_from(NAMES), st.sampled_from(["v@del:1", "e@del:2", "q@x2,x1"]),
                     st.lists(st.sampled_from(NAMES), max_size=2),
                     st.dictionaries(st.sampled_from(NAMES), st.integers(-1, 2), max_size=2))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_documents_fail_cleanly(self, tmp_path_factory, data):
        # Drop or rename keys, put junk where a value was, set a face entry
        # to a cube of another fixture, or set a generator's dimension to
        # -1..4. Every command exits 0, 1 with a message, or 2; an exception
        # escaping main fails the test with its traceback.
        clean, _ = data.draw(st.sampled_from(self.CASES))
        doc = copy.deepcopy(clean)
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["drop", "rename", "junk", "face", "dim"]))
            gens, faces = doc.get("generators"), doc.get("faces")
            if op == "dim" and isinstance(gens, dict) and gens:
                gens[data.draw(st.sampled_from(sorted(gens)))] = data.draw(st.integers(-1, 4))
                continue
            entries = sorted((g, sel) for g, row in faces.items() if isinstance(row, dict)
                             for sel in row) if isinstance(faces, dict) else []
            if op == "face" and entries:
                g, sel = data.draw(st.sampled_from(entries))
                faces[g][sel] = data.draw(st.sampled_from(self.CUBES))
                continue
            nonempty = [c for c in _containers(doc) if c]
            if not nonempty:
                break
            node = data.draw(st.sampled_from(nonempty))
            where = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                              else range(len(node))))
            if op == "drop":
                del node[where]
            elif op == "rename" and isinstance(node, dict):
                node[data.draw(st.sampled_from(self.NAMES))] = node.pop(where)
            else:
                node[where] = data.draw(self.JUNK)
        folder = tmp_path_factory.mktemp("set-fuzz")
        fset, const = write(folder, "set.json", doc), const_doc(folder)
        max_dim = str(data.draw(st.integers(0, 2)))
        for argv in (["validate", "--set", fset],
                     ["homology", "--set", fset, "--system", const, "--max-dim", max_dim],
                     ["product", "--left", fset, "--right", fset, "--truncate", max_dim]):
            code, text = TestSemiCubicalSystemFuzz.outcome(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert text.strip(), argv


class TestLocalSystemFuzz:
    """Mutated local-system documents through homology and the comloc contract in-process."""

    CASES = [(formats.cubical_set_to_data(X),
              formats.local_system_to_data(2, "contravariant",
                                           helpers.gauge_matrices(X, 2, random.Random(k))))
             for k, X in enumerate((helpers.torus(), helpers.twisted_square(), standard_cube(2)))]
    NAMES = ["a", "b", "t", "x", "y", "q", "c0x", "cxx", "", "1,0", "1,1", "2,0", "2,1", "3,0",
             "0,0", "1", "type", "rank", "variance", "faces"]
    # units, which mostly break functoriality, non-units, and wrong shapes
    UNITS = [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]], [[-1, 0], [0, 1]]]
    NON_UNITS = [[[2, 0], [0, 1]], [[1, 1], [1, 1]], [[0, 0], [0, 0]]]
    SHAPES = [[[1]], [[1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [], [[]]]
    # a copy, since later steps may mutate a matrix put in the document
    MATRICES = st.one_of(st.sampled_from(UNITS), st.sampled_from(NON_UNITS),
                         st.sampled_from(SHAPES)).map(copy.deepcopy)
    JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                     st.sampled_from(NAMES), MATRICES, st.lists(st.integers(-2, 2), max_size=2),
                     st.dictionaries(st.sampled_from(NAMES), MATRICES, max_size=2))

    @classmethod
    def mutate(cls, doc, data):
        """Drop or rename keys, put junk where a value was, set the rank to
        -2..3 or the variance to another word, or set a face matrix to a
        unit that breaks functoriality, a non-unit or a wrong shape."""
        for _ in range(data.draw(st.integers(1, 3))):
            # half the steps set a matrix, so that most documents reach the builder
            op = data.draw(st.one_of(st.just("matrix"), st.sampled_from(
                ["drop", "rename", "junk", "rank", "variance"])))
            faces = doc.get("faces")
            entries = sorted((g, sel) for g, row in faces.items() if isinstance(row, dict)
                             for sel in row) if isinstance(faces, dict) else []
            if op == "rank":
                doc["rank"] = data.draw(st.integers(-2, 3))
                continue
            if op == "variance":
                doc["variance"] = data.draw(st.sampled_from(["covariant", "contravariant", "x"]))
                continue
            if op == "matrix" and entries:
                g, sel = data.draw(st.sampled_from(entries))
                faces[g][sel] = data.draw(cls.MATRICES)
            elif not mutate_somewhere(doc, data, op, cls.NAMES, cls.JUNK):
                break

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_documents_fail_cleanly(self, tmp_path_factory, data):
        # Every command exits 0, 1 with a message, or 2, and a system that
        # builds gives equal groups on both routes of comloc; an exception
        # escaping main fails the test with its traceback.
        carrier, clean = data.draw(st.sampled_from(self.CASES))
        doc = copy.deepcopy(clean)
        self.mutate(doc, data)
        folder = tmp_path_factory.mktemp("local-fuzz")
        fset, fsys = write(folder, "set.json", carrier), write(folder, "system.json", doc)
        max_dim = str(data.draw(st.integers(0, 2)))
        for argv in (["homology", "--set", fset, "--system", fsys, "--max-dim", max_dim],
                     ["compare", "--contract", "comloc", "--set", fset, "--system", fsys,
                      "--max-dim", max_dim]):
            code, text = TestSemiCubicalSystemFuzz.outcome(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert text.strip(), argv
                assert "unequal" not in text, argv


def system_case(X, seed):
    """Documents of X, of a rank-2 gauge local system on it, and of its table-systems
    at every top from X's largest generator dimension to 3."""
    return (formats.cubical_set_to_data(X),
            formats.local_system_to_data(2, "contravariant",
                                         helpers.gauge_matrices(X, 2, random.Random(seed))),
            {t: formats.table_system_to_data(helpers.gauge_system(X, t, 2, random.Random(seed)))
             for t in range(max(X.generators.values()), 4)})


class TestValidateAgreesWithHomology:
    """validate refuses exactly the --set/--system pairs that homology refuses."""

    CASES = [system_case(X, seed) for seed, X in enumerate(
        (helpers.torus(), helpers.twisted_square(), standard_cube(2), standard_cube(3)))]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_same_exit_code(self, tmp_path_factory, data):
        # A local-system document mutated as in TestLocalSystemFuzz, or a
        # table-system document whose embedded base is mutated as in
        # TestCubesTableFuzz, whose entries are mutated as in
        # TestTableSystemFuzz, or which is left sound; truncated at its own
        # top or elsewhere. Where validate refuses, homology refuses with
        # the same report; a covariant system, which validate accepts, is
        # compared with cohomology, which takes it.
        carrier, local, tables = data.draw(st.sampled_from(self.CASES))
        if data.draw(st.booleans()):
            doc = copy.deepcopy(local)
            TestLocalSystemFuzz.mutate(doc, data)
            t = data.draw(st.integers(1, 3))
        else:
            top = data.draw(st.sampled_from(sorted(tables)))
            doc = copy.deepcopy(tables[top])
            op = data.draw(st.sampled_from(["base", "entries", "none"]))
            if op == "base":
                TestCubesTableFuzz.mutate(doc["base"], data)
            elif op == "entries":
                TestTableSystemFuzz.mutate(doc, data)
            t = data.draw(st.sampled_from([top, top, 1, 2, 3]))
        folder = tmp_path_factory.mktemp("validate-differential")
        fset, fsys = write(folder, "set.json", carrier), write(folder, "system.json", doc)
        checked = TestSemiCubicalSystemFuzz.outcome(
            ["validate", "--set", fset, "--system", fsys, "--truncate", str(t)])
        command = "cohomology" if doc.get("variance") == "covariant" else "homology"
        computed = TestSemiCubicalSystemFuzz.outcome(
            [command, "--set", fset, "--system", fsys, "--max-dim", str(t - 1),
             "--truncate", str(t)])
        assert checked[0] == computed[0], (checked, computed)
        if checked[0]:
            assert checked == computed


class TestSemiCubicalSetFuzz:
    """Mutated semicubical-set documents through validate, universal and homology in-process."""

    CASES = [formats.semicubical_set_to_data(S) for S in (
        helpers.interval_semi(), helpers.circle_semi(), helpers.wedge_semi(),
        helpers.torus_semi(), helpers.twisted_square_semi())] + [
        TestSemiCubicalSystemFuzz.POINT_AND_LOOP]
    CELLS = sorted({x for doc in CASES for level in doc["levels"] for x in level})
    NAMES = CELLS + ["", "1,0", "1,1", "2,0", "2,1", "3,0", "0,0", "1", "type", "levels",
                     "faces"]
    JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                     st.sampled_from(NAMES), st.lists(st.sampled_from(NAMES), max_size=3),
                     st.dictionaries(st.sampled_from(NAMES), st.sampled_from(CELLS), max_size=2))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_documents_fail_cleanly(self, tmp_path_factory, data):
        # Drop or rename keys, put junk where a value was, set a face to a
        # cell of another fixture, or move a cell to another level, a new
        # top level included. Every command exits 0, 1 with a message, or
        # 2; an exception escaping main fails the test with its traceback.
        doc = copy.deepcopy(data.draw(st.sampled_from(self.CASES)))
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["drop", "rename", "junk", "face", "level"]))
            levels, faces = doc.get("levels"), doc.get("faces")
            entries = sorted((x, sel) for x, row in faces.items() if isinstance(row, dict)
                             for sel in row) if isinstance(faces, dict) else []
            cells = sorted((n, x) for n, level in enumerate(levels) if isinstance(level, list)
                           for x in level if isinstance(x, str)) if isinstance(levels, list) else []
            if op == "face" and entries:
                x, sel = data.draw(st.sampled_from(entries))
                faces[x][sel] = data.draw(st.sampled_from(self.CELLS))
            elif op == "level" and cells:
                n, x = data.draw(st.sampled_from(cells))
                levels[n].remove(x)
                m = data.draw(st.sampled_from([m for m, level in enumerate(levels)
                                               if isinstance(level, list)] + [len(levels)]))
                if m == len(levels):
                    levels.append([])
                levels[m].append(x)
            elif not mutate_somewhere(doc, data, op, self.NAMES, self.JUNK):
                break
        folder = tmp_path_factory.mktemp("semi-set-fuzz")
        semi = write(folder, "semi.json", doc)
        max_dim = str(data.draw(st.integers(0, 2)))
        for argv in (["validate", "--semi", semi],
                     ["universal", "--semi", semi],
                     ["semicubical-homology", "--semi", semi, "--system", const_doc(folder),
                      "--max-dim", max_dim]):
            code, text = TestSemiCubicalSystemFuzz.outcome(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert text.strip(), argv


class TestGroupsFuzz:
    """Mutated groups documents through formats.parse_groups."""

    CASES = [formats.groups_to_data((HomologyGroup(1, ()), HomologyGroup(2, (2, 6)))),
             formats.groups_to_data((HomologyGroup(0, (3,)), HomologyGroup(0, ())),
                                    "cohomology")]
    NAMES = ["type", "kind", "groups", "betti", "torsion", "", "homology", "x"]
    JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 7), st.text(max_size=3),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from(NAMES), st.lists(st.integers(-2, 7), max_size=3),
                     st.dictionaries(st.sampled_from(NAMES), st.integers(-1, 3), max_size=2))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_documents_parse_or_fail_cleanly(self, data):
        # Drop or rename keys, or put junk where a value was. A document
        # either parses into group summaries, each with a nonnegative rank
        # and torsion orders of at least 2, or raises FormatError.
        doc = copy.deepcopy(data.draw(st.sampled_from(self.CASES)))
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["drop", "rename", "junk"]))
            if not mutate_somewhere(doc, data, op, self.NAMES, self.JUNK):
                break
        try:
            groups = formats.parse_groups(doc)
        except FormatError:
            return
        for g in groups:
            assert isinstance(g, HomologyGroup) and g.betti >= 0, doc
            assert all(d >= 2 for d in g.torsion), doc


class TestIntegerArgumentFuzz:
    """--truncate and --max-dim up to 64 on nerve, bw, cat-cohomology and compare.

    The nerve, the string complex and the expansion of a presented set
    refuse a table past their budgets, so a large argument ends with exit 1
    and a message, not a search that runs for minutes; each example has a
    deadline. The fixtures are small ones, which keeps the test short.
    """

    CATEGORIES = [category_case(C, helpers.constant_diagram(C)) + (
        formats.diagram_to_data(helpers.constant_diagram(C.op())),)
        for C in (helpers.point_category(), helpers.arrow_category(), helpers.cyclic2_monoid())]
    CUBICAL = (formats.cubical_map_to_data(helpers.fold_wedge()),
               formats.cubical_set_to_data(helpers.circle()),
               formats.local_system_to_data(1, "contravariant",
                                            {("e", 1, 0): IntMatrix.from_rows([[1]]),
                                             ("e", 1, 1): IntMatrix.from_rows([[-1]])}),
               formats.semicubical_set_to_data(helpers.circle_semi()))

    @settings(max_examples=10, deadline=30_000)
    @given(st.data())
    def test_large_arguments_end_cleanly(self, tmp_path_factory, data):
        folder = tmp_path_factory.mktemp("int-fuzz")
        cat, diag, fc_diag, op_diag = (write(folder, f"c{k}.json", doc) for k, doc in
                                       enumerate(data.draw(st.sampled_from(self.CATEGORIES))))
        fold, circle, mono, semi = (write(folder, f"x{k}.json", doc)
                                    for k, doc in enumerate(self.CUBICAL))
        const = const_doc(folder)
        k = str(data.draw(st.integers(-2, 64)))
        contract = ["compare", "--max-dim", k, "--contract"]
        argv = data.draw(st.sampled_from([
            ["nerve", "--category", cat, "--truncate", k, "--out", str(folder / "nerve.json")],
            ["bw", "--category", cat, "--diagram", fc_diag, "--max-dim", k],
            ["cat-cohomology", "--category", cat, "--diagram", diag, "--max-dim", k],
            contract + ["homolcatcub", "--category", cat, "--diagram", op_diag],
            contract + ["homolbwcub", "--category", cat, "--diagram", fc_diag],
            contract + ["dirhomol", "--map", fold, "--system", const],
            contract + ["comloc", "--set", circle, "--system", mono],
            contract + ["semicubecube", "--semi", semi, "--system", const]]))
        if argv[0] == "compare" and data.draw(st.booleans()):
            argv += ["--truncate", str(data.draw(st.integers(-2, 64)))]
        code, text = TestSemiCubicalSystemFuzz.outcome(argv)
        assert code in (0, 1), (argv, text)
        if code == 1:
            assert text.strip(), argv
            assert text.splitlines()[-1] != "unequal", (argv, text)


class TestFiberArgumentFuzz:
    """--max-dim and --truncate from -2 up on fiber and fiber-criterion.

    fiber_criterion counts I^t to t before it expands anything, so a
    truncation above 6 ends at once with exit 1. A single fiber has no
    such count: its tables are bounded only by the expansions' cube
    budget, and over the vertex of the squashed square at --max-dim 64 it
    runs for 12-21 s and exits 0 (see CHANGES.md). So each fiber case
    draws --max-dim only up to the depth where it still ends in about a
    second; the ranges are not widened to let that case through.
    """

    # (map, cube of its target, largest --max-dim drawn for fiber)
    FIBERS = [(helpers.fold_wedge(), "v@", 64), (helpers.fold_wedge(), "e@x1", 32),
              (helpers.endpoint_inclusion(), "e@x1", 32),
              (helpers.collapse_to_point(helpers.interval()), "v@", 64),
              (helpers.identity_map(helpers.squashed_square()), "v@", 32),
              (helpers.identity_map(helpers.squashed_square()), "q@x1,x2", 16)]

    @settings(max_examples=10, deadline=30_000)
    @given(st.data())
    def test_large_arguments_end_cleanly(self, tmp_path_factory, data):
        folder = tmp_path_factory.mktemp("fiber-fuzz")
        f, cube, largest = data.draw(st.sampled_from(self.FIBERS))
        fmap = write(folder, "map.json", formats.cubical_map_to_data(f))
        if data.draw(st.booleans()):
            argv = ["fiber", "--map", fmap, "--cube", cube, "--max-dim",
                    str(data.draw(st.integers(-2, largest))), "--out", str(folder / "fiber.json")]
        else:
            argv = ["fiber-criterion", "--map", fmap, "--max-dim", str(data.draw(st.integers(-2, 64)))]
            if data.draw(st.booleans()):
                argv += ["--truncate", str(data.draw(st.integers(-2, 64)))]
        code, text = TestSemiCubicalSystemFuzz.outcome(argv)
        assert code in (0, 1, 2), (argv, text)
        if code:
            assert text.strip(), argv


class TestTableArgumentFuzz:
    """--truncate from -2 up on product, direct-image and pullback-system.

    product counts its cubes before it builds anything, so circle x circle
    is refused at 52 and above, and the deepest product that builds, 51,
    takes 2-6 s. direct-image and pullback-system have no such count: on
    fold_wedge at --truncate 64 they run for 8-10 s and exit 0 (see
    CHANGES.md), so they draw --truncate only up to 32, which ends in about
    a second; the range is not widened to let that case through.
    """

    @settings(max_examples=10, deadline=30_000)
    @given(st.data())
    def test_large_arguments_end_cleanly(self, tmp_path_factory, data):
        folder = tmp_path_factory.mktemp("table-fuzz")
        out = folder / "out.json"
        if data.draw(st.booleans()):
            circle = write(folder, "circle.json", formats.cubical_set_to_data(helpers.circle()))
            argv = ["product", "--left", circle, "--right", circle,
                    "--truncate", str(data.draw(st.integers(-2, 64)))]
        else:
            fold = write(folder, "fold.json", formats.cubical_map_to_data(helpers.fold_wedge()))
            argv = [data.draw(st.sampled_from(["direct-image", "pullback-system"])),
                    "--map", fold, "--system", const_doc(folder),
                    "--truncate", str(data.draw(st.integers(-2, 32)))]
        code, text = TestSemiCubicalSystemFuzz.outcome(argv + ["--out", str(out)])
        assert code in (0, 1), (argv, text)
        assert out.exists() == (code == 0), argv
        if code:
            assert text.strip(), argv


class TestImportCost:
    def test_cli_loads_no_introspection_modules(self):
        # -S leaves out site-packages, whose start-up hooks may load typing themselves
        src = str(pathlib.Path(formats.__file__).resolve().parents[1])
        probe = "import sys, cubehom.cli; print(*sys.modules)"
        done = subprocess.run([sys.executable, "-S", "-c", probe],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60, check=True)
        loaded = set(done.stdout.split())
        assert "cubehom.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "typing", "ast", "dis"}


class TestParserReuse:
    """main builds its parser once per process, and a call leaves nothing behind in it."""

    @staticmethod
    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def test_calls_in_one_process_print_as_fresh_ones(self, tmp_path, monkeypatch):
        # a usage error, then --help, then a computation, each compared
        # with the same call in a fresh interpreter
        monkeypatch.setenv("COLUMNS", "80")
        tor = write(tmp_path, "torus.json", formats.cubical_set_to_data(helpers.torus()))
        calls = [["homology", "--set", tor, "--max-dim", "x"],
                 ["--help"],
                 ["homology", "--set", tor, "--system", const_doc(tmp_path), "--max-dim", "2"]]
        src = str(pathlib.Path(formats.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        got = [self.in_process(argv) for argv in calls]
        assert build_parser() is build_parser()
        assert [code for code, _, _ in got] == [2, 0, 0]
        for argv, outcome in zip(calls, got):
            done = subprocess.run([sys.executable, "-m", "cubehom.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert outcome == (done.returncode, done.stdout, done.stderr), argv


class TestDeterministicReports:
    """Validation reports print in the same order under every hash seed."""

    @staticmethod
    def documents(tmp_path):
        torus = formats.cubical_set_to_data(helpers.torus())
        del torus["faces"]["t"]["1,0"], torus["faces"]["t"]["2,1"], torus["faces"]["a"]["1,1"]
        torus["faces"]["b"]["2,0"] = "v@"
        semi = formats.semicubical_set_to_data(helpers.torus_semi())
        del semi["faces"]["t"]["1,1"], semi["faces"]["t"]["2,0"], semi["faces"]["b"]["1,0"]
        fold = formats.cubical_map_to_data(helpers.fold_wedge())
        fold["assignment"] = {}
        return [["validate", "--set", write(tmp_path, "set.json", torus)],
                ["validate", "--semi", write(tmp_path, "semi.json", semi)],
                ["validate", "--map", write(tmp_path, "map.json", fold)]]

    def test_same_stdout_under_four_hash_seeds(self, tmp_path):
        src = str(pathlib.Path(formats.__file__).resolve().parents[1])
        for argv in self.documents(tmp_path):
            outputs = set()
            for seed in "0123":
                env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
                done = subprocess.run([sys.executable, "-m", "cubehom.cli", *argv], env=env,
                                      capture_output=True, text=True, timeout=60)
                assert done.returncode == 1, done.stderr
                outputs.add(done.stdout)
            assert len(outputs) == 1, (argv, outputs)
            assert len(outputs.pop().splitlines()) >= 3, argv


class TestCommands:
    def test_torus_homology(self, tmp_path, capsys):
        tor = write(tmp_path, "torus.json",
                    formats.cubical_set_to_data(helpers.torus()))
        code, out = run(capsys, "homology", "--set", tor,
                        "--system", const_doc(tmp_path), "--max-dim", "2")
        assert code == 0
        assert out == "H_0 = Z; H_1 = Z^2; H_2 = Z"

    def test_generator_route_ignores_the_expansion_budget(self, tmp_path, capsys):
        # A constant system on --set builds no table, so a deep --truncate
        # only deepens the generator check; the torus expanded to 80 would
        # hold 91,881 cubes, past EXPANSION_CUBE_BUDGET.
        tor = write(tmp_path, "torus.json", formats.cubical_set_to_data(helpers.torus()))
        argv = ["homology", "--set", tor, "--system", const_doc(tmp_path), "--max-dim", "2"]
        assert run(capsys, *argv, "--truncate", "80") == run(capsys, *argv, "--truncate", "3") \
            == (0, "H_0 = Z; H_1 = Z^2; H_2 = Z")

    def test_generator_route_builds_no_table(self, tmp_path, capsys, monkeypatch):
        # homology, cohomology and validate read a constant or local system
        # on --set off the generators alone
        def refuse(self, top):
            raise AssertionError("expand called")

        monkeypatch.setattr(cubset.PresentedCubicalSet, "expand", refuse)
        square = write(tmp_path, "square.json", formats.cubical_set_to_data(standard_cube(2)))
        gauge = write(tmp_path, "gauge.json", formats.local_system_to_data(
            2, "covariant",
            helpers.gauge_matrices(standard_cube(2), 2, random.Random(3), "covariant")))
        const = const_doc(tmp_path)
        assert run(capsys, "homology", "--set", square, "--system", const,
                   "--max-dim", "1") == (0, "H_0 = Z; H_1 = 0")
        assert run(capsys, "cohomology", "--set", square, "--system", gauge,
                   "--max-dim", "1", "--truncate", "4") == (0, "H^0 = Z^2; H^1 = 0")
        for system in (const, gauge):
            assert run(capsys, "validate", "--set", square, "--system", system) == (0, "ok")

    def test_constant_system_skips_the_generator_check(self, tmp_path, capsys, monkeypatch):
        # identity face matrices pass every check of check_generator_matrices
        def refuse(*args):
            raise ValueError("generator check called")

        monkeypatch.setattr("cubehom.cli.check_generator_matrices", refuse)
        tor = write(tmp_path, "torus.json", formats.cubical_set_to_data(helpers.torus()))
        for variance, command, out in (("contravariant", "homology", "H_0 = Z; H_1 = Z^2"),
                                       ("covariant", "cohomology", "H^0 = Z; H^1 = Z^2")):
            const = const_doc(tmp_path, variance)
            assert run(capsys, command, "--set", tor, "--system", const,
                       "--max-dim", "1") == (0, out)
            assert run(capsys, "validate", "--set", tor, "--system", const) == (0, "ok")

    def test_homology_json_output(self, tmp_path, capsys):
        circ = write(tmp_path, "circle.json",
                     formats.cubical_set_to_data(helpers.circle()))
        code, out = run(capsys, "homology", "--set", circ,
                        "--system", const_doc(tmp_path), "--max-dim", "1",
                        "--format", "json")
        assert code == 0
        assert formats.parse_groups(json.loads(out)) == (
            HomologyGroup(1, ()), HomologyGroup(1, ()))

    def test_cohomology_of_interval(self, tmp_path, capsys):
        X = write(tmp_path, "interval.json",
                  formats.cubical_set_to_data(helpers.interval()))
        code, out = run(capsys, "cohomology", "--set", X,
                        "--system", const_doc(tmp_path, "covariant"),
                        "--max-dim", "1")
        assert code == 0
        assert out == "H^0 = Z; H^1 = 0"

    def test_fiber_then_homology(self, tmp_path, capsys):
        col = write(tmp_path, "collapse.json", formats.cubical_map_to_data(
            helpers.collapse_to_point(helpers.interval())))
        dump = str(tmp_path / "fiber.json")
        code, out = run(capsys, "fiber", "--map", col, "--cube", "v@del:1",
                        "--max-dim", "2", "--out", dump)
        assert code == 0
        code, out = run(capsys, "homology", "--table", dump,
                        "--system", const_doc(tmp_path), "--max-dim", "1")
        assert code == 0
        assert out == "H_0 = Z; H_1 = Z"

    def test_fiber_prints_table_without_out(self, tmp_path, capsys):
        col = write(tmp_path, "collapse.json", formats.cubical_map_to_data(
            helpers.collapse_to_point(helpers.interval())))
        code, out = run(capsys, "fiber", "--map", col, "--cube", "v@",
                        "--max-dim", "1")
        assert code == 0
        assert json.loads(out)["type"] == "cubes-table"

    def test_validate_ok(self, tmp_path, capsys):
        fold = write(tmp_path, "fold.json",
                     formats.cubical_map_to_data(helpers.fold_wedge()))
        code, out = run(capsys, "validate", "--map", fold)
        assert code == 0
        assert out == "ok"

    def test_validate_broken_set(self, tmp_path, capsys):
        broken = write(tmp_path, "broken.json", {
            "type": "cubical-set",
            "generators": {"u": 0, "v": 0, "e": 1, "q": 2},
            "faces": {"e": {"1,0": "u@", "1,1": "v@"},
                      "q": {"1,0": "e@x1", "1,1": "e@x1",
                            "2,0": "e@x1", "2,1": "e@x1"}}})
        assert main(["validate", "--set", broken]) == 1
        assert capsys.readouterr().out == (
            "face commutation fails on generator 'q' at (i=1, j=2, alpha=0, beta=1): u@ != v@\n"
            "face commutation fails on generator 'q' at (i=1, j=2, alpha=1, beta=0): v@ != u@\n")

    @pytest.mark.parametrize("generators, faces, report", [
        ({"v": -1}, {}, "generator 'v' has negative dimension -1"),
        ({"v": 0, "e": 1}, {"e": {"1,0": "v@", "1,1": "v@", "2,0": "v@"}},
         "unexpected face entry ('e', 2, 0)"),
    ], ids=["negative-dim", "unexpected-entry"])
    def test_validate_structural_report(self, tmp_path, capsys, generators, faces, report):
        broken = write(tmp_path, "broken.json",
                       {"type": "cubical-set", "generators": generators, "faces": faces})
        assert run(capsys, "validate", "--set", broken) == (1, report)

    def test_validate_unnatural_map(self, tmp_path, capsys):
        # the square projected onto its second coordinate on cxx only
        data = formats.cubical_map_to_data(helpers.square_to_interval())
        data["assignment"]["cxx"] = "cx@x2"
        assert main(["validate", "--map", write(tmp_path, "map.json", data)]) == 1
        assert capsys.readouterr().out == (
            "naturality fails on generator 'cxx' at (i=1, eps=0): c0@del:1 != cx@x1\n"
            "naturality fails on generator 'cxx' at (i=1, eps=1): c1@del:1 != cx@x1\n"
            "naturality fails on generator 'cxx' at (i=2, eps=0): cx@x1 != c0@del:1\n"
            "naturality fails on generator 'cxx' at (i=2, eps=1): cx@x1 != c1@del:1\n")

    def test_validate_category_without_identity(self, tmp_path, capsys):
        C = write(tmp_path, "cat.json", {
            "type": "category", "objects": ["x"], "morphisms": {},
            "identities": {}, "composition": []})
        code, out = run(capsys, "validate", "--category", C)
        assert code == 1

    def test_validate_table_system(self, tmp_path, capsys):
        # the base's defects come first; the system is checked on a sound base
        data = formats.table_system_to_data(constant_system(helpers.torus().expand(3), 1))
        assert run(capsys, "validate", "--table", write(tmp_path, "ts.json", data)) == (0, "ok")
        data["faces"]["2,1,0"]["t@x1,x2"] = [[-1]]
        code, out = run(capsys, "validate", "--table", write(tmp_path, "sys.json", data))
        assert code == 1
        assert out.splitlines()[0] == \
            "face-face identity fails at dim 2 cube t@x1,x2 (i=1, j=2, alpha=0, beta=0)"
        code, out = run(capsys, "validate", "--table",
                        write(tmp_path, "both.json", swap_in_base(data)))
        assert code == 1
        assert out.splitlines()[0] == TORUS_SWAP_REPORT
        assert not any(line.startswith("face-face identity") for line in out.splitlines())

    def test_validate_set_with_system(self, tmp_path, capsys):
        circ = write(tmp_path, "circle.json",
                     formats.cubical_set_to_data(helpers.circle()))
        code, out = run(capsys, "validate", "--set", circ,
                        "--system", const_doc(tmp_path))
        assert code == 0

    def test_product_anomaly(self, tmp_path, capsys):
        X = write(tmp_path, "interval.json",
                  formats.cubical_set_to_data(helpers.interval()))
        dump = str(tmp_path / "square.json")
        code, _ = run(capsys, "product", "--left", X, "--right", X,
                      "--truncate", "3", "--out", dump)
        assert code == 0
        code, out = run(capsys, "homology", "--table", dump,
                        "--system", const_doc(tmp_path), "--max-dim", "2")
        assert code == 0
        assert out == "H_0 = Z; H_1 = Z; H_2 = Z"

    def test_universal(self, tmp_path, capsys):
        semi = write(tmp_path, "circle-semi.json",
                     formats.semicubical_set_to_data(helpers.circle_semi()))
        dump = str(tmp_path / "universal.json")
        code, _ = run(capsys, "universal", "--semi", semi, "--out", dump)
        assert code == 0
        code, out = run(capsys, "homology", "--set", dump,
                        "--system", const_doc(tmp_path), "--max-dim", "1")
        assert code == 0
        assert out == "H_0 = Z; H_1 = Z"

    def test_semicubical_homology(self, tmp_path, capsys):
        semi = write(tmp_path, "torus-semi.json",
                     formats.semicubical_set_to_data(helpers.torus_semi()))
        code, out = run(capsys, "semicubical-homology", "--semi", semi,
                        "--system", const_doc(tmp_path), "--max-dim", "1")
        assert code == 0
        assert out == "H_0 = Z; H_1 = Z^2"

    def test_direct_image_dump_recomputes(self, tmp_path, capsys):
        fold = write(tmp_path, "fold.json",
                     formats.cubical_map_to_data(helpers.fold_wedge()))
        dump = str(tmp_path / "image.json")
        code, _ = run(capsys, "direct-image", "--map", fold,
                      "--system", const_doc(tmp_path), "--truncate", "2",
                      "--out", dump)
        assert code == 0
        code, out = run(capsys, "homology", "--table", dump, "--max-dim", "1")
        assert code == 0
        assert out == "H_0 = Z; H_1 = Z^2"

    def test_system_flag_overrides_embedded(self, tmp_path, capsys):
        fold = write(tmp_path, "fold.json",
                     formats.cubical_map_to_data(helpers.fold_wedge()))
        dump = str(tmp_path / "image.json")
        run(capsys, "direct-image", "--map", fold,
            "--system", const_doc(tmp_path), "--truncate", "2", "--out", dump)
        code, out = run(capsys, "homology", "--table", dump,
                        "--system", const_doc(tmp_path), "--max-dim", "1")
        assert code == 0
        assert out == "H_0 = Z; H_1 = Z"

    def test_pullback_system_dump(self, tmp_path, capsys):
        fold = write(tmp_path, "fold.json",
                     formats.cubical_map_to_data(helpers.fold_wedge()))
        dump = str(tmp_path / "pulled.json")
        code, _ = run(capsys, "pullback-system", "--map", fold,
                      "--system", const_doc(tmp_path), "--truncate", "2",
                      "--out", dump)
        assert code == 0
        code, out = run(capsys, "homology", "--table", dump, "--max-dim", "1")
        assert code == 0
        assert out == "H_0 = Z; H_1 = Z^2"

    def test_nerve_dump_validates_and_computes(self, tmp_path, capsys):
        C = write(tmp_path, "square.json",
                  formats.category_to_data(helpers.square_poset()))
        dump = str(tmp_path / "nerve.json")
        code, _ = run(capsys, "nerve", "--category", C, "--truncate", "2",
                      "--out", dump)
        assert code == 0
        code, out = run(capsys, "validate", "--table", dump)
        assert code == 0
        code, out = run(capsys, "homology", "--table", dump,
                        "--system", const_doc(tmp_path), "--max-dim", "1")
        assert code == 0
        assert out == "H_0 = Z; H_1 = 0"

    def test_nerve_output_reproducible(self, tmp_path, capsys):
        C = write(tmp_path, "arrow.json",
                  formats.category_to_data(helpers.arrow_category()))
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(capsys, "nerve", "--category", C, "--truncate", "2", "--out", a)
        run(capsys, "nerve", "--category", C, "--truncate", "2", "--out", b)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_nerve_over_budget_refused_quickly(self, tmp_path, capsys):
        # too many cubes: the idempotent monoid at top 4; too big cubes: the
        # point at top 16, whose one 13-cube carries 61,440 labels
        for C, top, budget in ((helpers.idempotent_monoid(), "4",
                                f"nerve level 4 would hold more than {NERVE_LABEL_BUDGET} "
                                f"labels, the budget of one level"),
                               (helpers.point_category(), "16",
                                f"nerve level 13 would hold more than {NERVE_LABEL_BUDGET} "
                                f"labels, the budget of one level")):
            doc = write(tmp_path, "category.json", formats.category_to_data(C))
            start = time.perf_counter()
            code = main(["nerve", "--category", doc, "--truncate", top,
                         "--out", str(tmp_path / "nerve.json")])
            assert time.perf_counter() - start < 2.0
            assert code == 1
            assert budget in capsys.readouterr().err
            assert not (tmp_path / "nerve.json").exists()

    def test_nerve_refused_before_the_level_is_searched(self, tmp_path, capsys):
        # the arrow's level 6 holds at least 43,292 degenerate cubes of 256
        # labels, counted from the levels below before level 6 is searched
        doc = write(tmp_path, "arrow.json", formats.category_to_data(helpers.arrow_category()))
        start = time.perf_counter()
        code = main(["nerve", "--category", doc, "--truncate", "6",
                     "--out", str(tmp_path / "nerve.json")])
        assert time.perf_counter() - start < 3.0
        assert code == 1
        assert capsys.readouterr() == ("", f"error: nerve level 6 would hold more than "
                                           f"{NERVE_LABEL_BUDGET} labels, the budget of "
                                           f"one level\n")
        assert not (tmp_path / "nerve.json").exists()

    def test_key_separators_in_names_refused(self, tmp_path, capsys):
        # with s: p -> "q;0-1:r" and "r;0-1:s": p -> q, both arrows would
        # have the key "0:p,1:q;0-1:r;0-1:s" and the table would lose one
        C = FiniteCategory(["p", "q", "q;0-1:r"],
                           {"1p": ("p", "p"), "1q": ("q", "q"), "1r": ("q;0-1:r", "q;0-1:r"),
                            "s": ("p", "q;0-1:r"), "r;0-1:s": ("p", "q")},
                           {}, {"p": "1p", "q": "1q", "q;0-1:r": "1r"})
        for (second, first) in [(g, f) for g in C.morphisms for f in C.morphisms
                                if C.target(f) == C.source(g)]:
            C.composition[(second, first)] = first if second.startswith("1") else second
        assert C.validate() == []
        doc = write(tmp_path, "category.json", formats.category_to_data(C))
        diagram = write(tmp_path, "const.json",
                        formats.diagram_to_data(helpers.constant_diagram(C.op())))
        refusal = ("", "error: name 'q;0-1:r' contains ',' or ';', which separate "
                       "the entries of nerve keys\n")
        assert main(["nerve", "--category", doc, "--truncate", "2",
                     "--out", str(tmp_path / "nerve.json")]) == 1
        assert capsys.readouterr() == refusal
        assert not (tmp_path / "nerve.json").exists()
        assert main(["compare", "--contract", "homolcatcub", "--category", doc,
                     "--diagram", diagram, "--max-dim", "1"]) == 1
        assert capsys.readouterr() == refusal

    def test_fiber_sweep_over_budget_refused_quickly(self, tmp_path, capsys):
        # every fiber over a degenerate 7-cube reads I^7 to 7, 108,545 cubes
        ident = write(tmp_path, "id.json", formats.cubical_map_to_data(
            helpers.identity_map(helpers.squashed_square())))
        start = time.perf_counter()
        code = main(["fiber-criterion", "--map", ident, "--max-dim", "6"])
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert capsys.readouterr() == ("", f"error: the representable I^7 to dimension 7 has "
                                           f"108545 cubes, more than {EXPANSION_CUBE_BUDGET}, "
                                           f"the budget of one table\n")

    def test_fiber_sweep_of_large_representable_refused_quickly(self, tmp_path, capsys):
        # I^1000 to 1000 is refused on its vertices alone, 1001 * 2^1000, before any sum
        ident = write(tmp_path, "id.json", formats.cubical_map_to_data(
            helpers.identity_map(helpers.point())))
        start = time.perf_counter()
        code = main(["fiber-criterion", "--map", ident, "--max-dim", "0", "--truncate", "1000"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert capsys.readouterr() == ("", f"error: the representable I^1000 to dimension 1000 "
                                           f"has at least 1001 * 2^1000 cubes, more than "
                                           f"{EXPANSION_CUBE_BUDGET}, the budget of one table\n")

    def test_string_complex_over_budget_refused_quickly(self, tmp_path, capsys):
        # Z/3 has 2^n strings of length n of its two non-identity elements
        z3 = helpers.cyclic3_monoid()
        C = write(tmp_path, "z3.json", formats.category_to_data(z3))
        D = write(tmp_path, "const.json", formats.diagram_to_data(helpers.constant_diagram(z3)))
        start = time.perf_counter()
        code = main(["cat-cohomology", "--category", C, "--diagram", D, "--max-dim", "64"])
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert capsys.readouterr() == ("", f"error: string level 16 has more than "
                                           f"{STRING_BUDGET} strings, the budget of one degree\n")

    def test_product_over_budget_refused_quickly(self, tmp_path, capsys):
        # I^2 x I^2 would hold 72,461,168 cubes at top 64
        X = write(tmp_path, "square.json", formats.cubical_set_to_data(standard_cube(2)))
        start = time.perf_counter()
        code = main(["product", "--left", X, "--right", X, "--truncate", "64",
                     "--out", str(tmp_path / "product.json")])
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert capsys.readouterr() == ("", f"error: the product to dimension 64 has 72461168 "
                                           f"cubes, more than {EXPANSION_CUBE_BUDGET}, "
                                           f"the budget of one table\n")
        assert not (tmp_path / "product.json").exists()

    def test_high_dimensional_generator_validates_quickly(self, tmp_path, capsys):
        # one 120-cube whose faces are all the point: the face commutation
        # is checked at dimension 120 alone, not at every dimension below it
        face = "p@del:" + ",".join(map(str, range(1, 120)))
        X = write(tmp_path, "cube.json", {
            "type": "cubical-set", "generators": {"p": 0, "g": 120},
            "faces": {"g": {f"{i},{eps}": face for i in range(1, 121) for eps in (0, 1)}}})
        start = time.perf_counter()
        code = main(["validate", "--set", X])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert capsys.readouterr() == ("ok\n", "")

    def test_cat_homology_sign(self, tmp_path, capsys):
        C = write(tmp_path, "z2.json",
                  formats.category_to_data(helpers.cyclic2_monoid()))
        D = write(tmp_path, "sign.json",
                  formats.diagram_to_data(helpers.sign_diagram()))
        code, out = run(capsys, "cat-homology", "--category", C,
                        "--diagram", D, "--max-dim", "2")
        assert code == 0
        assert out == "H_0 = Z/2; H_1 = 0; H_2 = Z/2"

    def test_cat_cohomology_point(self, tmp_path, capsys):
        C = write(tmp_path, "pt.json",
                  formats.category_to_data(helpers.point_category()))
        D = write(tmp_path, "rank3.json", formats.diagram_to_data(
            helpers.constant_diagram(helpers.point_category(), 3)))
        code, out = run(capsys, "cat-cohomology", "--category", C,
                        "--diagram", D, "--max-dim", "1")
        assert code == 0
        assert out == "H^0 = Z^3; H^1 = 0"

    def test_bw_routes_agree(self, tmp_path, capsys):
        C = write(tmp_path, "arrow.json",
                  formats.category_to_data(helpers.arrow_category()))
        fc = factorization_category(helpers.arrow_category())
        D = write(tmp_path, "fc-const.json",
                  formats.diagram_to_data(helpers.constant_diagram(fc)))
        code, out = run(capsys, "bw", "--category", C, "--diagram", D,
                        "--max-dim", "1")
        assert (code, out) == (0, "H^0 = Z; H^1 = 0")
        code, out = run(capsys, "bw-oracle", "--category", C, "--diagram", D,
                        "--max-dim", "1")
        assert (code, out) == (0, "H^0 = Z; H^1 = 0")

    def test_fiber_criterion_identity_passes(self, tmp_path, capsys):
        ident = write(tmp_path, "id.json",
                      formats.cubical_map_to_data(helpers.identity_map(helpers.circle())))
        code, out = run(capsys, "fiber-criterion", "--map", ident, "--max-dim", "1")
        assert code == 0
        assert out == "criterion passed"

    def test_fiber_criterion_collapse_fails(self, tmp_path, capsys):
        col = write(tmp_path, "collapse.json", formats.cubical_map_to_data(
            helpers.collapse_to_point(helpers.interval())))
        code, out = run(capsys, "fiber-criterion", "--map", col, "--max-dim", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "fiber over v@del:1 (dim 1): H_0 = Z; H_1 = Z"
        assert lines[-1] == "criterion failed"


class TestCompareContracts:
    def test_dirhomol(self, tmp_path, capsys):
        fold = write(tmp_path, "fold.json",
                     formats.cubical_map_to_data(helpers.fold_wedge()))
        code, out = run(capsys, "compare", "--contract", "dirhomol",
                        "--map", fold, "--system", const_doc(tmp_path),
                        "--max-dim", "1")
        assert code == 0
        assert out.endswith("equal")
        assert "source: H_0 = Z; H_1 = Z^2" in out

    def test_dirhomol_on_a_collapsed_four_cube(self, tmp_path, capsys):
        # The direct image of I^4 to the point is on the generic route; each
        # degenerate cube's cokernel is taken by sparse unit pivots.
        X = standard_cube(4)
        mats = helpers.gauge_matrices(X, 2, random.Random(17))
        fmap = write(tmp_path, "collapse.json",
                     formats.cubical_map_to_data(helpers.collapse_to_point(X)))
        gauge = write(tmp_path, "gauge.json",
                      formats.local_system_to_data(2, "contravariant", mats))
        code, out = run(capsys, "compare", "--contract", "dirhomol", "--map", fmap,
                        "--system", gauge, "--max-dim", "4", "--truncate", "5")
        groups = "H_0 = Z^2; H_1 = 0; H_2 = 0; H_3 = 0; H_4 = 0"
        assert code == 0
        assert out.splitlines() == [f"source: {groups}", f"direct image: {groups}", "equal"]

    def test_comloc(self, tmp_path, capsys):
        circ = write(tmp_path, "circle.json",
                     formats.cubical_set_to_data(helpers.circle()))
        mono = write(tmp_path, "mono.json", {
            "type": "local-system", "rank": 1, "variance": "contravariant",
            "faces": {"e": {"1,0": [[1]], "1,1": [[-1]]}}})
        code, out = run(capsys, "compare", "--contract", "comloc",
                        "--set", circ, "--system", mono, "--max-dim", "1")
        assert code == 0
        assert out.splitlines() == ["local: H_0 = Z/2; H_1 = 0",
                                    "generic: H_0 = Z/2; H_1 = 0",
                                    "equal"]

    def test_semicubecube_weighted(self, tmp_path, capsys):
        semi = write(tmp_path, "torus-semi.json",
                     formats.semicubical_set_to_data(helpers.torus_semi()))
        weighted = write(tmp_path, "weighted.json",
                         formats.semicubical_system_to_data(
                             helpers.weighted_torus_system()))
        code, out = run(capsys, "compare", "--contract", "semicubecube",
                        "--semi", semi, "--system", weighted, "--max-dim", "1")
        assert code == 0
        assert out.endswith("equal")

    def test_homolcatcub(self, tmp_path, capsys):
        C = write(tmp_path, "z2.json",
                  formats.category_to_data(helpers.cyclic2_monoid()))
        D = write(tmp_path, "sign.json",
                  formats.diagram_to_data(helpers.sign_diagram()))
        code, out = run(capsys, "compare", "--contract", "homolcatcub",
                        "--category", C, "--diagram", D, "--max-dim", "1")
        assert code == 0
        assert out.splitlines() == ["cubical: H_0 = Z/2; H_1 = 0",
                                    "categorical: H_0 = Z/2; H_1 = 0",
                                    "equal"]

    def test_homolbwcub(self, tmp_path, capsys):
        C = write(tmp_path, "arrow.json",
                  formats.category_to_data(helpers.arrow_category()))
        fc = factorization_category(helpers.arrow_category())
        D = write(tmp_path, "fc-const.json",
                  formats.diagram_to_data(helpers.constant_diagram(fc)))
        code, out = run(capsys, "compare", "--contract", "homolbwcub",
                        "--category", C, "--diagram", D, "--max-dim", "1")
        assert code == 0
        assert out.splitlines() == ["cubical: H^0 = Z; H^1 = 0",
                                    "oracle: H^0 = Z; H^1 = 0",
                                    "equal"]


class TestExitCodes:
    def test_map_between_invalid_sets_is_refused(self, tmp_path, capsys):
        # The identity of the square with face (1,0) of the edge c0x moved
        # from c00 to c10 in both sets: the assignment is natural, but the
        # sets are not cubical, so the map is refused before any fiber of
        # it is built.
        data = formats.cubical_map_to_data(helpers.identity_map(standard_cube(2)))
        for side in ("source", "target"):
            data[side]["faces"]["c0x"]["1,0"] = "c10@"
        bad = write(tmp_path, "bad-map.json", data)
        assert main(["validate", "--map", bad]) == 1
        assert capsys.readouterr().out == (
            "source: face commutation fails on generator 'cxx' at "
            "(i=1, j=2, alpha=0, beta=0): c00@ != c10@\n"
            "target: face commutation fails on generator 'cxx' at "
            "(i=1, j=2, alpha=0, beta=0): c00@ != c10@\n")
        for argv in (["fiber-criterion", "--map", bad, "--max-dim", "1"],
                     ["fiber", "--map", bad, "--cube", "cxx@x1,x2", "--max-dim", "1"]):
            assert main(argv) == 1

    def test_non_functorial_local_system_message(self, tmp_path, capsys):
        torus = write(tmp_path, "torus.json", formats.cubical_set_to_data(helpers.torus()))
        flip = write(tmp_path, "flip.json", formats.local_system_to_data(
            1, "contravariant", helpers.flipped_torus_matrices()))
        assert main(["homology", "--set", torus, "--system", flip, "--max-dim", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: {helpers.NON_FUNCTORIAL_TORUS}\n")

    def test_negative_rank_local_system_message(self, tmp_path, capsys):
        point = write(tmp_path, "point.json", formats.cubical_set_to_data(helpers.point()))
        minus = write(tmp_path, "minus.json", formats.local_system_to_data(-1, "contravariant", {}))
        assert main(["homology", "--set", point, "--system", minus, "--max-dim", "0"]) == 1
        assert capsys.readouterr() == ("", f"error: {helpers.NEGATIVE_RANK_POINT}\n")

    def test_set_without_system_is_usage_error(self, tmp_path, capsys):
        circ = write(tmp_path, "circle.json",
                     formats.cubical_set_to_data(helpers.circle()))
        assert main(["homology", "--set", circ, "--max-dim", "1"]) == 2

    def test_malformed_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--set", str(bad)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--set", str(tmp_path / "nope.json")]) == 2

    def test_nonincreasing_cube_flag(self, tmp_path, capsys):
        ident = write(tmp_path, "id.json",
                      formats.cubical_map_to_data(helpers.identity_map(helpers.torus())))
        assert main(["fiber", "--map", ident, "--cube", "t@x2,x1",
                     "--max-dim", "1"]) == 2

    def test_negative_semicubical_rank_is_refused(self, tmp_path, capsys):
        # No face reaches the isolated vertex v, so no matrix shape catches
        # its rank; validation has to.
        semi = write(tmp_path, "semi.json", TestSemiCubicalSystemFuzz.POINT_AND_LOOP)
        system = write(tmp_path, "sys.json", {
            "type": "semicubical-system", "ranks": {"v": -1, "w": 1, "e": 1},
            "faces": {"e": {"1,0": [[1]], "1,1": [[1]]}}})
        for argv in (["validate", "--semi", semi, "--system", system],
                     ["semicubical-homology", "--semi", semi, "--system", system,
                      "--max-dim", "0"],
                     ["compare", "--contract", "semicubecube", "--semi", semi,
                      "--system", system, "--max-dim", "0"]):
            code, out = run(capsys, *argv)
            assert (code, out) == (1, "negative rank at v"), argv

    def test_wrong_shape_matrix_is_parse_error(self, tmp_path, capsys):
        C = write(tmp_path, "z2.json",
                  formats.category_to_data(helpers.cyclic2_monoid()))
        D = write(tmp_path, "bad.json", {
            "type": "diagram", "ranks": {"o": 1},
            "matrices": {"e": [[1]], "g": [[1, 0]]}})
        assert main(["cat-homology", "--category", C, "--diagram", D,
                     "--max-dim", "1"]) == 2

    @pytest.mark.parametrize("level, key", [("1", "w@x1"), ("2", "e@x1"), ("-1", "v@")])
    def test_table_system_unknown_cube_is_parse_error(self, tmp_path, capsys, level, key):
        # an unknown key, or a rank level outside 0..top, names no cube of the base
        data = formats.table_system_to_data(constant_system(helpers.circle().expand(1), 1))
        data["ranks"].setdefault(level, {})[key] = 1
        with pytest.raises(FormatError, match=f"unknown dim-{level} cube"):
            formats.parse_table_system(data)
        assert main(["homology", "--table", write(tmp_path, "bad.json", data),
                     "--max-dim", "0"]) == 2

    def test_cubes_table_repeated_key_is_parse_error(self, tmp_path, capsys):
        data = formats.cubes_table_to_data(helpers.interval().expand(1))
        data["keys"][1][data["keys"][1].index("a@del:1")] = "e@x1"
        with pytest.raises(FormatError, match="key level 1 repeats the key 'e@x1'"):
            formats.parse_cubes_table(data)
        assert main(["homology", "--table", write(tmp_path, "bad.json", data),
                     "--system", const_doc(tmp_path), "--max-dim", "0"]) == 2
        assert "key level 1 repeats the key 'e@x1'" in capsys.readouterr().err

    def test_table_system_base_repeated_key_is_parse_error(self, tmp_path, capsys):
        # the base renames a@x1 to b@x1 and the entries for a@x1 are dropped:
        # the key level repeats b@x1, which is what the message must name
        data = formats.table_system_to_data(constant_system(helpers.torus().expand(2), 1))
        level = data["base"]["keys"][1]
        level[level.index("a@x1")] = "b@x1"
        for part in ("ranks", "faces", "degens"):
            for entries in data[part].values():
                entries.pop("a@x1", None)
        assert main(["homology", "--table", write(tmp_path, "bad.json", data),
                     "--max-dim", "1"]) == 2
        assert "key level 1 repeats the key 'b@x1'" in capsys.readouterr().err

    def test_table_system_base_is_validated(self, tmp_path, capsys):
        # one swap in a face column of the embedded base: the document used
        # to give groups with exit 0 however it was passed
        X = helpers.torus()
        bad = write(tmp_path, "bad.json", swap_in_base(
            formats.table_system_to_data(constant_system(X.expand(3), 1))))
        table = write(tmp_path, "torus.json", formats.cubes_table_to_data(X.expand(3)))
        torus = write(tmp_path, "torus-set.json", formats.cubical_set_to_data(X))
        for argv in (["--table", bad], ["--table", table, "--system", bad],
                     ["--set", torus, "--system", bad, "--truncate", "3"]):
            assert main(["homology", *argv, "--max-dim", "2"]) == 1, argv
            report = capsys.readouterr().out
            assert report.splitlines()[0] == TORUS_SWAP_REPORT
        # validate refuses it with the same report, also when the embedded
        # base fixes the truncation; it used to print ok on --set
        for argv in (["--table", bad], ["--set", torus, "--system", bad, "--truncate", "3"],
                     ["--set", torus, "--system", bad]):
            assert main(["validate", *argv]) == 1, argv
            assert capsys.readouterr().out == report, argv

    def test_table_system_on_the_source(self, tmp_path, capsys):
        # a table-system on the source's own expansion gives what the
        # constant-system document gives: the command keeps its own table,
        # not the parsed base, whose elements are keys the map cannot act on
        f = helpers.collapse_to_point(helpers.interval())
        fmap = write(tmp_path, "map.json", formats.cubical_map_to_data(f))
        table = write(tmp_path, "ts.json",
                      formats.table_system_to_data(constant_system(f.source.expand(2), 1)))
        for command in (["direct-image", "--truncate", "2"],
                        ["compare", "--contract", "dirhomol", "--max-dim", "1"]):
            outs = [run(capsys, *command, "--map", fmap, "--system", system)
                    for system in (table, const_doc(tmp_path))]
            assert outs[0][0] == 0, command
            assert outs[0] == outs[1], command

    def test_table_system_on_another_table_refused(self, tmp_path, capsys):
        # the interval's expansion to 1 with the two face columns swapped is
        # a sound table with the same keys, but not the table the command
        # expanded, so a system on it is refused after the base's own check
        X = helpers.interval()
        data = formats.table_system_to_data(constant_system(X.expand(1), 1))
        faces = data["base"]["faces"]
        faces["1,1,0"], faces["1,1,1"] = faces["1,1,1"], faces["1,1,0"]
        swapped = write(tmp_path, "swapped.json", data)
        interval = write(tmp_path, "interval.json", formats.cubical_set_to_data(X))
        fmap = write(tmp_path, "map.json",
                     formats.cubical_map_to_data(helpers.collapse_to_point(X)))
        for argv in (["validate", "--set", interval],
                     ["homology", "--set", interval, "--max-dim", "0"],
                     ["direct-image", "--map", fmap, "--truncate", "1"]):
            assert main([*argv, "--system", swapped]) == 1, argv
            assert capsys.readouterr().err == \
                "error: table-system base does not match the given table\n", argv

    def test_validate_truncation_reaches_every_generator(self, tmp_path, capsys):
        # By default validate expands --set to its largest generator
        # dimension, or to the top of the system's embedded base, so it sees
        # what homology sees. It used to stop at dimension 2: it printed ok
        # for a local system on I^3 broken at the 3-cube, and refused a
        # sound table-system at top 3 as not matching.
        X = standard_cube(3)
        faces = {g: {f"{i},{eps}": [[1]] for i in range(1, n + 1) for eps in (0, 1)}
                 for g, n in X.generators.items() if n}
        faces["cxxx"]["1,1"] = [[-1]]
        i3 = write(tmp_path, "i3.json", formats.cubical_set_to_data(X))
        bad = write(tmp_path, "bad.json", {"type": "local-system", "rank": 1,
                                           "variance": "contravariant", "faces": faces})
        assert main(["homology", "--set", i3, "--system", bad, "--max-dim", "2"]) == 1
        refusal = capsys.readouterr()
        assert refusal.err.startswith(
            "error: generator matrices are not functorial: face-face identity fails at "
            "dim 3 cube cxxx@x1,x2,x3 (i=1, j=2, alpha=1, beta=0); ")
        assert main(["validate", "--set", i3, "--system", bad]) == 1
        assert capsys.readouterr() == refusal
        torus = write(tmp_path, "torus.json", formats.cubical_set_to_data(helpers.torus()))
        sound = write(tmp_path, "ts.json", formats.table_system_to_data(
            constant_system(helpers.torus().expand(3), 1)))
        assert run(capsys, "validate", "--set", torus, "--system", sound) == (0, "ok")
        # an explicit --truncate still wins
        assert main(["validate", "--set", torus, "--system", sound, "--truncate", "2"]) == 1
        assert capsys.readouterr().err == \
            "error: table-system base does not match the given table\n"

    def test_contract_missing_flags(self, capsys):
        assert main(["compare", "--contract", "dirhomol", "--max-dim", "1"]) == 2

    def test_unknown_command_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_truncate_below_max_dim(self, tmp_path, capsys):
        circ = write(tmp_path, "circle.json",
                     formats.cubical_set_to_data(helpers.circle()))
        assert main(["homology", "--set", circ, "--system", const_doc(tmp_path),
                     "--max-dim", "2", "--truncate", "1"]) == 1

    @pytest.mark.parametrize("e, g", [("|", "||"), ("||", "|")])
    def test_bar_in_morphism_name_is_refused(self, tmp_path, capsys, e, g):
        # Z/2 and its constant codomain diagram with e and g renamed; the
        # factorization arrow names "alpha|beta|u|v" would collide
        z2 = helpers.cyclic2_monoid()
        fc = factorization_category(z2)
        D = formats.diagram_to_data(
            helpers.codomain_diagram(z2, fc, helpers.constant_diagram(z2)))

        def rename(name):
            return "|".join({"e": e, "g": g}[part] for part in name.split("|"))
        C = formats.category_to_data(z2)
        C["morphisms"] = {rename(k): v for k, v in C["morphisms"].items()}
        C["identities"] = {"o": e}
        C["composition"] = [[rename(x) for x in row] for row in C["composition"]]
        D["ranks"] = {rename(k): r for k, r in D["ranks"].items()}
        D["matrices"] = {rename(k): m for k, m in D["matrices"].items()}
        code = main(["compare", "--contract", "homolbwcub", "--category",
                     write(tmp_path, "z2.json", C), "--diagram", write(tmp_path, "d.json", D),
                     "--max-dim", "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == ("error: morphism name '|' contains '|', which separates "
                       "the parts of factorization arrow names\n")

    def test_local_system_on_bare_table_fails(self, tmp_path, capsys):
        table = write(tmp_path, "table.json", formats.cubes_table_to_data(
            helpers.circle().expand(2)))
        mono = write(tmp_path, "mono.json", {
            "type": "local-system", "rank": 1, "variance": "contravariant",
            "faces": {"e": {"1,0": [[1]], "1,1": [[-1]]}}})
        assert main(["homology", "--table", table, "--system", mono,
                     "--max-dim", "1"]) == 1

    def test_system_flag_validates_table_system(self, tmp_path, capsys):
        X = helpers.torus().expand(3)
        full = formats.table_system_to_data(constant_system(X, 1))
        table = write(tmp_path, "full.json", full)
        # drop one top cube from the system: its rank, its face matrices and
        # the degeneracies that land on it
        cut = json.loads(json.dumps(full))
        gone = X.key(3, 0)
        del cut["ranks"]["3"][gone]
        for i in range(1, 4):
            for eps in (0, 1):
                del cut["faces"][f"3,{i},{eps}"][gone]
            for idx, key in enumerate(X.keys[2]):
                if X.degen_map[(2, i)][idx] == 0:
                    del cut["degens"][f"2,{i}"][key]
        system = write(tmp_path, "cut.json", cut)
        for argv in (["--table", table, "--system", system],
                     ["--table", system]):
            assert main(["homology", *argv, "--max-dim", "2"]) == 1
            assert f"missing rank for dim-3 cube {gone}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["fiber", "direct-image", "pullback-system",
                                         "validate", "nerve"])
    def test_negative_truncation_refused(self, tmp_path, capsys, command):
        # a table truncated below zero would be written as an unreadable document
        fold = write(tmp_path, "fold.json",
                     formats.cubical_map_to_data(helpers.fold_wedge()))
        circ = write(tmp_path, "circle.json",
                     formats.cubical_set_to_data(helpers.circle()))
        arrow = write(tmp_path, "arrow.json",
                      formats.category_to_data(helpers.arrow_category()))
        dump = str(tmp_path / "neg.json")
        argv = {
            "fiber": ["--map", fold, "--cube", "v@", "--max-dim", "-1", "--out", dump],
            "direct-image": ["--map", fold, "--system", const_doc(tmp_path),
                             "--truncate", "-1", "--out", dump],
            "pullback-system": ["--map", fold, "--system", const_doc(tmp_path),
                                "--truncate", "-1", "--out", dump],
            "validate": ["--set", circ, "--system", const_doc(tmp_path),
                         "--truncate", "-1"],
            "nerve": ["--category", arrow, "--truncate", "-1", "--out", dump],
        }[command]
        assert main([command, *argv]) == 1
        err = capsys.readouterr().err
        assert "truncation must be nonnegative" in err
        assert "Traceback" not in err
        assert not (tmp_path / "neg.json").exists()

    def test_semicubical_negative_degree_refused(self, tmp_path, capsys):
        semi = write(tmp_path, "torus-semi.json",
                     formats.semicubical_set_to_data(helpers.torus_semi()))
        assert main(["semicubical-homology", "--semi", semi,
                     "--system", const_doc(tmp_path), "--max-dim", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_dim must be nonnegative" in captured.err

    def test_fiber_criterion_negative_degree_refused(self, tmp_path, capsys):
        # below -1 the default truncation max-dim + 1 is negative too, so the
        # degree is refused before the representable I^truncation is counted
        fold = write(tmp_path, "fold.json", formats.cubical_map_to_data(helpers.fold_wedge()))
        for max_dim in range(-2, -11, -1):
            for truncate in [None, *range(max_dim + 1, 0)]:
                argv = ["fiber-criterion", "--map", fold, "--max-dim", str(max_dim)]
                if truncate is not None:
                    argv += ["--truncate", str(truncate)]
                assert main(argv) == 1, argv
                assert capsys.readouterr() == ("", "error: max_dim must be nonnegative\n"), argv

    def test_negative_degree_refused_before_the_default_truncation(self, tmp_path, capsys):
        # the default truncation max-dim + 1 is negative too, but the degree is
        # what the user passed, so the refusal names it
        square = write(tmp_path, "square.json", formats.cubical_set_to_data(standard_cube(2)))
        fold = write(tmp_path, "fold.json", formats.cubical_map_to_data(helpers.fold_wedge()))
        const, cov = const_doc(tmp_path), const_doc(tmp_path, "covariant")
        commands = [["homology", "--set", square, "--system", const],
                    ["cohomology", "--set", square, "--system", cov],
                    ["compare", "--contract", "comloc", "--set", square, "--system", const],
                    ["compare", "--contract", "dirhomol", "--map", fold, "--system", const]]
        for max_dim in range(-2, -7, -1):
            for argv in commands:
                argv = argv + ["--max-dim", str(max_dim)]
                assert main(argv) == 1, argv
                assert capsys.readouterr() == ("", "error: max_dim must be nonnegative\n"), argv

    def test_retruncating_a_table_fails(self, tmp_path, capsys):
        table = write(tmp_path, "table.json", formats.cubes_table_to_data(
            helpers.circle().expand(2)))
        assert main(["homology", "--table", table, "--system", const_doc(tmp_path),
                     "--max-dim", "1", "--truncate", "3"]) == 1

    def test_invalid_map_reports_problems(self, tmp_path, capsys):
        data = formats.cubical_map_to_data(helpers.fold_wedge())
        del data["assignment"]["e2"]
        bad = write(tmp_path, "bad-map.json", data)
        code = main(["validate", "--map", bad])
        assert code == 1
        assert "no value assigned" in capsys.readouterr().out
