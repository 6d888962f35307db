"""Batch front-end: read documents, run one computation, print a report.

validate runs the loaders of the computing commands (_load, _load_system)
and prints ok, so it checks exactly what they check.

Exit codes: 0 on success or a passing check, 1 when validation or a
comparison fails, 2 when a document or flag cannot be parsed.
"""

import argparse
import sys
from functools import lru_cache

from . import formats
from .catalg import (bw_cohomology_cubical, bw_cohomology_oracle, bw_comparison,
                     category_cohomology, category_homology, cubical_nerve,
                     factorization_category, nerve_vs_bar_comparison)
from .coeff import (check_generator_matrices, direct_image, extend_semicubical, is_local,
                    pullback_system, validate_functoriality)
from .cubset import product, pullback_fiber, universal_from_semicubical
from .formats import FormatError
from .homcalc import cohomology, fiber_criterion, homology, semicubical_homology


class ValidationFailure(Exception):
    """Carries the problem list of a failed validate() to the exit handler."""

    def __init__(self, problems):
        super().__init__("validation failed")
        self.problems = list(problems)


def _check(problems):
    if problems:
        raise ValidationFailure(problems)


def _load(parse, path, *context):
    """Parse the document at path, against context such as a diagram's category, and check it."""
    x = parse(formats.load_document(path), *context)
    _check(x.validate())
    return x


def _truncation(args) -> int:
    if args.max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    t = args.truncate if args.truncate is not None else args.max_dim + 1
    if t < args.max_dim + 1:
        raise ValueError(f"truncation {t} is below max-dim + 1 = {args.max_dim + 1}")
    return t


def _load_system(path, base, presented=None, top=None):
    """A --system document's carrier and system; a table-system is checked in full.

    With base None (--set), a constant or local system stays on presented's
    generators, a local one checked to depth top (coeff.check_generator_matrices),
    and any other is built on presented expanded to top. top None is the top of
    an embedded base, else presented's largest generator dimension, at least 2.
    """
    if base is None and top is not None and top < 0:
        raise ValueError("truncation must be nonnegative")
    data = formats.load_document(path)
    if base is None:
        if top is None:
            embedded = data.get("base") if data.get("type") == "table-system" else None
            top = (formats.parse_cubes_table(embedded).top if embedded is not None
                   else max([2, *presented.generators.values()]))
        if data.get("type") in ("constant-system", "local-system"):
            rank, mats, variance = formats.parse_generator_system(data, presented)
            if data["type"] == "constant-system":  # identities pass every check
                return presented, (variance, dict.fromkeys(presented.generators, rank), mats)
            return presented, check_generator_matrices(presented, rank, mats, variance, top)
        base = presented.expand(top)
    F = formats.build_system(data, base, presented)
    if data["type"] == "table-system":
        _check(F.base.validate())
        if F.base is not base:
            raise ValueError("table-system base does not match the given table")
        _check(validate_functoriality(F))
    return base, F


def _table_and_system(table, system):
    """Read --table and --system into a checked table and a checked system, or None.

    A table-system document brings its own system unless --system replaces
    it. The table is checked before any system on it.
    """
    data = formats.load_document(table)
    t = data.get("type")
    if t == "cubes-table":
        base, F = formats.parse_cubes_table(data), None
    elif t == "table-system":
        F = formats.parse_table_system(data)
        base = F.base
    else:
        raise FormatError(f"--table expects a cubes-table or table-system document, "
                          f"got type {t!r}")
    _check(base.validate())
    if system:
        return _load_system(system, base)
    if F is not None:
        _check(validate_functoriality(F))
    return base, F


def _carrier_and_system(args):
    """Resolve --set/--table plus --system into a carrier and a system (see _load_system)."""
    if args.set:
        if not args.system:
            raise FormatError("--set needs a --system document")
        X = _load(formats.parse_cubical_set, args.set)
        return _load_system(args.system, None, X, _truncation(args))
    base, F = _table_and_system(args.table, args.system)
    if F is None:
        raise FormatError("--table with a cubes-table document needs --system")
    if args.truncate is not None:
        raise ValueError("a prebuilt table cannot be re-truncated")
    return base, F


def _emit(args, data) -> int:
    text = formats.dumps_document(data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _print_groups(args, groups) -> int:
    if args.format == "json":
        sys.stdout.write(formats.dumps_document(formats.groups_to_data(groups, args.kind)))
    else:
        print(formats.format_groups(groups, args.kind))
    return 0


def cmd_validate(args) -> int:
    if args.set:
        X = _load(formats.parse_cubical_set, args.set)
        if args.system:
            _load_system(args.system, None, X, args.truncate)
    elif args.semi:
        S = _load(formats.parse_semicubical_set, args.semi)
        if args.system:
            _load(formats.build_semicubical_system, args.system, S)
    elif args.map:
        _load(formats.parse_cubical_map, args.map)
    elif args.category:
        C = _load(formats.parse_category, args.category)
        if args.diagram:
            _load(formats.parse_diagram, args.diagram, C)
    else:
        _table_and_system(args.table, args.system)
    print("ok")
    return 0


def cmd_groups(args) -> int:
    base, F = _carrier_and_system(args)
    return _print_groups(args, globals()[args.compute](base, F, args.max_dim))


def cmd_semicubical_homology(args) -> int:
    S = _load(formats.parse_semicubical_set, args.semi)
    F = _load(formats.build_semicubical_system, args.system, S)
    return _print_groups(args, semicubical_homology(S, F, args.max_dim))


def cmd_universal(args) -> int:
    S = _load(formats.parse_semicubical_set, args.semi)
    return _emit(args, formats.cubical_set_to_data(universal_from_semicubical(S)))


def cmd_product(args) -> int:
    A = _load(formats.parse_cubical_set, args.left)
    B = _load(formats.parse_cubical_set, args.right)
    return _emit(args, formats.cubes_table_to_data(product(A, B, args.truncate)))


def cmd_fiber(args) -> int:
    f = _load(formats.parse_cubical_map, args.map)
    y = formats.resolve_cube_key(f.target, args.cube)
    fib = pullback_fiber(f, y, args.max_dim)
    return _emit(args, formats.cubes_table_to_data(fib))


def cmd_fiber_criterion(args) -> int:
    f = _load(formats.parse_cubical_map, args.map)
    report = fiber_criterion(f, args.max_dim, _truncation(args))
    for row in report.rows:
        if not row.ok:
            print(f"fiber over {row.key} (dim {row.dim}): "
                  f"{formats.format_groups(row.groups)}")
    print("criterion passed" if report.passed else "criterion failed")
    return 0 if report.passed else 1


def cmd_transport(args) -> int:
    f = _load(formats.parse_cubical_map, args.map)
    X = getattr(f, args.side)
    _, F = _load_system(args.system, X.expand(args.truncate), X)
    return _emit(args, formats.table_system_to_data(globals()[args.transport](f, F)))


def cmd_cat_groups(args) -> int:
    C = _load(formats.parse_category, args.category)
    D = _load(formats.parse_diagram, args.diagram,
              factorization_category(C) if args.factorized else C)
    return _print_groups(args, globals()[args.compute](C, D, args.max_dim))


def cmd_nerve(args) -> int:
    C = _load(formats.parse_category, args.category)
    return _emit(args, formats.cubes_table_to_data(cubical_nerve(C, args.truncate)))


def _need(args, contract, **flags):
    missing = [f"--{name.replace('_', '-')}" for name, wanted in flags.items()
               if wanted and getattr(args, name) is None]
    if missing:
        raise FormatError(f"contract {contract} needs {' and '.join(missing)}")


def cmd_compare(args) -> int:
    contract = args.contract
    kind = "homology"
    if contract == "dirhomol":
        _need(args, contract, map=True, system=True)
        f = _load(formats.parse_cubical_map, args.map)
        src, F = _load_system(args.system, f.source.expand(_truncation(args)), f.source)
        left = homology(src, F, args.max_dim)
        G = direct_image(f, F)
        right = homology(G.base, G, args.max_dim)
        labels = ("source", "direct image")
    elif contract == "comloc":
        _need(args, contract, set=True, system=True)
        X = _load(formats.parse_cubical_set, args.set)
        base, F = _load_system(args.system, X.expand(_truncation(args)), X)
        if not is_local(F):
            raise ValueError("the local route needs every operator matrix unimodular")
        left = homology(base, F, args.max_dim, path="local")
        right = homology(base, F, args.max_dim, path="generic")
        labels = ("local", "generic")
    elif contract == "semicubecube":
        _need(args, contract, semi=True, system=True)
        S = _load(formats.parse_semicubical_set, args.semi)
        F = _load(formats.build_semicubical_system, args.system, S)
        left = semicubical_homology(S, F, args.max_dim)
        G = extend_semicubical(F, args.max_dim + 1)
        right = homology(G.base, G, args.max_dim)
        labels = ("semicubical", "universal")
    else:
        _need(args, contract, category=True, diagram=True)
        C = _load(formats.parse_category, args.category)
        bw = contract == "homolbwcub"
        D = _load(formats.parse_diagram, args.diagram, factorization_category(C) if bw else C.op())
        report = (bw_comparison if bw else nerve_vs_bar_comparison)(C, D, args.max_dim)
        left, right = report.cubical, report.categorical
        labels = ("cubical", "oracle" if bw else "categorical")
        kind = "cohomology" if bw else kind
    print(f"{labels[0]}: {formats.format_groups(left, kind)}")
    print(f"{labels[1]}: {formats.format_groups(right, kind)}")
    equal = left == right
    print("equal" if equal else "unequal")
    return 0 if equal else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. It holds each command's function by
    name, so a handler calls what this module holds when the command runs."""
    p = argparse.ArgumentParser(
        prog="cubehom",
        description="Exact homology and cohomology of cubical sets, "
                    "semi-cubical sets, and finite categories.")
    sub = p.add_subparsers(dest="command", required=True)

    def groups_flags(sp, kind):
        sp.add_argument("--max-dim", type=int, required=True,
                        help="highest degree to report")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.set_defaults(kind=kind)

    sp = sub.add_parser("validate", help="run the invariant checks of one document")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--set")
    which.add_argument("--semi")
    which.add_argument("--map")
    which.add_argument("--category")
    which.add_argument("--table")
    sp.add_argument("--system", help="also check a coefficient system document")
    sp.add_argument("--diagram", help="also check a diagram document (with --category)")
    sp.add_argument("--truncate", type=int, default=None,
                    help="depth to which a system on --set is checked (default: "
                         "the depth the system document reaches, at least 2)")
    sp.set_defaults(handler=cmd_validate)

    for name in ("homology", "cohomology"):
        sp = sub.add_parser(name, help=f"{name} of a cubical set or prebuilt table")
        which = sp.add_mutually_exclusive_group(required=True)
        which.add_argument("--set")
        which.add_argument("--table")
        sp.add_argument("--system", help="coefficient system document")
        sp.add_argument("--truncate", type=int, default=None)
        groups_flags(sp, name)
        sp.set_defaults(handler=cmd_groups, compute=name)

    sp = sub.add_parser("semicubical-homology",
                        help="homology of a semi-cubical set")
    sp.add_argument("--semi", required=True)
    sp.add_argument("--system", required=True)
    groups_flags(sp, "homology")
    sp.set_defaults(handler=cmd_semicubical_homology)

    sp = sub.add_parser("universal",
                        help="freely add degeneracies to a semi-cubical set")
    sp.add_argument("--semi", required=True)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_universal)

    sp = sub.add_parser("product", help="levelwise product table of two sets")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--truncate", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_product)

    sp = sub.add_parser("fiber", help="fiber of a map over one cube of the target")
    sp.add_argument("--map", required=True)
    sp.add_argument("--cube", required=True, help="cube key in the target")
    sp.add_argument("--max-dim", type=int, required=True,
                    help="truncation dimension of the fiber table")
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_fiber)

    sp = sub.add_parser("fiber-criterion",
                        help="check every fiber for point homology")
    sp.add_argument("--map", required=True)
    sp.add_argument("--max-dim", type=int, required=True)
    sp.add_argument("--truncate", type=int, default=None)
    sp.set_defaults(handler=cmd_fiber_criterion)

    for name, side, transport, what in (
            ("direct-image", "source", "direct_image", "push a system forward along a map"),
            ("pullback-system", "target", "pullback_system",
             "restrict a system on the target along a map")):
        sp = sub.add_parser(name, help=what)
        sp.add_argument("--map", required=True)
        sp.add_argument("--system", required=True)
        sp.add_argument("--truncate", type=int, required=True)
        sp.add_argument("--out")
        sp.set_defaults(handler=cmd_transport, side=side, transport=transport)

    for name, compute in (("cat-homology", "category_homology"),
                          ("cat-cohomology", "category_cohomology")):
        kind = name.split("-")[1]
        sp = sub.add_parser(name, help=f"{kind} of a finite category")
        sp.add_argument("--category", required=True)
        sp.add_argument("--diagram", required=True)
        groups_flags(sp, kind)
        sp.set_defaults(handler=cmd_cat_groups, compute=compute, factorized=False)

    sp = sub.add_parser("nerve", help="cubical nerve table of a finite category")
    sp.add_argument("--category", required=True)
    sp.add_argument("--truncate", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_nerve)

    for name, compute in (("bw", "bw_cohomology_cubical"), ("bw-oracle", "bw_cohomology_oracle")):
        sp = sub.add_parser(name, help="cohomology with a natural system on the "
                                       "factorization category")
        sp.add_argument("--category", required=True)
        sp.add_argument("--diagram", required=True,
                        help="diagram document on the factorization category")
        groups_flags(sp, "cohomology")
        sp.set_defaults(handler=cmd_cat_groups, compute=compute, factorized=True)

    sp = sub.add_parser("compare", help="run one comparison contract")
    sp.add_argument("--contract", required=True,
                    choices=("dirhomol", "comloc", "semicubecube",
                             "homolcatcub", "homolbwcub"))
    sp.add_argument("--set")
    sp.add_argument("--semi")
    sp.add_argument("--map")
    sp.add_argument("--category")
    sp.add_argument("--diagram")
    sp.add_argument("--system")
    sp.add_argument("--max-dim", type=int, required=True)
    sp.add_argument("--truncate", type=int, default=None)
    sp.set_defaults(handler=cmd_compare)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except ValidationFailure as e:
        for problem in e.problems:
            print(problem)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
