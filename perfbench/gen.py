"""Write the input documents of one benchmark workload from a seed.

Usage: python gen.py --workload NAME --seed N --out DIR

The documents are built with cubehom's own classes and serialized with
``cubehom.formats.*_to_data``; the CLI later sees only the files. The seed
draws the unimodular units of the coefficient data and a renaming of the
generators, so the inputs differ from seed to seed while the groups the CLI
must print do not (see ``EXPECTED`` in worker.py).

Prints one JSON object, {"argv": [...]}: the CLI arguments of the
workload's job, with paths inside DIR. Fails when the next seed gives the
same documents, since then the seed would not reach the inputs.
"""

import argparse
import json
import os
import random
import sys

from cubehom import formats
from cubehom.boxcat import CubeMorphism, identity
from cubehom.catalg import FiniteCategory, factorization_category
from cubehom.coeff import FiniteDiagram
from cubehom.cubset import Cube, CubicalMap, PresentedCubicalSet, standard_cube
from cubehom.zlinalg import IntMatrix, solve_exact

RANK = 2


def random_unimodular(rng, r):
    """A determinant +-1 matrix from 3r random elementary row operations."""
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(3 * r):
        op = rng.randrange(3)
        if op == 0:
            t, s = rng.sample(range(r), 2)
            q = rng.choice((-2, -1, 1, 2))
            rows[t] = [a + q * b for a, b in zip(rows[t], rows[s])]
        elif op == 1:
            t, s = rng.sample(range(r), 2)
            rows[t], rows[s] = rows[s], rows[t]
        else:
            t = rng.randrange(r)
            rows[t] = [-a for a in rows[t]]
    return IntMatrix.from_rows(rows)


def units(rng, names):
    """One unimodular unit and its inverse per name, drawn in sorted order."""
    gamma = {x: random_unimodular(rng, RANK) for x in sorted(names)}
    eye = IntMatrix.identity(RANK)
    return gamma, {x: solve_exact(g, eye) for x, g in gamma.items()}


def renamed(X, rng):
    """X with its generators renamed by a seeded permutation.

    The new names sort differently from seed to seed, which reorders the
    cube tables the program builds without changing the cubical set.
    """
    old = sorted(X.generators)
    perm = list(range(len(old)))
    rng.shuffle(perm)
    name = {g: f"g{perm[k]:02d}" for k, g in enumerate(old)}
    return PresentedCubicalSet(
        {name[g]: d for g, d in X.generators.items()},
        {(name[g], i, eps): Cube(name[c.gen], c.epi)
         for (g, i, eps), c in X.faces.items()})


def square_poset():
    """Four objects 00 <= 01, 10 <= 11: one morphism x_y per related pair."""
    objects = ["00", "01", "10", "11"]
    pairs = {("00", "01"), ("00", "10"), ("00", "11"), ("01", "11"), ("10", "11")}
    pairs |= {(x, x) for x in objects}
    composition = {(f"{y}_{z}", f"{x}_{y}"): f"{x}_{z}"
                   for x, y in pairs for y2, z in pairs if y2 == y}
    return FiniteCategory(objects, {f"{x}_{y}": (x, y) for x, y in pairs},
                          composition, {x: f"{x}_{x}" for x in objects})


def telescoping_diagram(C, rng):
    """Rank-2 diagram whose matrix on a: x -> y is gamma_y * gamma_x^-1.

    Composites telescope, so the diagram is functorial for any units drawn.
    """
    gamma, inv = units(rng, C.objects)
    return FiniteDiagram(C, {x: RANK for x in C.objects},
                         {m: gamma[y] * inv[x] for m, (x, y) in C.morphisms.items()})


def nerve_homology(rng, out):
    C = square_poset()
    D = telescoping_diagram(C.op(), rng)
    return (["compare", "--contract", "homolcatcub",
             "--category", write(out, "category", formats.category_to_data(C)),
             "--diagram", write(out, "diagram", formats.diagram_to_data(D)),
             "--max-dim", "2"])


def nerve_cohomology(rng, out):
    C = square_poset()
    F = telescoping_diagram(C, rng)
    fc = factorization_category(C)
    # value at a decomposition object alpha is F(cod alpha); the arrow
    # alpha|beta|u|v acts by F(v)
    D = FiniteDiagram(fc, {a: RANK for a in fc.objects},
                      {name: F.matrix(name.split("|")[3]) for name in fc.morphisms})
    return (["compare", "--contract", "homolbwcub",
             "--category", write(out, "category", formats.category_to_data(C)),
             "--diagram", write(out, "diagram", formats.diagram_to_data(D)),
             "--max-dim", "2"])


def collapse(X):
    """The unique map from X to the one-vertex set."""
    point = PresentedCubicalSet({"v": 0}, {})
    return CubicalMap(X, point, {g: Cube("v", CubeMorphism(d, 0, ()))
                                 for g, d in X.generators.items()})


def dirimage_generic(rng, out):
    X = renamed(standard_cube(3), rng)
    gamma, inv = units(rng, X.generators)
    # contravariant face matrix at (g, i, eps) with face cube c: gamma_c gamma_g^-1
    mats = {(g, i, eps): gamma[c.gen] * inv[g] for (g, i, eps), c in X.faces.items()}
    return (["compare", "--contract", "dirhomol",
             "--map", write(out, "map", formats.cubical_map_to_data(collapse(X))),
             "--system", write(out, "system",
                               formats.local_system_to_data(RANK, "contravariant", mats)),
             "--max-dim", "3", "--truncate", "4"])


def fiber_sweep(rng, out):
    X = renamed(standard_cube(2), rng)
    f = CubicalMap(X, X, {g: Cube(g, identity(d)) for g, d in X.generators.items()})
    return (["fiber-criterion",
             "--map", write(out, "map", formats.cubical_map_to_data(f)),
             "--max-dim", "2", "--truncate", "3"])


WORKLOADS = {
    "nerve-homology": nerve_homology,
    "nerve-cohomology": nerve_cohomology,
    "dirimage-generic": dirimage_generic,
    "fiber-sweep": fiber_sweep,
}


def write(out, stem, data):
    path = os.path.join(out, f"{stem}.json")
    formats.dump_document(data, path)
    return path


def generate(workload, seed, out):
    """Write the workload's documents into out; return the job's CLI arguments."""
    os.makedirs(out, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), out)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    argv = generate(args.workload, args.seed, args.out)
    other = generate(args.workload, args.seed + 1, os.path.join(args.out, "next-seed"))
    if [_read(a) for a in argv if a.endswith(".json")] == [
            _read(a) for a in other if a.endswith(".json")]:
        sys.exit(f"gen: seeds {args.seed} and {args.seed + 1} give identical inputs")
    print(json.dumps({"argv": argv}))


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


if __name__ == "__main__":
    main()
