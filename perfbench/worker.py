"""Run one workload's CLI job in-process, repeatedly, and check every output.

Usage: python worker.py --workload NAME --job JSON --seconds S --trace 0|1

JOB is the object gen.py printed. The job is ``cubehom.cli.main(argv)``
with stdout captured; its exit code and printed lines are compared with
``EXPECTED``. One untimed warm-up job runs first, then jobs run until S
seconds have passed (at least MIN_JOBS timed ones), each after a full
garbage collection so that every job starts from the same heap. Every job
is bracketed by two timings of the speed reference, and its times are
reported in reference-speed seconds (see speed.py).

With --trace 1 the jobs alternate between plain and traced. A traced job
runs with tracing wrappers installed around the public functions of each
cubehom module, in every module namespace that refers to them (see
LAYERS), so the program itself is unchanged.

Prints one JSON object as its last line.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

from cubehom import catalg, cli, coeff, cubset, formats, homcalc, zlinalg
from speed import REFERENCE_S, reference_seconds

MIN_JOBS = 3


def _groups(mark, degrees):
    return "; ".join(f"{mark}{k} = {'Z^2' if k == 0 else '0'}" for k in range(degrees))


# Exact stdout of each workload's job. The groups do not depend on the seed:
# every diagram and local system is a telescoping rank-2 system, so it is
# isomorphic to the constant one, and every carrier is contractible.
EXPECTED = {
    "nerve-homology": [f"cubical: {_groups('H_', 3)}",
                       f"categorical: {_groups('H_', 3)}", "equal"],
    "nerve-cohomology": [f"cubical: {_groups('H^', 3)}",
                         f"oracle: {_groups('H^', 3)}", "equal"],
    "dirimage-generic": [f"source: {_groups('H_', 4)}",
                         f"direct image: {_groups('H_', 4)}", "equal"],
    "fiber-sweep": ["criterion passed"],
}


# ------------------------------------------------------------------ tracing

def _bits(matrices):
    return max((abs(x).bit_length() for m in matrices for row in m.data for x in row),
               default=0)


def _nnz(matrices):
    return sum(1 for m in matrices for row in m.data for x in row if x)


def _table_cubes(tracer, table, *args):
    tracer.counts["cubset.cubes"] += sum(table.size(n) for n in range(table.top + 1))
    tracer.counts["cubset.nondeg_cubes"] += sum(
        len(table.nondegenerate_indices(n)) for n in range(table.top + 1))


def _fiber(tracer, table, *args):
    tracer.counts["cubset.fibers"] += 1
    _table_cubes(tracer, table)


def _snf(tracer, snf, a):
    tracer.counts["zlinalg.snf_calls"] += 1
    tracer.peak("zlinalg.snf_cells_max", a.rows * a.cols)
    tracer.peak("zlinalg.max_entry_bits", _bits((a, snf.D, snf.U, snf.V)))


def _chain(tracer, report, X, F):
    tracer.counts["homcalc.chain_rank"] += sum(report.complex.ranks)
    tracer.counts["homcalc.boundary_nnz"] += _nnz(report.complex.boundaries)


def _generic(tracer, report, X, F):
    _chain(tracer, report, X, F)
    tracer.peak("homcalc.raw_rank_max", max(
        sum(F.rank_of(n, z) for z in range(X.size(n))) for n in range(X.top + 1)))


def _cochain(tracer, report, X, G):
    tracer.counts["homcalc.chain_rank"] += sum(report.ranks)
    tracer.counts["homcalc.boundary_nnz"] += _nnz(report.deltas)


def _system(tracer, F, *args):
    tracer.counts["coeff.total_rank"] += sum(F.ranks.values())


def _matmul(tracer, product, *args):
    tracer.counts["zlinalg.matmul_calls"] += 1


def _nerve(tracer, table, *args):
    tracer.counts["catalg.nerve_cubes"] += sum(
        table.size(n) for n in range(table.top + 1))


def _loaded(tracer, data, path):
    tracer.counts["formats.input_bytes"] += os.path.getsize(path)


# (owner, attribute, self-time metric, counter hook or None). A function is
# wrapped in every cubehom module that binds it, which is where its callers
# look it up; a method is wrapped on its class.
LAYERS = [
    (cli, "main", "cli.other_s", None),
    (formats, "load_document", "formats.parse_s", _loaded),
    (formats, "parse_cubical_set", "formats.parse_s", None),
    (formats, "parse_cubical_map", "formats.parse_s", None),
    (formats, "parse_category", "formats.parse_s", None),
    (formats, "parse_diagram", "formats.parse_s", None),
    (formats, "build_system", "formats.parse_s", None),
    (cubset.PresentedCubicalSet, "expand", "cubset.expand_s", _table_cubes),
    (cubset, "pullback_fiber", "cubset.fiber_s", _fiber),
    (coeff, "constant_system", "coeff.system_s", _system),
    (coeff, "local_system", "coeff.system_s", _system),
    (coeff, "system_from_diagram_last_vertex", "coeff.system_s", _system),
    (coeff, "natural_system_via_d", "coeff.system_s", _system),
    (coeff, "validate_functoriality", "coeff.system_s", None),
    (coeff, "is_local", "coeff.system_s", None),
    (coeff, "direct_image", "coeff.direct_image_s", _system),
    (catalg, "cubical_nerve", "catalg.nerve_s", _nerve),
    (catalg, "factorization_category", "catalg.factorization_s", None),
    (catalg, "category_homology", "catalg.string_s", None),
    (catalg, "category_cohomology", "catalg.string_s", None),
    (homcalc, "normalized_complex", "homcalc.normalize_generic_s", _generic),
    (homcalc, "normalized_complex_local", "homcalc.normalize_local_s", _chain),
    (homcalc, "cochain_complex", "homcalc.cochain_s", _cochain),
    (zlinalg, "homology_of_complex", "zlinalg.eliminate_s", None),
    (zlinalg, "cohomology_of_cochain", "zlinalg.eliminate_s", None),
    (zlinalg, "smith_normal_form", "zlinalg.snf_s", _snf),
    (zlinalg.IntMatrix, "__mul__", "zlinalg.matmul_s", _matmul),
]

MODULES = (zlinalg, cubset, coeff, homcalc, catalg, formats, cli)


class Tracer:
    """Self time per layer metric plus counters, for the jobs run while installed.

    A span's self time is its duration minus the durations of the spans
    opened inside it. The time a counter hook takes is charged to no span,
    so it shows only in the traced-minus-plain wall time.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._children = []

    def peak(self, metric, value):
        self.counts[metric] = max(self.counts[metric], value)

    def wrap(self, fn, metric, hook):
        children = self._children
        clock = time.perf_counter

        def span(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                inner = children.pop()
                self.self_s[metric] += clock() - t0 - inner
            if hook is not None:
                hook(self, result, *args)
            if children:
                children[-1] += clock() - t0
            return result

        return span

    @contextlib.contextmanager
    def installed(self):
        undo = []
        for owner, name, metric, hook in LAYERS:
            original = getattr(owner, name)
            span = self.wrap(original, metric, hook)
            homes = [owner] if isinstance(owner, type) else [
                m for m in MODULES if getattr(m, name, None) is original]
            for home in homes:
                setattr(home, name, span)
                undo.append((home, name, original))
        try:
            yield self
        finally:
            for home, name, original in reversed(undo):
                setattr(home, name, original)


# --------------------------------------------------------------------- jobs

def run_job(argv, expected):
    """Run one CLI call; return (seconds, ok). A traceback counts as a failure."""
    out = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - t0
    lines = out.getvalue().splitlines()
    ok = code == 0 and lines == expected
    if not ok:
        print(f"job failed: exit {code}, stdout {lines!r}, expected {expected!r}",
              file=sys.stderr)
    return seconds, ok


def median_of(samples, key):
    return statistics.median(key(s) for s in samples)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(EXPECTED))
    p.add_argument("--job", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    argv, expected = json.loads(args.job)["argv"], EXPECTED[args.workload]

    attempted = failed = 0

    def job_once(tracer=None):
        """Run one job between two reference timings (see speed.py)."""
        nonlocal attempted, failed
        attempted += 1
        before = reference_seconds()
        if tracer is None:
            seconds, ok = run_job(argv, expected)
        else:
            with tracer.installed():
                seconds, ok = run_job(argv, expected)
        reference = (before + reference_seconds()) / 2
        failed += not ok
        return {"raw": seconds, "reference": reference,
                "scale": REFERENCE_S / reference, "tracer": tracer}

    job_once()
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) < MIN_JOBS or time.perf_counter() - start < args.seconds:
        plain.append(job_once())
        if args.trace:
            traced.append(job_once(Tracer()))

    def wall(job):
        return job["raw"] * job["scale"]

    result = {"attempted": attempted, "failed": failed, "jobs": len(plain),
              "raw_wall_s": median_of(plain, lambda j: j["raw"]),
              "reference_s": median_of(plain, lambda j: j["reference"])}
    if args.trace:
        layers = {}
        for name in sorted({k for j in traced for k in j["tracer"].self_s}):
            layers[name] = median_of(
                traced, lambda j: j["tracer"].self_s.get(name, 0.0) * j["scale"])
        for name in sorted({k for j in traced for k in j["tracer"].counts}):
            layers[name] = statistics.median_low(
                j["tracer"].counts.get(name, 0) for j in traced)
        layers["trace.overhead_s"] = median_of(traced, wall) - median_of(plain, wall)
        result["layers"] = layers
    else:
        result["wall_s"] = median_of(plain, wall)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
