"""The perfbench tracer's hooks still resolve and still count, and its jobs still pass.

Traced benchmark runs look up every (owner, name) of perfbench/worker.py
LAYERS with getattr, and their counter hooks read program objects such as
a system's ranks. A rename or a storage change that breaks either would
otherwise show only when the benchmark runs, as would a change that breaks
perfbench/gen.py's imports or a job's exact stdout, so each workload's job
also runs here once. The worker and generator modules are imported as they
are, from perfbench/ on sys.path.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import helpers
from cubehom import cli, formats
from cubehom.cubset import standard_cube

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402
import worker  # noqa: E402


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_benchmark_job_prints_its_expected_stdout(tmp_path, workload):
    # one job per workload from seed 1's documents, run as the worker runs it
    argv = gen.generate(workload, 1, str(tmp_path))
    assert worker.run_job(argv, worker.EXPECTED[workload])[1]


def test_every_layer_resolves():
    for owner, name, metric, hook in worker.LAYERS:
        assert callable(getattr(owner, name, None)), (owner, name)
        assert hook is None or callable(hook), metric


@pytest.fixture
def documents(tmp_path):
    return {
        "square": write(tmp_path, "square.json", formats.cubical_set_to_data(standard_cube(2))),
        "square_table": write(tmp_path, "square-table.json",
                              formats.cubes_table_to_data(standard_cube(2).expand(3))),
        "const": write(tmp_path, "const.json", {"type": "constant-system", "rank": 2}),
        "cov": write(tmp_path, "cov.json", {"type": "constant-system", "rank": 1,
                                            "variance": "covariant"}),
        "z2": write(tmp_path, "z2.json", formats.category_to_data(helpers.cyclic2_monoid())),
        "z2_sign": write(tmp_path, "z2-sign.json", formats.diagram_to_data(helpers.sign_diagram())),
        "id_square": write(tmp_path, "id.json", formats.cubical_map_to_data(
            helpers.identity_map(helpers.squashed_square()))),
        "collapse": write(tmp_path, "collapse.json", formats.cubical_map_to_data(
            helpers.collapse_to_point(helpers.interval()))),
    }


# The table routes: homology picks its route from the system, the local one
# for the constant square, the generic one for the direct image of the
# interval to a point. A constant system on --set takes the generator route
# and builds no table, so the local job runs comloc, which takes both table
# routes, and the cochain job reads the square's table.
JOBS = {
    "homology-local": (["compare", "--contract", "comloc", "--set", "square", "--system",
                        "const", "--max-dim", "2"],
                       ["cli.other_s", "coeff.system_s", "homcalc.normalize_local_s",
                        "zlinalg.eliminate_s"],
                       ["cubset.cubes", "coeff.total_rank", "homcalc.chain_rank",
                        "homcalc.boundary_nnz", "formats.input_bytes"]),
    "homology-generic": (["compare", "--contract", "dirhomol", "--map", "collapse",
                          "--system", "const", "--max-dim", "1"],
                         ["coeff.system_s", "homcalc.normalize_generic_s"],
                         ["coeff.total_rank", "homcalc.raw_rank_max", "homcalc.chain_rank"]),
    "cohomology": (["cohomology", "--table", "square_table", "--system", "cov", "--max-dim", "2"],
                   ["homcalc.cochain_s"],
                   ["coeff.total_rank", "homcalc.chain_rank", "homcalc.boundary_nnz"]),
    "nerve": (["nerve", "--category", "z2", "--truncate", "2"],
              ["catalg.nerve_s"],
              ["catalg.nerve_cubes"]),
    "fiber": (["fiber", "--map", "id_square", "--cube", "e@x1", "--max-dim", "1"],
              ["cubset.fiber_s"],
              ["cubset.fibers", "cubset.cubes"]),
    # the criterion reads each fiber's cells and builds no fiber table or system
    "fiber-criterion": (["fiber-criterion", "--map", "id_square", "--max-dim", "1"],
                        ["zlinalg.eliminate_s"],
                        ["cubset.cubes"]),
}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_traced_job_fills_its_counters(documents, job):
    argv, spans, counters = JOBS[job]
    argv = [documents.get(a, a) for a in argv]
    tracer = worker.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    for metric in spans:
        assert tracer.self_s[metric] > 0, metric
    for metric in counters:
        assert tracer.counts[metric] > 0, metric


def test_hooks_reach_commands_after_the_parser_is_built(documents):
    # main builds its parser once per process, and a traced job follows an
    # untraced warm-up one: the parser names cat-homology's function, so the
    # hook installed in between still times it
    argv = ["cat-homology", "--category", documents["z2"], "--diagram", documents["z2_sign"],
            "--max-dim", "3"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        tracer = worker.Tracer()
        with tracer.installed():
            assert cli.main(argv) == 0
    assert tracer.self_s["catalg.string_s"] > 0
