"""The perfbench tracer's hooks still resolve and still count.

Traced benchmark runs look up every (owner, name) of perfbench/worker.py
LAYERS with getattr, and their counter hooks read program objects such as
a system's ranks. A rename or a storage change that breaks either would
otherwise show only when the benchmark runs. The worker module is imported
as it is, from perfbench/ on sys.path.
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
from cubehom.zlinalg import IntMatrix

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import worker  # noqa: E402


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_every_layer_resolves():
    for owner, name, metric, hook in worker.LAYERS:
        assert callable(getattr(owner, name, None)), (owner, name)
        assert hook is None or callable(hook), metric


@pytest.fixture
def documents(tmp_path):
    return {
        "square": write(tmp_path, "square.json", formats.cubical_set_to_data(standard_cube(2))),
        "circle": write(tmp_path, "circle.json", formats.cubical_set_to_data(helpers.circle())),
        "const": write(tmp_path, "const.json", {"type": "constant-system", "rank": 2}),
        "cov": write(tmp_path, "cov.json", {"type": "constant-system", "rank": 1,
                                            "variance": "covariant"}),
        "monodromy": write(tmp_path, "monodromy.json", formats.local_system_to_data(
            1, "contravariant", {("e", 1, 0): IntMatrix.identity(1),
                                 ("e", 1, 1): IntMatrix.from_rows([[-1]])})),
        "z2": write(tmp_path, "z2.json", formats.category_to_data(helpers.cyclic2_monoid())),
        "id_square": write(tmp_path, "id.json", formats.cubical_map_to_data(
            helpers.identity_map(helpers.squashed_square()))),
    }


JOBS = {
    "homology-local": (["homology", "--set", "square", "--system", "const", "--max-dim", "2",
                        "--path", "local"],
                       ["cli.other_s", "coeff.system_s", "homcalc.normalize_local_s",
                        "zlinalg.eliminate_s"],
                       ["cubset.cubes", "coeff.total_rank", "homcalc.chain_rank",
                        "homcalc.boundary_nnz", "formats.input_bytes"]),
    "homology-generic": (["homology", "--set", "circle", "--system", "monodromy",
                          "--max-dim", "1", "--path", "generic"],
                         ["coeff.system_s", "homcalc.normalize_generic_s"],
                         ["coeff.total_rank", "homcalc.raw_rank_max", "homcalc.chain_rank"]),
    "cohomology": (["cohomology", "--set", "square", "--system", "cov", "--max-dim", "2"],
                   ["homcalc.cochain_s"],
                   ["coeff.total_rank", "homcalc.chain_rank", "homcalc.boundary_nnz"]),
    "nerve": (["nerve", "--category", "z2", "--truncate", "2"],
              ["catalg.nerve_s"],
              ["catalg.nerve_cubes"]),
    "fiber-criterion": (["fiber-criterion", "--map", "id_square", "--max-dim", "1"],
                        ["cubset.fiber_s"],
                        ["cubset.fibers", "cubset.cubes", "coeff.total_rank"]),
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
