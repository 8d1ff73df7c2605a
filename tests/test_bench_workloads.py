"""The benchmark's calls into the package still run and still match.

``perfbench/workloads.py`` drives the package through its public API
(``a_n_curve(...).values_at``, ``.curve.cumulative_values``, ``cli.main``
and more).  For every workload this runs the first op of workload seed 1
the way ``perfbench/run.py`` does (set-up, prepare, execute, collect) and
checks it against the workload's recorded reference, so an API change that
would make every benchmark op fail fails the suite first.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _workloads()


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_first_op_matches_reference(name, tmp_path):
    wl = BENCH.WORKLOADS[name]
    state = wl.setup(wl.op_seeds(1), tmp_path)
    out, args = wl.prepare(state, 0)
    result = wl.collect(out, wl.execute(args))
    ref = BENCH.load_refs(name)[str(wl.op_seed(state, 0))]
    assert wl.check(result, ref) == []
