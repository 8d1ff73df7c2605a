#!/usr/bin/env python3
"""Record the reference outputs the benchmark's correctness gate compares to.

Runs every op seed of each workload's pool once and writes
``perfbench/refs/<workload>.json``, mapping op seed to the summary the gate
checks.  Run it from the repository root only at a commit whose outputs are
trusted (the references in the repository were recorded at the commit that
introduced the benchmark):

    python3 perfbench/record_refs.py [workload ...]
"""

import json
import shutil
import sys
import tempfile

import run


def record(wl, workdir) -> dict:
    seeds = list(range(wl.pool))
    state = wl.setup(seeds, workdir)
    refs = {}
    for k, seed in enumerate(seeds):
        out, args = wl.prepare(state, k)
        try:
            refs[str(seed)] = wl.collect(out, wl.execute(args))["summary"]
        finally:
            if out is not None:
                shutil.rmtree(out, ignore_errors=True)
        print(f"{wl.name}: op seed {seed} recorded", file=sys.stderr)
    return refs


def main(names) -> int:
    run.import_package()
    import workloads

    workloads.REFS_DIR.mkdir(exist_ok=True)
    run.WORK_ROOT.mkdir(exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        workdir = tempfile.mkdtemp(dir=run.WORK_ROOT)
        try:
            refs = record(wl, run.Path(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = workloads.REFS_DIR / f"{name}.json"
        lines = [f"{json.dumps(seed)}: {json.dumps(refs[seed], sort_keys=True)}" for seed in refs]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    run.WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
