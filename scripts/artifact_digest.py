#!/usr/bin/env python3
"""Print a SHA-256 of every CLI artifact on fixed inputs, one line per file.

Writes two inputs with ``save_csv`` (600 rows with three covariates and tied
times, and 500 covariate-free rows drawn from the no-covariate design), runs
``fit``, ``breslow`` (fitted and with ``--beta``), ``influence --write-xi``,
``decompose``, the three ``rate-lab`` claims at ``--n 200,400 --reps 2``
and one ``rate-lab --config`` run (a file setting all eight keys, plus a
``--seed`` flag that overrides the file's) through ``cli.main``, and prints
``sha256  <command>/<file>`` for every file written and for each command's
stdout, sorted.  Two checkouts produce byte-identical artifacts exactly when
their outputs diff clean:

    python scripts/artifact_digest.py > a.txt   # in each checkout
    diff a.txt b.txt
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from breslow_lab import SurvivalDataset, generate_dataset, no_covariate_truth, save_csv
from breslow_lab.cli import main as cli_main


def tied_p3() -> SurvivalDataset:
    """Three covariates (one binary); times and censoring rounded to weeks."""
    rng = np.random.default_rng(2015)
    n = 600
    z = np.column_stack([rng.random(n) < 0.5, rng.normal(size=(n, 2))]).astype(float)
    event_t = rng.exponential(1.0 / np.exp(z @ [0.7, 0.5, -0.3]))
    censor_t = rng.uniform(0.0, 3.0, n)
    times = np.ceil(np.minimum(event_t, censor_t) * 52.0) / 52.0
    return SurvivalDataset(times, event_t <= censor_t, z)


# Every config key, each away from its default; ``--seed 6`` overrides the seed.
LAB_CONFIG = """\
truth = reference
claim = theorem
sample_sizes = 200,400
replications = 2
a_n = 1/sqrt(log n)
seed = 5
grid_points = 64
M_policy = 0.2
"""


def _commands(tied: str, p0: str, lab_cfg: str) -> dict:
    rate_lab = ["rate-lab", "--n", "200,400", "--reps", "2", "--seed", "5"]
    return {
        "fit-tied": ["fit", "--input", tied],
        "breslow-tied": ["breslow", "--input", tied],
        "breslow-tied-beta": ["breslow", "--input", tied, "--beta", "0.5,0.3,-0.2"],
        "influence-tied": ["influence", "--input", tied, "--write-xi", "--grid-points", "32"],
        "breslow-p0": ["breslow", "--input", p0],
        "breslow-p0-beta": ["breslow", "--input", p0, "--beta", ""],
        "influence-p0": ["influence", "--input", p0, "--write-xi", "--grid-points", "32"],
        "decompose-p0": ["decompose", "--input", p0, "--truth", "no-covariates",
                         "--grid-points", "32"],
        "decompose-reference": ["decompose", "--truth", "reference", "--n", "600",
                                "--seed", "3", "--grid-points", "32"],
        **{f"rate-lab-{claim}": rate_lab + ["--claim", claim]
           for claim in ("lemma1", "lemma2", "theorem")},
        "rate-lab-config": ["rate-lab", "--config", lab_cfg, "--seed", "6"],
    }


def digest(work: Path) -> list[str]:
    """Write the inputs into ``work`` and run every command with its own
    output directory there; the sorted digest lines."""
    tied, p0, lab_cfg = work / "tied_p3.csv", work / "p0.csv", work / "lab.cfg"
    save_csv(tied_p3(), tied)
    save_csv(generate_dataset(no_covariate_truth(), 500, 11), p0)
    lab_cfg.write_text(LAB_CONFIG, encoding="utf-8")
    lines = []
    for name, argv in _commands(str(tied), str(p0), str(lab_cfg)).items():
        out = work / name
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv + ["--output-dir", str(out)])
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        files = {f"{name}/{p.relative_to(out)}": p.read_bytes()
                 for p in out.rglob("*") if p.is_file()}
        files[f"{name}/stdout"] = stdout.getvalue().encode()
        lines += [f"{hashlib.sha256(data).hexdigest()}  {label}" for label, data in files.items()]
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digest(Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(run())
