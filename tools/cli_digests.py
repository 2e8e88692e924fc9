"""SHA-256 digests of the CLI's output on a fixed set of 88 commands.

Each command runs as a fresh ``python -m edgedist.cli`` process from
the ``src/`` of the checkout that holds this script, and prints one
line:

    sha256(stdout) sha256(stderr) exit-code command

Usage:

    python tools/cli_digests.py CACHE_DIR > digests.txt

CACHE_DIR becomes ``XDG_CACHE_HOME``: an empty directory gives a cold
solution cache, a second run on it a warm one.  The commands run in a
temporary directory that holds the sample CSV ``percentiles`` reads,
under a relative path, so the ``# flags:`` headers do not depend on
where the checkout is.  To compare two checkouts, run a copy of this
script from the tools/ folder of each and diff the outputs.

The set: ``table`` as a grid, at one point (``--s``) and as JSON for
beta 1, 2, 4 and m = 1, 2, 3, 1..4, a wide grid per beta from -18,
whose points left of -13.5 read the far solve, ``--tw-convention``, a
row of the default grid asked alone (-8.5 at beta 4, m = 3), a point
left of -10 (-11 at beta 2) and two points left of -13.5 (-15 at
beta 2, m = 1, 2 and -20 at beta 4, m = 3, as JSON); ``moments`` per
beta at m = 1, 1..2, 1..4 and as JSON; the four ``verify`` checks as
CSV and JSON; ``simulate`` (GOE, GUE, GSE) and ``wishart`` with
``--percentiles``; ``percentiles`` at 0.5, 0.9, 0 and 1; fifteen usage
errors, which exit 2, among them a single rep (``simulate --reps 1``),
Wishart's ``--rows`` and ``--cols`` given to GOE, ``--n`` given to
Wishart, an ``--s-step`` that does not divide the range, a point left
of -32, where the solve would fail (``table --beta 2 --s -40``), the
same bound in the Tracy-Widom units (``table --beta 4 --tw-convention
--s -23``) and a point right of 60, where the Airy tails end (``table
--beta 2 --s 61``).  The last two ask for F_4(s, 4), which the CLI
refuses: a GSE ``--top-k 4`` percentile report and ``table --beta 4
--m 4 --s -9``.  The ``table`` and ``moments`` commands above whose m
list holds 4 at beta 4 exit 2 for the same reason.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
SAMPLES = "samples.csv"


def commands():
    cmds = []
    for beta in (1, 2, 4):
        for m in ("1", "2", "3", "1,2,3,4"):
            cmds += [f"table --beta {beta} --m {m}",
                     f"table --beta {beta} --m {m} --s -2.5",
                     f"table --beta {beta} --m {m} --s-min -6 --s-max 3 "
                     f"--s-step 0.25 --json"]
        cmds.append(f"table --beta {beta} --m 1,2 --s-min -18 --s-max 9.5 "
                    f"--s-step 0.05")
    cmds += ["table --beta 4 --m 1,2 --tw-convention",
             "table --beta 4 --s -2.306885 --tw-convention",
             "table --beta 4 --m 3 --s -8.5",
             "table --beta 2 --s -11",
             "table --beta 2 --m 1,2 --s -15",
             "table --beta 4 --m 3 --s -20 --json"]
    for beta in (1, 2, 4):
        cmds += [f"moments --beta {beta} --m {m}"
                 for m in ("1", "1,2", "1,2,3,4")]
        cmds.append(f"moments --beta {beta} --m 1,2 --json")
    for check in ("aj", "oracle", "asymptotics", "interlacing"):
        cmds += [f"verify --check {check}",
                 f"verify --check {check} --json"]
    sim = "--reps 20 --seed 7 --top-k 2 --percentiles 0.1,0.5,0.9"
    cmds += [f"simulate --ensemble goe --n 60 {sim}",
             f"simulate --ensemble gue --n 40 {sim}",
             f"simulate --ensemble gse --n 20 {sim}",
             f"wishart --rows 30 --cols 60 {sim}"]
    cmds += [f"percentiles --input {SAMPLES} --beta 1 --percentiles {p}"
             for p in ("0.5", "0.9", "0", "1")]
    cmds += ["table --beta 3",
             "table --beta 2 --m 5",
             "table --beta 2 --s-min 1 --s-max 0",
             "table --beta 2 --s-min 0 --s-max 1 --s-step 0.3",
             "table --beta 1 --tw-convention",
             "table --beta 2 --s -40",
             "table --beta 4 --tw-convention --s -23",
             "table --beta 2 --s 61",
             "moments --beta 2 --m 0",
             "simulate --ensemble goe --n 5 --reps 1",
             "simulate --ensemble goe --n 20 --rows 100 --cols 7 --reps 3",
             "simulate --ensemble wishart --n 20 --rows 10 --cols 5 "
             "--reps 3",
             "simulate --ensemble goe --n 50 --reps 20 --percentiles nan",
             "simulate --ensemble gse --n 20 --reps 20 --seed 7 --top-k 4 "
             "--percentiles 0.5",
             "table --beta 4 --m 4 --s -9"]
    return cmds


def write_samples(path):
    # 40 reps of the top two values, sorted, from a fixed seed
    rng = np.random.default_rng(2024)
    vals = -np.sort(-rng.normal(-1.5, 1.0, (40, 2)), axis=1)
    with open(path, "w") as fh:
        fh.write("rep,k,value\n")
        for rep, row in enumerate(vals):
            for k, v in enumerate(row, 1):
                fh.write(f"{rep},{k},{float(v)!r}\n")


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    env = dict(os.environ, PYTHONPATH=str(SRC),
               XDG_CACHE_HOME=os.path.abspath(argv[0]))
    with tempfile.TemporaryDirectory() as work:
        write_samples(os.path.join(work, SAMPLES))
        for cmd in commands():
            run = subprocess.run(
                [sys.executable, "-m", "edgedist.cli", *cmd.split()],
                cwd=work, env=env, capture_output=True)
            print(hashlib.sha256(run.stdout).hexdigest(),
                  hashlib.sha256(run.stderr).hexdigest(),
                  run.returncode, cmd, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
