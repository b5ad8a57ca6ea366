"""Show whether two revisions of klgauss write the same outputs.

Usage::

    python tools/identity.py --parent REV [--change REV|worktree]

Each side is the ``src/`` of a revision, taken with ``git archive``, or the
working tree's own ``src/`` for ``worktree`` (the default ``--change``).
On each of the five presets, both sides run ``klgauss compare --seed 2``
with ``optimize.iterations = 300`` and ``chain.steps = 3000``, then the
informed ``klgauss sample --seed 2`` on the fit it left in the same
directory, each side in a fresh ``python -B`` with the BLAS pools pinned to
one thread. The tool then prints, per file that a side's
``manifest_compare.json`` or ``manifest_sample.json`` lists, whether the
two sides wrote it equal or differing. For a file that differs it also
prints the largest relative change per column of a CSV, or per entry of
``final_spec.txt``; a column it does not name is equal. The exit status is
0 when every file is equal, 1 when some file differs and 2 when a side
could not be taken or run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PRESETS = ("scalar", "darcy-noise0.1", "darcy-noise0.01", "diffusion-constant",
           "diffusion-variable")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

MANIFESTS = ("manifest_compare.json", "manifest_sample.json")

# one compare run and one informed sample run: argv is SRC PRESET ITERATIONS STEPS WORKDIR
_RUN = """
import sys
src, preset, iterations, steps, work = sys.argv[1:]
sys.path.insert(0, src)
from klgauss import cli
if not cli.__file__.startswith(src):
    sys.exit(f"klgauss imported from {cli.__file__}, not from {src}")
cfg = cli.load_config(preset)
cfg.setdefault("optimize", {})["iterations"] = int(iterations)
cfg.setdefault("chain", {})["steps"] = int(steps)
with open(work + "/config.ini", "w") as fh:
    fh.write(cli.canonical_config_text(cfg))
for command in ("compare", "sample"):
    code = cli.main([command, "--config", work + "/config.ini", "--seed", "2",
                     "--out", work + "/out"])
    if code != 0:
        sys.exit(f"{command} exited {code}")
"""


def _git(cwd: Path, *args: str) -> bytes:
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True)
    if done.returncode != 0:
        raise RuntimeError(f"git {args[0]} failed: {done.stderr.decode().strip()}")
    return done.stdout


def side_source(root: Path, rev: str, dest: Path) -> Path:
    """The ``src/`` directory of ``rev``, extracted under ``dest``, or the
    working tree's for ``worktree``."""
    if rev == "worktree":
        return root / "src"
    archive = _git(root, "archive", "--format=tar", rev, "src")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_commands(src: Path, preset: str, iterations: int, steps: int, work: Path) -> Path:
    """Run ``compare``, then ``sample`` on its fit, in a fresh interpreter;
    returns their output directory."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-B", "-c", _RUN, str(src.resolve()), preset,
                           str(iterations), str(steps), str(work)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"compare and sample on {preset} with {src} exited "
                           f"{done.returncode}:\n"
                           + done.stderr[-2000:])
    return work / "out"


def _columns(path: Path) -> dict[str, list[str]]:
    """A CSV's columns by header, or a ``key = v1,v2,...`` file's entries by key."""
    text = path.read_text()
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            return {}
        return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}
    entries = (line.partition("=") for line in text.splitlines() if "=" in line)
    return {key.strip(): value.strip().split(",") for key, _, value in entries}


def _relative(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return 0.0 if a == b else math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def relative_changes(parent: Path, change: Path) -> dict[str, float]:
    """Largest relative change of each column (or entry) that differs between
    two files; ``inf`` for text that differs or a column of another length."""
    a, b = _columns(parent), _columns(change)
    out = {}
    for name in list(a) + [name for name in b if name not in a]:
        x, y = a.get(name), b.get(name)
        if x is None or y is None or len(x) != len(y):
            out[name] = math.inf
            continue
        worst = max((_relative(p, q) for p, q in zip(x, y)), default=0.0)
        if worst > 0:
            out[name] = worst
    return out


def compare_outputs(parent: Path, change: Path) -> list[tuple[str, str]]:
    """``(file, verdict)`` for every file either side's compare or sample
    manifest lists."""
    listed = [{name: digest for manifest in MANIFESTS
               for name, digest in json.loads((out / manifest).read_text())["outputs"].items()}
              for out in (parent, change)]
    verdicts = []
    for name in sorted(set(listed[0]) | set(listed[1])):
        if name not in listed[0] or name not in listed[1]:
            side = "parent" if name not in listed[0] else "change"
            verdicts.append((name, f"differs: not written by the {side}"))
        elif listed[0][name] == listed[1][name]:
            verdicts.append((name, "equal"))
        else:
            changes = relative_changes(parent / name, change / name)
            detail = ", ".join(f"{col} {rel:.2g}" for col, rel in changes.items())
            verdicts.append((name, "differs" + (f": largest relative change {detail}"
                                                if detail else "")))
    return verdicts


def _run(args) -> int:
    """Run every preset on both sides and print the verdicts; returns the
    number of files that differ."""
    root = Path(_git(Path(__file__).parent, "rev-parse", "--show-toplevel").decode().strip())
    differ = 0
    with tempfile.TemporaryDirectory(prefix="klgauss-identity-") as tmp:
        tmp = Path(tmp)
        sources = {side: side_source(root, rev, tmp / side)
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        for preset in args.preset or PRESETS:
            outs = [run_commands(sources[side], preset, args.iterations, args.steps,
                                 tmp / "runs" / preset / side) for side in ("parent", "change")]
            verdicts = compare_outputs(*outs)
            same = sum(verdict == "equal" for _, verdict in verdicts)
            differ += len(verdicts) - same
            print(f"{preset}: {same} of {len(verdicts)} files equal")
            for name, verdict in verdicts:
                print(f"  {name}: {verdict}")
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision, or worktree")
    parser.add_argument("--change", default="worktree", help="revision, or worktree (default)")
    parser.add_argument("--preset", action="append", choices=PRESETS,
                        help="run only this preset (repeatable; default all five)")
    parser.add_argument("--iterations", type=int, default=300)
    parser.add_argument("--steps", type=int, default=3000)
    args = parser.parse_args(argv)

    try:
        differ = _run(args)
    except RuntimeError as exc:  # a git command or a compare run failed
        print(f"identity: error: {exc}", file=sys.stderr)
        return 2
    print(f"identity: {'every file equal' if not differ else f'{differ} file(s) differ'} "
          f"({args.parent} against {args.change}, {args.iterations} iterations, "
          f"{args.steps} steps)")
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main())
