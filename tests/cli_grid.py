"""The CLI grid that byte-identity checks compare, and the census's grid.

The grid generates 72 nets of revolution, H in {0, 0.3, 0.5, 1} x kappa in
{-1, 0, 1} x steps in {1, 6, 24} x angles in {8, 32}.  On each net it runs
``verify --lcq`` (the ambient vector Q of its kappa), ``verify``,
``classify``, ``export`` in its kappa's model and the five transforms of
:data:`TRANSFORMS`, then ``verify`` on each transform that wrote a file.
Every run calls ``isothermic.cli.main`` in this process.

    python tests/cli_grid.py DIR

prints one JSON object that maps each run (its arguments, joined by spaces)
to its exit code, stdout, stderr and the sha256 of each file it wrote
under DIR.  A written transform records its input path (``derived_from``),
so two trees compare only when both write into the same DIR.

    python tests/cli_grid.py --diff OLD.json NEW.json

compares two such objects: it prints each run whose exit code, stdout,
stderr or file digests differ, then their count, and exits 1 if any differ.

    python tests/cli_grid.py --against REV DIR

extracts ``git archive REV src`` to a temporary directory and runs the grid
into DIR in a child process with that ``src`` first on ``sys.path``, then
runs it in this tree into the same DIR, and compares the two as ``--diff``
does.  An unknown REV is a usage error (exit 1).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile

H_VALUES = (0.0, 0.3, 0.5, 1.0)
KAPPAS = (-1.0, 0.0, 1.0)
STEPS = (1, 6, 24)
ANGLES = (8, 32)
MODELS = {-1.0: "poincare", 0.0: "euclidean", 1.0: "stereographic"}
TRANSFORMS = {
    "calapso": ["--mu", "0.05"],
    "darboux": ["--mu", "0.4", "--start", "3,0.5,0.2"],
    "backlund": ["--mu", "-1"],
    "bianchi": ["--mu1", "-1", "--mu2", "-0.5"],
    "christoffel": [],
}


def nets(steps=STEPS):
    """(H, kappa, steps, angles) of every net of the grid, restricted to the
    given meridian steps."""
    return list(itertools.product(H_VALUES, KAPPAS, steps, ANGLES))


def name(H, kappa, steps, angles) -> str:
    return f"H{H:g}_k{kappa:g}_s{steps}_a{angles}"


def generate_args(H, kappa, steps, angles, path) -> list:
    return ["generate", "revolution", "--H", f"{H:g}", "--kappa", f"{kappa:g}",
            "--steps", str(steps), "--angles", str(angles), "-o", str(path)]


def transform_args(kind, path, out) -> list:
    return ["transform", kind, *TRANSFORMS[kind], str(path), "-o", str(out)]


def run(args) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    from isothermic.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def lcq(kappa) -> str:
    """The --lcq argument of a net of curvature kappa: its ambient vector Q."""
    from isothermic.minkowski import embed_lorentz3
    from isothermic.revolution import default_space_form

    return "Q=" + ",".join(repr(float(x)) for x in embed_lorentz3(default_space_form(kappa)))


def grid(root) -> dict:
    """Every run of the grid into the directory ``root``, in order."""
    results = {}

    def record(args, written=()):
        for path in written:  # a stale file of an earlier run must not count
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        code, out, err = run(args)
        files = {}
        for path in written:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
        results[" ".join(args)] = {"exit": code, "stdout": out, "stderr": err, "files": files}
        return bool(files)

    for params in nets():
        base = os.path.join(root, name(*params))
        net = base + ".json"
        if not record(generate_args(*params, net), [net]):
            continue
        kappa = params[1]
        record(["verify", net, "--lcq", lcq(kappa)])
        record(["verify", net])
        record(["classify", net])
        record(["export", net, "--model", MODELS[kappa], "-o", base + ".obj"],
               [base + ".obj", base + ".obj.report.txt"])
        for kind in TRANSFORMS:
            out = f"{base}.{kind}.json"
            if record(transform_args(kind, net, out), [out]):
                record(["verify", out])
    return results


def diff(old_path, new_path) -> int:
    """Print each run of two results of :func:`grid`, read from JSON files,
    that differs; see :func:`compare`."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    return compare(old, new, old_path, new_path)


def compare(old, new, old_name, new_name) -> int:
    """Print each run of two results of :func:`grid` that differs, with the
    fields that differ (a run that only one result holds differs), then
    their count; 1 if any run differs, else 0."""
    runs = {**old, **new}
    differ = [args for args in runs if old.get(args) != new.get(args)]
    for args in differ:
        if args not in old or args not in new:
            print(f"{args}: only in {new_name if args in new else old_name}")
        else:
            print(f"{args}: " + ", ".join(k for k in new[args] if old[args].get(k) != new[args][k]))
    print(f"{len(differ)} of {len(runs)} runs differ")
    return 1 if differ else 0


#: The directory of this file, which the child of :func:`against` imports it from.
TESTS = os.path.dirname(os.path.abspath(__file__))

#: The child of :func:`against`: argv is the old ``src``, :data:`TESTS` and the grid's DIR.
CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import cli_grid; "
         "json.dump(cli_grid.grid(sys.argv[3]), sys.stdout)")


def against(rev, path) -> int:
    """:func:`compare` the grid of the ``src`` of git revision ``rev``, run
    in a child process, with the grid of this tree, both into the directory
    ``path``; 1 if ``rev`` is unknown or any run differs."""
    archive = subprocess.run(["git", "-C", os.path.dirname(TESTS), "archive", rev, "src"],
                             capture_output=True)
    if archive.returncode:
        print(f"usage: no src at revision {rev!r}: {archive.stderr.decode().strip()}",
              file=sys.stderr)
        return 1
    root = _directory(path)
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        child = subprocess.run([sys.executable, "-c", CHILD, os.path.join(tmp, "src"), TESTS,
                                root], stdout=subprocess.PIPE, text=True, check=True)
    return compare(json.loads(child.stdout), grid(root), rev, "this tree")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(*argv[1:])
    if len(argv) == 3 and argv[0] == "--against":
        return against(*argv[1:])
    if len(argv) != 1:
        print("usage: python tests/cli_grid.py DIR | --diff OLD.json NEW.json"
              " | --against REV DIR", file=sys.stderr)
        return 1
    json.dump(grid(_directory(argv[0])), sys.stdout, indent=1)
    print()
    return 0


def _directory(path) -> str:
    """The absolute path of the grid's directory, made if missing."""
    root = os.path.abspath(path)
    os.makedirs(root, exist_ok=True)
    return root


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "src"))
    sys.exit(main())
