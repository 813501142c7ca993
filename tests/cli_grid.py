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
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys

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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tests/cli_grid.py DIR", file=sys.stderr)
        return 1
    root = os.path.abspath(argv[0])
    os.makedirs(root, exist_ok=True)
    json.dump(grid(root), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    sys.exit(main())
