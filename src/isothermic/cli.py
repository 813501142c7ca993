"""Command line interface.

Subcommands: generate, verify, transform, classify, export.  Exit codes:
0 on success, 2 when a verification fails (a :class:`errors.GeometryError`,
overflow, division by zero or an invalid operation in the arithmetic of
the command, which runs under ``numpy.errstate`` to raise, or a warning
that the warning filters turn into an error, as ``python -W error`` does;
the message names the command for all but the first), 1 on usage errors
(an input that cannot be read, an output that cannot be written, a number
that is not finite, a list of reals of the wrong length, and, without the
usage line, a closed standard output or sizes that cannot be allocated).
``generate`` prints each warning of the build that the warning filters let
through (the count of meridian steps across the infinity boundary) as one
line on stderr.  --tol sets the relative tolerance in a
:func:`tolerances.tolerance` scope around the command; without it, the
caller's scope holds.  No environment variable sets an option.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import warnings

import numpy as np

from .conserved import (
    classify_type,
    lcq_solve_grid,
    mean_curvature_data,
    normalize_top,
    pcq_verify,
)
from .errors import GeometryError
from .euclidean import EuclideanNet, christoffel, classify_cmc
from .minkowski import embed_lorentz3, euclidean_lift
from .nets import calapso, verify_isothermic
from .netfile import load_net, save_net
from .objexport import export_obj
from .revolution import (
    RotationProfile,
    build_revolution_cmc,
    closure_defect,
    default_space_form,
    find_seed_edge,
)
from .tolerances import Check, tolerance
from .transforms import (
    backlund_init,
    bianchi,
    calapso_pcq,
    darboux_propagate,
    pcq_backlund,
    pcq_darboux,
)

USAGE_ERROR = 1
VERIFY_FAILURE = 2


class UsageError(Exception):
    """An input file of a command cannot be read, its output file cannot be
    written, or a list of reals it takes holds anything but finite numbers
    or has the wrong length."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _finite(text: str) -> float:
    """The argparse type of every real flag: a finite float."""
    with contextlib.suppress(ValueError):
        if np.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"expected a finite number, not {text!r}")


def _parse_reals(text: str, flag: str, lengths, prefix: str = "") -> np.ndarray:
    """The finite reals of a list flag, of one of the allowed ``lengths``."""
    if prefix and text.startswith(prefix):
        text = text[len(prefix):]
    try:
        values = np.array([_finite(x) for x in text.replace(",", " ").split()])
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"cannot parse a list of finite reals from {text!r}: {exc}") from exc
    if len(values) not in lengths:
        raise UsageError(f"{flag} expects {' or '.join(map(str, lengths))} reals, "
                         f"not {len(values)}")
    return values


def _load(path):
    try:
        return load_net(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _cmd_generate(args) -> int:
    if args.angles < 2 or args.steps < 0:
        raise UsageError(f"need --angles at least 2 and --steps at least 0, "
                         f"not {args.angles} and {args.steps}")
    kappa = args.kappa
    Q3 = default_space_form(kappa)
    if args.seed_edge:
        try:
            with open(args.seed_edge) as fh:
                doc = json.load(fh)
            M0, M1 = (np.asarray(doc[key], dtype=float) for key in ("M0", "M1"))
            Q3 = np.asarray(doc["Q"], dtype=float) if "Q" in doc else Q3
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise UsageError(f"cannot read M0 and M1 from {args.seed_edge}: {exc!r}") from exc
        if any(x.shape != (3,) for x in (M0, M1, Q3)):
            raise UsageError(f"{args.seed_edge}: M0, M1 and Q need length 3, not shapes "
                             f"{M0.shape}, {M1.shape} and {Q3.shape}")
        branch = args.branch if args.branch is not None else 0
    else:
        M0, M1, auto_branch = find_seed_edge(Q3, args.H)
        branch = args.branch if args.branch is not None else auto_branch
    profile = RotationProfile.uniform(args.angles, 2.0 * np.pi / args.angles)
    with warnings.catch_warnings(record=True) as caught:  # as the caller's filters let them
        net, quantity = build_revolution_cmc(Q3, args.H, M0, M1, args.steps, profile,
                                             branch=branch)
    for w in caught:
        print(f"{args.prog}: warning: {w.message}", file=sys.stderr)
    H, kap = mean_curvature_data(quantity)
    metadata = {
        "construction": "revolution-cmc",
        "H": H,
        "kappa": kap,
        "steps": args.steps,
        "angles": args.angles,
        "branch": branch,
        "seed_M0": M0,
        "seed_M1": M1,
        "closure": closure_defect(net, profile),
    }
    save_net(args.output, net, [quantity], metadata)
    # + 0.0 turns -0.0 into 0.0, which prints as "0"
    print(f"wrote {args.output}: {net.domain.rows}x{net.domain.cols} net, "
          f"H={H + 0.0:.12g}, kappa={kap + 0.0:.12g}")
    return 0


def _cmd_verify(args) -> int:
    Q = _parse_reals(args.lcq, "--lcq", (5,), prefix="Q=") if args.lcq else None
    net, quantities, metadata = _load(args.net)
    report = verify_isothermic(net.lifts, strict=False)
    if not report.ok:
        print(f"FAIL isothermic: {report.check}")
        return VERIFY_FAILURE
    try:
        weight_residual = net.validate(report.cross_ratios)
    except GeometryError as exc:
        print(f"FAIL stored weights: {exc}")
        return VERIFY_FAILURE
    print(f"isothermic: ok (factorization residual {report.check.value:.3g}, "
          f"stored-weight residual {weight_residual:.3g})")
    code = 0
    for idx, cq in enumerate(quantities):
        vr = pcq_verify(net, cq)
        status = "ok" if vr.ok else "FAIL"
        print(f"conserved quantity {idx} (degree {cq.degree}): {status} "
              f"(residual {vr.value:.3g})")
        if not vr.ok:
            code = VERIFY_FAILURE
    if Q is not None:
        result = lcq_solve_grid(net, Q)
        if isinstance(result, Check):
            print(f"FAIL lcq: {result}")
            code = VERIFY_FAILURE
        else:
            H, kap = mean_curvature_data(normalize_top(result))
            print(f"lcq: ok, H={H:.12g}, kappa={kap:.12g}")
    return code


def _first_quantity(quantities, what):
    if not quantities:
        raise GeometryError(f"{what} needs a stored conserved quantity")
    return quantities[0]


def _cmd_transform(args) -> int:
    net, quantities, metadata = _load(args.net)
    out_quantities = []
    out_meta = {"derived_from": str(args.net), "transform": args.kind}

    if args.kind == "calapso":
        frame, transformed = calapso(net, args.mu)
        out_net = transformed
        out_quantities = [calapso_pcq(cq, frame) for cq in quantities]
        out_meta["mu"] = args.mu
    elif args.kind == "darboux":
        start = _parse_reals(args.start, "--start", (3, 5))
        if start.shape == (3,):
            start = euclidean_lift(start)
        transform = darboux_propagate(net, args.mu, start)
        out_net = transform.net()
        out_quantities = [pcq_darboux(cq, transform) for cq in quantities]
        out_meta["mu"] = args.mu
    elif args.kind == "backlund":
        cq = _first_quantity(quantities, "backlund")
        start = backlund_init(cq, args.mu, args.s)
        transform = darboux_propagate(net, args.mu, start)
        out_net = transform.net()
        out_quantities = [pcq_backlund(cq, transform)]
        out_meta["mu"] = args.mu
        out_meta["s"] = args.s
    elif args.kind == "christoffel":
        enet = EuclideanNet.from_isothermic(net)
        dual = christoffel(enet)
        out_net = dual.to_isothermic()
    elif args.kind == "bianchi":
        cq = _first_quantity(quantities, "bianchi")
        t1 = darboux_propagate(net, args.mu1, backlund_init(cq, args.mu1, args.s1))
        t2 = darboux_propagate(net, args.mu2, backlund_init(cq, args.mu2, args.s2))
        q1 = pcq_backlund(cq, t1)
        q2 = pcq_backlund(cq, t2)
        result = bianchi(net, t1, t2, (q1, q2))
        out_net = result.net
        out_quantities = [result.quantity]
        out_meta.update({"mu1": args.mu1, "mu2": args.mu2,
                         "quantity_gap": result.quantity_gap})
    else:  # pragma: no cover - argparse restricts choices
        raise GeometryError(f"unknown transform {args.kind}")

    save_net(args.output, out_net, out_quantities, out_meta)
    print(f"wrote {args.output}")
    return 0


def _cmd_classify(args) -> int:
    net, quantities, metadata = _load(args.net)
    report = classify_type(net, quantities)
    if report.spherical:
        print("type: 0 (spherical)")
        if report.span < 4:
            family = "pencil" if report.span == 3 else f"{4 - report.span}-parameter family"
            print(f"lifts span {report.span} dimensions: {family} of spheres, no unique sphere")
        elif report.sphere is not None:
            print("sphere vector:", " ".join(f"{x:.12g}" for x in report.sphere))
    elif report.min_degree is not None:
        extra = ", degenerate-top candidate present" if report.degenerate_present else ""
        print(f"type: <= {report.min_degree} relative to {report.verified} "
              f"verified candidate(s){extra}")
    else:
        print(f"type: unknown ({report.verified} verified candidate(s), "
              f"degenerate={report.degenerate_present})")
    for idx, cq in enumerate(quantities):
        if cq.degree == 1 and pcq_verify(net, cq).ok:
            try:
                label = classify_cmc(normalize_top(cq))
            except GeometryError:
                continue
            print(f"quantity {idx}: {label.label} (H={label.H:.12g}, "
                  f"kappa={label.kappa:.12g}, H^2+kappa={label.H * label.H + label.kappa:.12g})")
    return 0


def _cmd_export(args) -> int:
    net, quantities, metadata = _load(args.net)
    Q = None
    if args.Q:
        Q = _parse_reals(args.Q, "--Q", (3, 5))
    elif quantities:
        Q = quantities[0].constant
    elif isinstance(metadata.get("kappa"), (int, float)) and np.isfinite(metadata["kappa"]):
        Q = embed_lorentz3(default_space_form(float(metadata["kappa"])))
    if Q is None:
        raise GeometryError("no ambient vector available: pass --Q")
    if Q.shape == (3,):
        Q = embed_lorentz3(Q)
    flagged = export_obj(net, Q, args.model, args.output, clamp=args.clamp)
    print(f"wrote {args.output}: {net.domain.rows * net.domain.cols} vertices, "
          f"{(net.domain.rows - 1) * (net.domain.cols - 1)} quads, {len(flagged)} flagged")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="isothermic",
                     description="discrete isothermic nets and cmc constructions")
    parser.add_argument("--tol", type=float, default=None,
                        help="relative tolerance in (0, 1) (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct nets")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    rev = gen_sub.add_parser("revolution", help="cmc net of revolution")
    rev.add_argument("--H", type=_finite, required=True, help="mean curvature")
    rev.add_argument("--kappa", type=_finite, required=True, help="ambient curvature")
    rev.add_argument("--steps", type=int, default=6,
                     help="meridian steps beyond the seed edge, each direction")
    rev.add_argument("--angles", type=int, default=12, help="rotation samples")
    rev.add_argument("--branch", type=int, default=None, choices=(0, 1),
                     help="seed sphere branch")
    rev.add_argument("--seed-edge", default=None,
                     help="JSON file with M0, M1 (and optionally Q) in Lorentz 3-space")
    rev.add_argument("-o", "--output", required=True)
    rev.set_defaults(func=_cmd_generate, prog=rev.prog)

    ver = sub.add_parser("verify", help="verify a net file")
    ver.add_argument("net")
    ver.add_argument("--lcq", default=None, metavar="Q=...",
                     help="solve for a linear conserved quantity with this ambient vector")
    ver.set_defaults(func=_cmd_verify, prog=ver.prog)

    tra = sub.add_parser("transform", help="apply a transformation")
    tra_sub = tra.add_subparsers(dest="kind", required=True)

    cal = tra_sub.add_parser("calapso")
    cal.add_argument("--mu", type=_finite, required=True)
    dar = tra_sub.add_parser("darboux")
    dar.add_argument("--mu", type=_finite, required=True)
    dar.add_argument("--start", required=True,
                     help="start point (3 reals) or lift (5 reals)")
    bac = tra_sub.add_parser("backlund")
    bac.add_argument("--mu", type=_finite, required=True)
    bac.add_argument("--s", type=_finite, default=0.0,
                     help="rational parameter on the start circle")
    tra_sub.add_parser("christoffel")
    bia = tra_sub.add_parser("bianchi")
    bia.add_argument("--mu1", type=_finite, required=True)
    bia.add_argument("--mu2", type=_finite, required=True)
    bia.add_argument("--s1", type=_finite, default=0.0)
    bia.add_argument("--s2", type=_finite, default=0.5)
    for p in (cal, dar, bac, tra_sub.choices["christoffel"], bia):
        p.add_argument("net")
        p.add_argument("-o", "--output", required=True)
        p.set_defaults(func=_cmd_transform, prog=p.prog)

    cla = sub.add_parser("classify", help="classify a net file")
    cla.add_argument("net")
    cla.set_defaults(func=_cmd_classify, prog=cla.prog)

    exp = sub.add_parser("export", help="export an OBJ quad mesh")
    exp.add_argument("net")
    exp.add_argument("--model", required=True,
                     choices=("euclidean", "poincare", "stereographic"))
    exp.add_argument("--Q", default=None, help="ambient vector (3 or 5 reals)")
    exp.add_argument("--clamp", type=_finite, default=1e6)
    exp.add_argument("-o", "--output", required=True)
    exp.set_defaults(func=_cmd_export, prog=exp.prog)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as scope:
        if args.tol is not None:
            try:
                scope.enter_context(tolerance(args.tol))
            except ValueError as exc:
                parser.error(f"bad --tol: {exc}")
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                code = args.func(args)
            sys.stdout.flush()  # so that a closed stdout shows here, not at exit
            return code
        except BrokenPipeError as exc:  # the reader of stdout has gone
            with contextlib.suppress(OSError, ValueError):
                # nothing is left for the flush at exit to fail on
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            print(f"{parser.prog}: error: cannot write to standard output: {exc}",
                  file=sys.stderr)
            return USAGE_ERROR
        except MemoryError as exc:  # sizes the command cannot allocate
            print(f"{args.prog}: error: out of memory: {exc}", file=sys.stderr)
            return USAGE_ERROR
        except (UsageError, OSError) as exc:  # OSError: an output that cannot be written
            parser.print_usage(sys.stderr)
            print(f"{parser.prog}: error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        except (GeometryError, FloatingPointError, Warning) as exc:
            # a Warning arrives here when the warning filters turn it into an error
            command = "" if isinstance(exc, GeometryError) else f"{args.prog}: "
            print(f"verification error: {command}{exc}", file=sys.stderr)
            return VERIFY_FAILURE


if __name__ == "__main__":
    sys.exit(main())
