"""The three workloads: their inputs, their nine operations, and the checks
applied to every distinct output.

Each operation is the set of library calls one CLI subcommand makes:

    generate     generate revolution (library: catalog / build_revolution_cmc)
    verify       verify_isothermic, IsothermicNet.validate, pcq_verify, lcq_solve_grid
    classify     classify_type, pcq_verify, classify_cmc
    export       export_obj in the chart matching the sign of kappa
    calapso      calapso, calapso_pcq
    darboux      darboux_propagate from a Euclidean start point, pcq_darboux
    backlund     backlund_init, darboux_propagate, pcq_backlund
    bianchi      two Backlund transforms, bianchi
    christoffel  EuclideanNet.from_isothermic, christoffel

Library modules are looked up on every call (``self.lib.nets.calapso``), so
the tracing wrappers installed later in a run are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

import checks

OPS = ("generate", "verify", "classify", "export", "calapso", "darboux",
       "backlund", "bianchi", "christoffel")

MODULES = ("minkowski", "grids", "nets", "conserved", "polyvec", "transforms",
           "euclidean", "revolution", "netfile", "objexport", "cli", "catalog",
           "errors", "tolerances")


class Library:
    """The ``isothermic`` modules of the current import."""

    def __init__(self):
        import isothermic  # noqa: F401
        import isothermic.catalog  # noqa: F401
        import isothermic.cli  # noqa: F401

        for name in MODULES:
            setattr(self, name, sys.modules[f"isothermic.{name}"])


def space_form(kappa: float):
    """Ambient vector of curvature kappa: (Lorentz 3-vector, 5-vector, chart)."""
    if kappa == 0.0:
        q3, model = np.array([1.0, 0.0, -1.0]), "euclidean"
    elif kappa < 0.0:
        q3, model = np.array([0.0, 0.0, np.sqrt(-kappa)]), "poincare"
    else:
        q3, model = np.array([np.sqrt(kappa), 0.0, 0.0]), "stereographic"
    q5 = np.array([q3[0], q3[1], 0.0, 0.0, q3[2]])
    return q3, q5, model


def cmc_label(H: float, kappa: float) -> str:
    """The curvature class of a cmc net (H, kappa)."""
    inv = H * H + kappa
    if kappa == 0.0:
        return "minimal-euclidean" if H == 0.0 else "cmc-euclidean"
    if inv == 0.0 and kappa < 0.0:
        return "horospherical"
    return "cmc-spaceform(" + ("+" if inv > 0 else "-" if inv < 0 else "0") + ")"


def timelike_interval(H: float, kappa: float):
    """Roots of |P(mu)|^2 = mu^2 - 2 H mu - kappa for a normalized linear
    quantity; P(mu) is timelike strictly between them (None: never)."""
    disc = H * H + kappa
    if disc < 0.0:
        return None
    r = np.sqrt(disc)
    return H - r, H + r


@dataclass
class Item:
    """One net of a workload and the parameters its operations use."""

    label: str
    H: float
    kappa: float
    rows: int
    cols: int
    params: dict
    net: object = None
    quantity: object = None
    paths: dict = field(default_factory=dict)

    @property
    def vertices(self) -> int:
        return self.rows * self.cols


class OperationFailed(Exception):
    """A CLI command exited with a nonzero code."""


def digest(obj) -> bytes:
    """Content hash of an operation's output (arrays, numbers, strings and
    the attributes of plain objects)."""
    h = hashlib.sha256()
    seen = set()

    def walk(x):
        if isinstance(x, np.ndarray):
            h.update(str((x.dtype, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (bool, int, float, complex, str, bytes, np.generic)) or x is None:
            h.update(repr(x).encode())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                walk(y)
            h.update(b"]")
        elif isinstance(x, dict):
            for k in sorted(x, key=repr):
                h.update(repr(k).encode())
                walk(x[k])
        elif id(x) not in seen and hasattr(x, "__dict__"):
            seen.add(id(x))
            h.update(type(x).__name__.encode())
            walk(vars(x))
        else:
            h.update(type(x).__name__.encode())

    walk(obj)
    return h.digest()


def _draw_parameters(rng, H: float, kappa: float, weights) -> dict:
    """Spectral parameters and start data, drawn from the seed.

    Backlund and Bianchi parameters lie below the interval where P(mu) is
    timelike, Darboux parameters in [0.3, 0.5] (on the kappa < 0 nets,
    larger ones make darboux_propagate raise on some draws), and every
    parameter keeps |1 - mu a| >= 0.2 on all edge weights a (away from the
    poles)."""
    interval = timelike_interval(H, kappa)
    low = min(0.0, interval[0]) if interval is not None else 0.0

    def draw(lo, hi):
        for _ in range(1000):
            mu = float(rng.uniform(lo, hi))
            if np.all(np.abs(1.0 - mu * weights) >= 0.2):
                return mu
        raise RuntimeError("no admissible spectral parameter")

    def draw_pair(lo, hi):
        for _ in range(1000):
            mu1, mu2 = draw(lo, hi), draw(lo, hi)
            if abs(mu1 - mu2) >= 0.25:
                return mu1, mu2
        raise RuntimeError("no admissible pair of spectral parameters")

    mu1, mu2 = draw_pair(low - 1.5, low - 0.5)
    return {
        "calapso_mu": 0.2,
        "darboux_mu": draw(0.3, 0.5),
        "darboux_start": [3.0, 0.5, 0.2] + rng.uniform(-0.3, 0.3, 3),
        "backlund_mu": draw(low - 1.5, low - 0.5),
        "backlund_s": float(rng.uniform(0.0, 0.5)),
        "bianchi_mu1": mu1,
        "bianchi_mu2": mu2,
        "bianchi_s1": float(rng.uniform(0.0, 0.3)),
        "bianchi_s2": float(rng.uniform(0.4, 0.7)),
    }


class Workload:
    """What a run needs of a workload: its ``items``, which of them each
    operation runs on (``items_for``) and how often per sample
    (``repeats``), ``run``, ``digest`` and ``check`` of one operation on one
    item, the ``known_faults`` and ``close``."""

    name = ""
    known_faults: frozenset = frozenset()
    #: Passes per timed sample of the short operations, so that a sample
    #: lasts 0.05 s or more and holds a few dozen probes (see timing.py).
    repeats: dict = {}

    def __init__(self, lib: Library, seed: int, workdir: str):
        self.lib = lib
        self.rng = np.random.default_rng(seed)
        self.workdir = tempfile.mkdtemp(prefix=self.name + "-", dir=workdir)
        self.items: list[Item] = []

    @property
    def vertices(self) -> int:
        return sum(item.vertices for item in self.items)

    def items_for(self, op: str) -> list:
        """The items ``op`` runs on in every round."""
        return self.items

    def outputs(self, op: str, item: Item) -> tuple:
        """The files ``op`` writes for ``item``."""
        return ()

    def run(self, op: str, item: Item):
        # every pass writes new files, as a first export or transform does:
        # reopening a file for writing truncates it, and on ext4 the
        # truncation waits for the disk to finish writing out the previous
        # pass's content, which moved export_ms by 2x between runs
        for path in self.outputs(op, item):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return getattr(self, "op_" + op)(item)

    def check(self, op: str, item: Item, out) -> dict:
        return getattr(self, "check_" + op)(item, out)

    def digest(self, op: str, item: Item, out) -> bytes:
        blobs = [out]
        for path in self.outputs(op, item):
            try:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            except FileNotFoundError:  # the check reports the missing file
                blobs.append(None)
        return digest(blobs)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# --- library workloads ---------------------------------------------------------


class LibraryWorkload(Workload):
    """The nine operations as in-memory library calls."""

    def _path(self, item, suffix):
        return os.path.join(self.workdir, f"{item.label}{suffix}")

    def outputs(self, op, item):
        if op != "export":
            return ()
        path = self._path(item, ".obj")
        return path, path + ".report.txt"

    def op_verify(self, item):
        lib, net = self.lib, item.net
        report = lib.nets.verify_isothermic(net.lifts, strict=False)
        residual = net.validate()
        status = lib.conserved.pcq_verify(net, item.quantity)
        lcq = lib.conserved.lcq_solve_grid(net, item.params["Q5"])
        return report, residual, status, lcq

    def op_classify(self, item):
        lib = self.lib
        types = lib.conserved.classify_type(item.net, [item.quantity])
        status = lib.conserved.pcq_verify(item.net, item.quantity)
        label = lib.euclidean.classify_cmc(lib.conserved.normalize_top(item.quantity))
        return types, status, label

    def op_export(self, item):
        p = item.params
        return self.lib.objexport.export_obj(item.net, p["Q5"], p["model"],
                                             self._path(item, ".obj"))

    def op_calapso(self, item):
        lib = self.lib
        frame, transformed = lib.nets.calapso(item.net, item.params["calapso_mu"])
        return transformed, lib.transforms.calapso_pcq(item.quantity, frame)

    def op_darboux(self, item):
        tr = self.lib.transforms
        start = self.lib.minkowski.euclidean_lift(item.params["darboux_start"])
        t = tr.darboux_propagate(item.net, item.params["darboux_mu"], start)
        return t, tr.pcq_darboux(item.quantity, t)

    def _backlund(self, item, mu, s):
        tr = self.lib.transforms
        start = tr.backlund_init(item.quantity, mu, s)
        t = tr.darboux_propagate(item.net, mu, start)
        return t, tr.pcq_backlund(item.quantity, t)

    def op_backlund(self, item):
        return self._backlund(item, item.params["backlund_mu"], item.params["backlund_s"])

    def op_bianchi(self, item):
        p = item.params
        t1, q1 = self._backlund(item, p["bianchi_mu1"], p["bianchi_s1"])
        t2, q2 = self._backlund(item, p["bianchi_mu2"], p["bianchi_s2"])
        return t1, t2, self.lib.transforms.bianchi(item.net, t1, t2, (q1, q2))

    def op_christoffel(self, item):
        eu = self.lib.euclidean
        return eu.christoffel(eu.EuclideanNet.from_isothermic(item.net))

    # checks: attributes only, no library calls

    def _base(self, item):
        net = item.net
        return net.lifts.data, net.weights.u, net.weights.v

    def check_generate(self, item, out):
        net, cq = out
        L, u, v = net.lifts.data, net.weights.u, net.weights.v
        base_L, base_u, base_v = self._base(item)
        same = float(np.array_equal(L, base_L) and np.array_equal(u, base_u)
                     and np.array_equal(v, base_v))
        scores = checks.net(L, u, v)
        scores["quantity edges"] = checks.quantity_edges(L, u, v, cq.coeffs)
        scores["H, kappa"] = checks.curvature(cq.coeffs, item.H, item.kappa,
                                              item.params["Q5"])
        scores["same as set-up net"] = 0.0 if same else np.inf
        return scores

    def check_verify(self, item, out):
        report, residual, status, lcq = out
        L, u, v = self._base(item)
        scores = {"isothermic": 0.0 if report.ok else np.inf,
                  "pcq_verify": 0.0 if status.ok else np.inf,
                  "validate": 0.0 if residual <= 1e-9 else np.inf}
        if report.weights is not None:
            scores["weights"] = checks.weights_proportional(
                report.weights.u, report.weights.v, u, v)
        if not hasattr(lcq, "coeffs"):
            scores["lcq"] = np.inf
            return scores
        scores["lcq edges"] = checks.quantity_edges(L, u, v, lcq.coeffs)
        scores["lcq H, kappa"] = checks.curvature(lcq.coeffs, item.H, item.kappa,
                                                  item.params["Q5"])
        return scores

    def check_classify(self, item, out):
        types, status, label = out
        structure = (not types.spherical and types.min_degree == 1
                     and types.verified == 1 and status.ok
                     and label.label == cmc_label(item.H, item.kappa))
        err = max(abs(label.H - item.H) / (1.0 + abs(item.H)),
                  abs(label.kappa - item.kappa) / (1.0 + abs(item.kappa)))
        return {"type and label": 0.0 if structure else np.inf,
                "H, kappa": err / checks.CURV_TOL}

    def check_export(self, item, out):
        path = self._path(item, ".obj")
        with open(path, encoding="ascii") as fh:
            obj = fh.read()
        with open(path + ".report.txt", encoding="ascii") as fh:
            report = fh.read()
        _, u, v = self._base(item)
        return checks.obj_mesh(obj, report, item.rows, item.cols, u, v)

    def check_calapso(self, item, out):
        net, cq = out
        L, u, v = net.lifts.data, net.weights.u, net.weights.v
        _, bu, bv = self._base(item)
        mu = item.params["calapso_mu"]
        H, kappa = checks.calapso_curvature(item.H, item.kappa, mu)
        scores = checks.net(L, u, v)
        scores["shifted weights"] = checks.weights_shifted(u, v, bu, bv, mu)
        scores["quantity edges"] = checks.quantity_edges(L, u, v, cq.coeffs)
        scores["H, kappa"] = checks.curvature(cq.coeffs, H, kappa)
        return scores

    def _darboux_scores(self, item, t, cq):
        BL, u, v = self._base(item)
        D = t.lifts.data
        scores = checks.net(D, u, v)
        scores["darboux edges"] = checks.darboux_edges(BL, D, u, v, t.mu)
        scores["quantity edges"] = checks.quantity_edges(D, u, v, cq.coeffs)
        return scores

    def check_darboux(self, item, out):
        return self._darboux_scores(item, *out)

    def check_backlund(self, item, out):
        t, cq = out
        scores = self._darboux_scores(item, t, cq)
        scores["H, kappa"] = checks.curvature(cq.coeffs, item.H, item.kappa,
                                              item.params["Q5"])
        return scores

    def check_bianchi(self, item, out):
        t1, t2, result = out
        _, u, v = self._base(item)
        F12 = result.lifts.data
        scores = checks.net(F12, u, v)
        scores["darboux edges of first"] = checks.darboux_edges(
            t1.lifts.data, F12, u, v, t2.mu)
        scores["darboux edges of second"] = checks.darboux_edges(
            t2.lifts.data, F12, u, v, t1.mu)
        cq = result.quantity
        scores["quantity edges"] = checks.quantity_edges(F12, u, v, cq.coeffs)
        scores["H, kappa"] = checks.curvature(cq.coeffs, item.H, item.kappa,
                                              item.params["Q5"])
        return scores

    def check_christoffel(self, item, out):
        L, u, v = self._base(item)
        dual = out.points.data
        scores = {"dual weights": checks.weights_equal(out.weights.u, out.weights.v, u, v)}
        scores["christoffel twice"] = checks.christoffel_twice(
            checks.euclidean_points(L), dual, u, v)
        return scores


class GridOps(LibraryWorkload):
    """The 64x64 cylinder of the baseline table, H = 1/2, kappa = 0."""

    name = "grid-ops"
    N = 64
    repeats = {"generate": 80, "export": 8}

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        net, cq = self.op_generate(None)
        q3, q5, model = space_form(0.0)
        w = np.concatenate([net.weights.u, net.weights.v])
        params = _draw_parameters(self.rng, 0.5, 0.0, w)
        params.update(Q5=q5, model=model)
        self.items = [Item("cylinder64", 0.5, 0.0, self.N, self.N, params, net, cq)]

    def op_generate(self, item):
        cat, N = self.lib.catalog, self.N
        net = cat.cylinder_net(N, N, 2.0 / N, 2.0 * np.pi / N)
        return net, cat.cylinder_quantity(net)


class SmallNets(LibraryWorkload):
    """Many tiny revolution nets, one per (steps, angles, sign of kappa)."""

    name = "small-nets"
    # export writes two files per net, so two passes already make a sample
    # of about 0.05 s
    repeats = {"generate": 4, "classify": 2, "export": 2, "calapso": 2, "darboux": 2,
               "backlund": 2, "christoffel": 3}
    SIZES = tuple((steps, angles) for steps in (1, 2) for angles in (4, 5, 6, 7, 8))

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        for steps, angles in self.SIZES:
            for sign in (-1, 0, 1):
                self.items.append(self._draw(steps, angles, sign))

    def items_for(self, op):
        # Bianchi on a tiny kappa < 0 net raises on about one seed in a
        # hundred (a cross ratio of nearly touching transforms), so it runs
        # on the kappa >= 0 nets only
        if op == "bianchi":
            return [item for item in self.items if item.kappa >= 0.0]
        return self.items

    def _draw(self, steps, angles, sign):
        rng = self.rng
        for _ in range(100):
            # kappa < 0 stays clear of the horospherical case H^2 + kappa = 0,
            # near which Bianchi raises on some draws
            if sign < 0:
                kappa, H = -float(rng.uniform(0.6, 1.5)), float(rng.uniform(0.0, 0.5))
            elif sign == 0:
                kappa, H = 0.0, float(rng.uniform(0.2, 1.0))
            else:
                kappa, H = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 1.0))
            seed = self._seed_edge(H, kappa)
            if seed is not None:
                break
        else:
            raise RuntimeError("no admissible seed edge")
        q3, q5, model = space_form(kappa)
        M0, M1, branch = seed
        item = Item(f"n{steps}x{angles}k{sign:+d}", H, kappa, 2 * steps + 2, angles,
                    {"Q3": q3, "Q5": q5, "model": model, "M0": M0, "M1": M1,
                     "branch": branch, "steps": steps, "angles": angles})
        item.net, item.quantity = self.op_generate(item)
        w = np.concatenate([item.net.weights.u, item.net.weights.v])
        item.params.update(_draw_parameters(rng, H, kappa, w))
        return item

    def _seed_edge(self, H, kappa):
        """First admissible meridian edge of a fixed scan, found with the
        public ``seed_edge``: both seed points off the infinity boundary and
        a positive propagation gate 1 - 2cH - c^2 kappa."""
        rev, mk = self.lib.revolution, self.lib.minkowski
        q3 = space_form(kappa)[0]
        for eta0, rho0, deta, drho in ((0.0, 1.0, 0.3, 0.1), (0.2, 0.8, 0.25, -0.1),
                                       (-0.2, 1.2, 0.4, 0.2), (0.1, 0.6, 0.2, 0.05)):
            M0 = mk.hyperbolic_point(eta0, rho0)
            M1 = mk.hyperbolic_point(eta0 + deta, rho0 + drho)
            if min(abs(mk.inner3(q3, M0)), abs(mk.inner3(q3, M1))) < 1e-3:
                continue
            try:
                solutions = rev.seed_edge(q3, H, M0, M1)
            except self.lib.errors.GeometryError:
                continue
            for branch, sol in enumerate(solutions):
                c = sol.edge_weight
                if 1.0 - 2.0 * c * H - c * c * kappa > 1e-3:
                    return M0, M1, branch
        return None

    def op_generate(self, item):
        p, rev = item.params, self.lib.revolution
        profile = rev.RotationProfile.uniform(p["angles"], 2.0 * np.pi / p["angles"])
        return rev.build_revolution_cmc(p["Q3"], item.H, p["M0"], p["M1"], p["steps"],
                                        profile, branch=p["branch"])


# --- the CLI pipeline ---------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _load_doc(path):
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    L = np.asarray(doc["lifts"], dtype=float)
    u = np.asarray(doc["a_u"], dtype=float)
    v = np.asarray(doc["a_v"], dtype=float)
    quantities = [np.asarray(q["coeffs"], dtype=float)
                  for q in doc.get("conserved_quantities", [])]
    return L, u, v, quantities


_NUMBER = r"([-+0-9.eEinfa]+)"


class CliPipeline(Workload):
    """``isothermic.cli.main(argv)`` in-process on three revolution nets, one
    per sign of kappa; every command parses and most write canonical JSON."""

    name = "cli-pipeline"
    repeats = {"generate": 2, "export": 4}
    NETS = ((0.3, -1.0, 10, 24), (0.5, 0.0, 16, 32), (1.0, 1.0, 16, 32))
    # transform calapso on the kappa < 0 net exits 0 but writes a net whose
    # face cross ratios miss the shifted weights (relative miss 5.3 at
    # mu = 0.2); its inputs do not depend on the seed.
    known_faults = frozenset({("calapso", "H0.3_k-1")})
    # Bianchi on the kappa < 0 net raises for most parameter pairs (a
    # cross-ratio test with an absolute tolerance), so its parameters are
    # fixed to a pair on which it succeeds; the seed draws the others.
    BIANCHI = {"bianchi_mu1": -1.0, "bianchi_mu2": -0.5, "bianchi_s1": 0.1, "bianchi_s2": 0.5}

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        for H, kappa, steps, angles in self.NETS:
            label = f"H{H:g}_k{kappa:g}"
            q3, q5, model = space_form(kappa)
            item = Item(label, H, kappa, 2 * steps + 2, angles,
                        {"Q5": q5, "model": model, "steps": steps, "angles": angles})
            item.paths = {key: os.path.join(self.workdir, f"{label}{suffix}") for key, suffix in
                          (("net", ".json"), ("obj", ".obj"), ("calapso", ".calapso.json"),
                           ("darboux", ".darboux.json"), ("backlund", ".backlund.json"),
                           ("bianchi", ".bianchi.json"), ("christoffel", ".christoffel.json"))}
            self.items.append(item)
        # weights of the generated nets bound the admissible parameters; they
        # are computed here, outside any timed region
        for item in self.items:
            self.op_generate(item)
            _, u, v, _ = _load_doc(item.paths["net"])
            item.params.update(_draw_parameters(self.rng, item.H, item.kappa,
                                                np.concatenate([u, v])))
            item.params.update(self.BIANCHI)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        result = CliResult(code, out.getvalue(), err.getvalue())
        if code != 0:
            raise OperationFailed(f"exit {code}: {result.stderr.strip() or result.stdout.strip()}")
        return result

    @staticmethod
    def _num(x) -> str:
        return repr(float(x))

    def op_generate(self, item):
        p = item.params
        return self._main(["generate", "revolution", "--H", self._num(item.H),
                           "--kappa", self._num(item.kappa), "--steps", str(p["steps"]),
                           "--angles", str(p["angles"]), "-o", item.paths["net"]])

    def op_verify(self, item):
        q = ",".join(self._num(x) for x in item.params["Q5"])
        return self._main(["verify", item.paths["net"], "--lcq", "Q=" + q])

    def op_classify(self, item):
        return self._main(["classify", item.paths["net"]])

    def op_export(self, item):
        return self._main(["export", item.paths["net"], "--model", item.params["model"],
                           "-o", item.paths["obj"]])

    def _transform(self, item, kind, *args):
        return self._main(["transform", kind, *args, item.paths["net"],
                           "-o", item.paths[kind]])

    def op_calapso(self, item):
        return self._transform(item, "calapso", "--mu", self._num(item.params["calapso_mu"]))

    def op_darboux(self, item):
        p = item.params
        start = ",".join(self._num(x) for x in p["darboux_start"])
        return self._transform(item, "darboux", "--mu", self._num(p["darboux_mu"]),
                               "--start", start)

    def op_backlund(self, item):
        p = item.params
        return self._transform(item, "backlund", "--mu", self._num(p["backlund_mu"]),
                               "--s", self._num(p["backlund_s"]))

    def op_bianchi(self, item):
        p = item.params
        return self._transform(item, "bianchi",
                               "--mu1", self._num(p["bianchi_mu1"]),
                               "--mu2", self._num(p["bianchi_mu2"]),
                               "--s1", self._num(p["bianchi_s1"]),
                               "--s2", self._num(p["bianchi_s2"]))

    def op_christoffel(self, item):
        return self._transform(item, "christoffel")

    _FILES = {"generate": ("net",), "export": ("obj",), "calapso": ("calapso",),
              "darboux": ("darboux",), "backlund": ("backlund",), "bianchi": ("bianchi",),
              "christoffel": ("christoffel",)}

    def outputs(self, op, item):
        paths = tuple(item.paths[key] for key in self._FILES.get(op, ()))
        return paths + tuple(p + ".report.txt" for p in paths if p.endswith(".obj"))

    # checks

    def check_generate(self, item, out):
        L, u, v, qs = _load_doc(item.paths["net"])
        shape_ok = L.shape == (item.rows, item.cols, 5) and len(qs) == 1
        if not shape_ok:
            return {"net file layout": np.inf}
        scores = checks.net(L, u, v)
        scores["quantity edges"] = checks.quantity_edges(L, u, v, qs[0])
        scores["H, kappa"] = checks.curvature(qs[0], item.H, item.kappa, item.params["Q5"])
        return scores

    def _printed(self, pattern, text):
        found = re.search(pattern, text)
        return None if found is None else [float(x) for x in found.groups()]

    def _printed_curvature(self, pattern, text, item) -> float:
        values = self._printed(pattern, text)
        if values is None:
            return np.inf
        H, kappa = values
        err = max(abs(H - item.H) / (1.0 + abs(item.H)),
                  abs(kappa - item.kappa) / (1.0 + abs(item.kappa)))
        return err / checks.CURV_TOL

    def check_verify(self, item, out):
        text = out.stdout
        ok = "isothermic: ok" in text and "conserved quantity 0 (degree 1): ok" in text
        return {"verdicts": 0.0 if ok else np.inf,
                "lcq H, kappa": self._printed_curvature(
                    rf"lcq: ok, H={_NUMBER}, kappa={_NUMBER}\s", text, item)}

    def check_classify(self, item, out):
        text = out.stdout
        label = re.escape(cmc_label(item.H, item.kappa))
        ok = "type: <= 1 relative to 1 verified candidate(s)" in text
        return {"type": 0.0 if ok else np.inf,
                "label H, kappa": self._printed_curvature(
                    rf"quantity 0: {label} \(H={_NUMBER}, kappa={_NUMBER},", text, item)}

    def check_export(self, item, out):
        _, u, v, _ = _load_doc(item.paths["net"])
        path = item.paths["obj"]
        with open(path, encoding="ascii") as fh:
            obj = fh.read()
        with open(path + ".report.txt", encoding="ascii") as fh:
            report = fh.read()
        return checks.obj_mesh(obj, report, item.rows, item.cols, u, v)

    def _transformed(self, item, kind):
        base = _load_doc(item.paths["net"])
        out = _load_doc(item.paths[kind])
        return base, out

    def check_calapso(self, item, out):
        (_, bu, bv, _), (L, u, v, qs) = self._transformed(item, "calapso")
        mu = item.params["calapso_mu"]
        H, kappa = checks.calapso_curvature(item.H, item.kappa, mu)
        scores = checks.net(L, u, v)
        scores["shifted weights"] = checks.weights_shifted(u, v, bu, bv, mu)
        scores["quantity edges"] = checks.quantity_edges(L, u, v, qs[0])
        scores["H, kappa"] = checks.curvature(qs[0], H, kappa)
        return scores

    def _darboux_scores(self, item, kind, mu):
        (BL, bu, bv, _), (L, u, v, qs) = self._transformed(item, kind)
        scores = checks.net(L, u, v)
        scores["weights"] = checks.weights_equal(u, v, bu, bv)
        if mu is not None:
            scores["darboux edges"] = checks.darboux_edges(BL, L, u, v, mu)
        scores["quantity edges"] = checks.quantity_edges(L, u, v, qs[0])
        return scores, qs[0]

    def check_darboux(self, item, out):
        return self._darboux_scores(item, "darboux", item.params["darboux_mu"])[0]

    def check_backlund(self, item, out):
        scores, q = self._darboux_scores(item, "backlund", item.params["backlund_mu"])
        scores["H, kappa"] = checks.curvature(q, item.H, item.kappa, item.params["Q5"])
        return scores

    def check_bianchi(self, item, out):
        scores, q = self._darboux_scores(item, "bianchi", None)
        scores["H, kappa"] = checks.curvature(q, item.H, item.kappa, item.params["Q5"])
        return scores

    def check_christoffel(self, item, out):
        (BL, bu, bv, _), (L, u, v, _) = self._transformed(item, "christoffel")
        scores = checks.net(L, u, v)
        scores["weights"] = checks.weights_equal(u, v, bu, bv)
        scores["christoffel twice"] = checks.christoffel_twice(
            checks.euclidean_points(BL), checks.euclidean_points(L), u, v)
        return scores


WORKLOADS = {cls.name: cls for cls in (CliPipeline, GridOps, SmallNets)}
