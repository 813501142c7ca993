"""Benchmark of the isothermic library, end to end and per layer.

    python3 benchmark/run.py --workload {cli-pipeline,grid-ops,small-nets} \
        --seed N --seconds S --trace {0,1}

Runs one workload in this process, on one BLAS thread and without worker
pools or subprocesses.  It repeats whole rounds of the nine operations for
S seconds, times every pass of an operation with the reference kernel
running inside it (see ``timing.py``), checks every distinct output against
the properties in ``checks.py``, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run first measures untraced rounds, then installs the per-layer wrappers of
``layers.py`` and reports per-round layer figures and the tracing overhead.
Diagnostics go to standard error.
"""

from __future__ import annotations

import os

# one BLAS thread: the host has two cores and nothing else should compete
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ISOTHERMIC_TOL", None)

import time  # noqa: E402

_T_START = time.perf_counter()

import numpy  # noqa: E402,F401

_NUMPY_IMPORT_S = time.perf_counter() - _T_START

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")

import checks  # noqa: E402
import timing  # noqa: E402
import layers  # noqa: E402

END_TO_END = {"setup_s": "s", "throughput_vps": "1/s", "peak_rss_mb": "MB",
              **{f"{op}_ms": "ms" for op in ("generate", "verify", "classify", "export",
                                              "calapso", "darboux", "backlund", "bianchi",
                                              "christoffel")}}


def set_up(workload_name: str, seed: int):
    """Import the library and build the workload's inputs; returns
    (library, workload)."""
    import workloads

    lib = workloads.Library()
    return lib, workloads.WORKLOADS[workload_name](lib, seed, WORKDIR)


class Runner:
    """Whole rounds of every operation over every item of a workload."""

    def __init__(self, workload, clock: timing.Clock):
        import workloads

        self.workload = workload
        self.ops = workloads.OPS
        self.clock = clock
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = set()

    def _judge(self, op, item, out) -> bool:
        w = self.workload
        key = (op, item.label)
        if isinstance(out, Exception):
            self._report(key, f"raised {type(out).__name__}: {out}")
            return False
        d = w.digest(op, item, out)
        if (key, d) not in self.verdicts:
            try:
                checks.require(w.check(op, item, out))
                verdict = None
            except checks.CheckFailure as exc:
                verdict = str(exc)
            except Exception as exc:  # an output the checks cannot even read
                verdict = f"unreadable output ({type(exc).__name__}: {exc})"
            self.verdicts[(key, d)] = verdict
        verdict = self.verdicts[(key, d)]
        if verdict is None:
            return True
        self._report(key, "failed its checks: " + verdict)
        if key not in w.known_faults:
            self.correct = False
        return False

    def _report(self, key, message) -> None:
        if key not in self.reported:
            self.reported.add(key)
            print(f"[{self.workload.name}] {key[0]} on {key[1]} {message}", file=sys.stderr)

    def round(self, samples: dict, tracer=None, layer_rounds=None) -> None:
        workload = self.workload
        for op in self.ops:
            items = workload.items_for(op)
            repeats = workload.repeats.get(op, 1)

            def passes():
                outs = []
                if tracer is not None:
                    tracer.enabled = True
                for item in items * repeats:
                    try:
                        outs.append(workload.run(op, item))
                    except Exception as exc:  # a failed operation is counted, not fatal
                        outs.append(exc)
                if tracer is not None:
                    tracer.enabled = False
                return outs

            outs, (seconds, *refs) = self.clock.measure(passes)
            samples.setdefault(op, []).append((seconds / repeats, *refs))
            for item, out in zip(items * repeats, outs):
                self.attempted += 1
                if not self._judge(op, item, out):
                    self.failed += 1
        if tracer is not None:
            layer_rounds.append(tracer.snapshot())

    def rounds(self, seconds: float, samples: dict, **trace_args) -> int:
        """Rounds until ``seconds`` have passed (at least one)."""
        deadline = time.perf_counter() + seconds
        count = 0
        while count == 0 or time.perf_counter() < deadline:
            self.round(samples, **trace_args)
            count += 1
        return count


def _per_round(rounds: list) -> dict:
    """Median over rounds of each metric's per-round increase."""
    keys = set().union(*rounds)
    out = {}
    for key in keys:
        values, prev = [], 0
        for snap in rounds:
            cur = snap.get(key, 0)
            values.append(cur - prev)
            prev = cur
        out[key] = statistics.median(values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "isothermic", "__init__.py")):
        print(f"benchmark: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message="meridian crossed the infinity boundary")
    os.makedirs(WORKDIR, exist_ok=True)

    clock = timing.Clock()
    (lib, workload), setup = clock.measure(lambda: set_up(args.workload, args.seed))
    try:
        runner = Runner(workload, clock)
        samples = {}
        if not args.trace:
            count = runner.rounds(args.seconds, samples)
            metrics = end_to_end(runner, samples, setup)
        else:
            count, metrics = traced(runner, lib, samples, args.seconds)
    finally:
        workload.close()

    print(f"[{args.workload}] seed {args.seed}: {count} rounds; reference kernel median "
          f"{statistics.median(clock.reference) * 1e3:.3f} ms, probe median "
          f"{statistics.median(clock.probes) * 1e6:.2f} us over {len(clock.probes)} probes; "
          "raw median / calibrated (ms): " + ", ".join(
              f"{op} {statistics.median(s[0] for s in v) * 1e3:.1f}/"
              f"{clock.calibrated(v) * 1e3:.1f}" for op, v in samples.items()),
          file=sys.stderr)
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def end_to_end(runner: Runner, samples: dict, setup: tuple) -> dict:
    clock = runner.clock
    op_s = {op: clock.calibrated(v) for op, v in samples.items()}
    # the numpy import plus the one set-up, calibrated by the set-up's kernels
    seconds, *kernels = setup
    values = {
        "setup_s": timing.Clock.nominal((_NUMPY_IMPORT_S + seconds, *kernels)),
        "throughput_vps": runner.workload.vertices / sum(op_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{f"{op}_ms": s * 1e3 for op, s in op_s.items()},
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced(runner: Runner, lib, samples: dict, seconds: float):
    """Untraced rounds for half the time, then traced rounds for the rest."""
    count = runner.rounds(seconds / 2.0, samples)
    tracer = layers.Tracer()
    tracer.install(lib)
    traced_samples = {}
    layer_rounds = []
    count += runner.rounds(seconds / 2.0, traced_samples, tracer=tracer,
                           layer_rounds=layer_rounds)
    clock = runner.clock
    factor = timing.REFERENCE_NOMINAL_S / statistics.median(clock.reference)
    per_round = _per_round(layer_rounds)
    units = layers.metric_units(runner.ops)
    metrics = {}
    for name, unit in units.items():
        if name.startswith("trace.overhead."):
            op = name.rsplit(".", 1)[1]
            value = clock.calibrated(traced_samples[op]) / clock.calibrated(samples[op])
        else:
            value = per_round.get(name, 0)
            if unit == "s":
                value *= factor
        metrics[name] = {"value": value, "unit": unit}
    return count, metrics


if __name__ == "__main__":
    sys.exit(main())
