"""Every input the command line can be handed ends in exit 0, 1 or 2 with
one error line: broken net and seed-edge files, unwritable outputs and
flags set to non-finite, zero or negative numbers."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isothermic.cli import main

# Flag values: each list of good values is repeated, so that most commands
# get past argument parsing and reach the computation.
GOOD_REALS = ["-2", "-1", "-0.4", "0.3", "0.4", "0.7", "2.5"]
#: Non-finite, zero, extreme and unparsable values of the real flags.
BAD_REALS = ["nan", "inf", "-inf", "0", "-0.0", "1e300", "-1e300", "1e-320", "abc", ""]
REALS = st.sampled_from(3 * GOOD_REALS + BAD_REALS)
INTEGERS = st.sampled_from(3 * ["1", "2", "3"] + ["nan", "inf", "0", "-1", "-3", "1.5", "x"])
NET_KEYS = ["format", "version", "rows", "cols", "lifts", "a_u", "a_v",
            "conserved_quantities", "metadata"]
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]


def run(argv):
    """(exit code, stdout, stderr) of an in-process ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def net_texts(tmp_path_factory):
    """Net files of three small revolution nets, one per sign of kappa, with
    their quantity and without it (export then reads the metadata's kappa)."""
    texts = []
    for kappa in ("0", "-1", "1"):
        path = tmp_path_factory.mktemp("nets") / "net.json"
        assert run(["generate", "revolution", "--H", "0.3", "--kappa", kappa, "--steps", "2",
                    "--angles", "6", "-o", str(path)])[0] == 0
        doc = json.loads(path.read_text())
        del doc["conserved_quantities"]
        texts += [path.read_text(), json.dumps(doc, indent=1)]
    return texts


def _numbers(doc):
    """Paths (lists of keys) to every number inside the arrays of a net document."""
    def walk(node, path):
        if isinstance(node, list):
            for idx, item in enumerate(node):
                yield from walk(item, path + [idx])
        elif isinstance(node, dict):
            for key, item in node.items():
                yield from walk(item, path + [key])
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
    return [p for key in ("lifts", "a_u", "a_v", "conserved_quantities", "metadata")
            for p in walk(doc.get(key), [key])]


def _at(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


@st.composite
def net_file(draw, texts):
    """The bytes of a net file: intact, truncated, with a non-ASCII byte, a
    field removed, mis-shaped, or with a non-finite number."""
    text = draw(st.sampled_from(texts))
    kind = draw(st.sampled_from(4 * ["intact"] + ["truncated", "byte", "field-less",
                                                  "mis-shaped", "non-finite"]))
    if kind == "intact":
        return text.encode()
    if kind == "truncated":
        return text.encode()[:draw(st.integers(0, len(text) - 1))]
    if kind == "byte":
        cut = draw(st.integers(0, len(text)))
        return text.encode()[:cut] + bytes([draw(st.integers(0x80, 0xff))]) + text.encode()[cut:]
    doc = json.loads(text)
    if kind == "field-less":
        doc.pop(draw(st.sampled_from(NET_KEYS)), None)
        return json.dumps(doc).encode()
    if kind == "mis-shaped":
        how = draw(st.sampled_from(["size", "drop", "replace"]))
        if how == "size":
            doc[draw(st.sampled_from(["rows", "cols"]))] = draw(
                st.sampled_from([-1, 0, 1, 2, 7, 10 ** 6, 1.5, "3", None, [2]]))
        else:
            parent, key = _at(doc, draw(st.sampled_from(_numbers(doc))))
            if how == "drop":
                del parent[key]
            else:
                parent[key] = draw(st.sampled_from(["1", None, [], [1.0, 2.0], {}, True]))
        return json.dumps(doc).encode()
    parent, key = _at(doc, draw(st.sampled_from(_numbers(doc))))
    parent[key] = "@"
    return json.dumps(doc).replace('"@"', draw(st.sampled_from(NON_FINITE))).encode()


SEED_EDGES = st.sampled_from([
    '{"M0": [1.0, 0.0, 0.0], "M1": [1.0625, 0.25, 0.25]}',
    '{"M0": [1.0, 0.0, 0.0], "M1": [1.0625, 0.25, 0.25], "Q": [1.0, 0.0, -1.0]}',
    '{"M0": [1.0, 0.0, 0.0]}', '{"M0": [1.0, 0.0], "M1": [1.0, 0.25, 0.25]}',
    '{"M0": [1.0, 0.0, 0.0], "M1": [1.0, 0.0, 0.0]}', '{"M0": "x", "M1": [1, 2, 3]}',
    '{"M0": [NaN, 0.0, 0.0], "M1": [1.0625, 0.25, 0.25]}', '[1, 2, 3]', '{"M0": ',
    '{"M0": [1.0, 0.0, 0.0], "M1": [1.0625, 0.25, 0.25], "Q": [1.0]}', '\xff', '',
])


def _flags(draw, names, values):
    return [f"{name}={draw(values)}" for name in names if draw(st.booleans())]


@st.composite
def command(draw, net, seed_edge, out, directory):
    """An argument list for one subcommand, with the net file ``net``, the
    seed-edge file ``seed_edge`` and outputs at ``out``, a path into a
    missing directory, or an existing directory."""
    output = ["-o", draw(st.sampled_from(
        [out, out, out, os.path.join(out + ".missing", "x"), directory]))]
    name = draw(st.sampled_from(["generate", "verify", "calapso", "darboux", "backlund",
                                 "christoffel", "bianchi", "classify", "export"]))
    if name == "generate":
        args = ["generate", "revolution", f"--H={draw(REALS)}", f"--kappa={draw(REALS)}",
                f"--steps={draw(INTEGERS)}",
                f"--angles={draw(INTEGERS)}"]
        args += _flags(draw, ["--branch"], st.sampled_from(["0", "1", "2", "-1"]))
        if draw(st.booleans()):
            args += ["--seed-edge", seed_edge]
        args += output
    elif name == "verify":
        args = ["verify", net] + _flags(draw, ["--lcq"], st.sampled_from(
            ["Q=1,0,0,0,-1", "Q=0,0,1,0,0", "Q=1,2", "Q=nan,0,0,0,0", "Q=1e300,0,0,0,0"]))
    elif name in ("classify",):
        args = [name, net]
    elif name == "export":
        args = ["export", net, "--model", draw(st.sampled_from(
            ["euclidean", "poincare", "stereographic"]))]
        args += _flags(draw, ["--clamp"], REALS) + _flags(draw, ["--Q"], st.sampled_from(
            ["1,0,-1", "0,0,1", "1,0,0", "0,0,0", "1,2", "nan,0,0", "1,0,0,0,-1"]))
        args += output
    else:
        flags = {"calapso": ["--mu"], "darboux": ["--mu"], "backlund": ["--mu", "--s"],
                 "christoffel": [], "bianchi": ["--mu1", "--mu2", "--s1", "--s2"]}[name]
        args = ["transform", name] + [f"{flag}={draw(REALS)}" for flag in flags]
        if name == "darboux":
            args += ["--start", draw(st.sampled_from(
                ["3,0.5,0.2", "0,0,0", "1,2", "nan,0,0", "1e300,0,0", "1,0,0,0,1"]))]
        args += [net] + output
    if draw(st.sampled_from([False, False, True])):
        args = [f"--tol={draw(st.sampled_from(['1e-6', '1e-12'] + BAD_REALS))}"] + args
    return args


def error_lines(stderr):
    """The lines of stderr other than argparse's usage line and its
    indented continuations."""
    return [line for line in stderr.splitlines()
            if line and not line.startswith("usage:") and not line[0].isspace()]


@settings(max_examples=2000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_input_exits_0_1_or_2_with_one_error_line(net_texts, data):
    with tempfile.TemporaryDirectory() as directory:
        net = os.path.join(directory, "net.json")
        seed_edge = os.path.join(directory, "seed.json")
        with open(net, "wb") as fh:
            fh.write(data.draw(net_file(net_texts), label="net file"))
        with open(seed_edge, "w", encoding="latin-1") as fh:
            fh.write(data.draw(SEED_EDGES, label="seed-edge file"))
        argv = data.draw(command(net, seed_edge, os.path.join(directory, "out"), directory),
                         label="argv")
        code, out, err = run(argv)
    assert code in (0, 1, 2)
    errors = error_lines(err)
    if code == 0:
        assert errors == []
    elif code == 2 and not errors:
        # verify reports its failed checks on stdout
        assert "verify" in argv and "FAIL" in out
    else:
        assert len(errors) == 1, err
