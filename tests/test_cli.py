"""Command line surface: exit codes, verification flows, determinism."""

import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from isothermic import catalog, cli, conserved, minkowski, nets, revolution
from isothermic.conserved import pcq_verify
from isothermic.cli import main
from isothermic.grids import EdgeFunction, GridDomain, VertexField
from isothermic.minkowski import euclidean_lift, euclidean_point
from isothermic.netfile import load_net, save_net
from isothermic.nets import IsothermicNet
from isothermic.tolerances import DEFAULT_REL_TOL, tol, tolerance


def run(args):
    return main([str(a) for a in args])


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "revolution", "--frobnicate"])
    assert exc.value.code == 1


def test_generate_verify_classify_export(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert run(["generate", "revolution", "--H", 0.5, "--kappa", 0,
                "--steps", 3, "--angles", 8, "-o", out]) == 0
    assert run(["verify", out]) == 0
    assert run(["verify", out, "--lcq", "Q=1,0,0,0,-1"]) == 0
    text = capsys.readouterr().out
    assert "H=0.5" in text
    # kappa 0 prints without the sign of -0.0
    assert "H=0.5, kappa=0\n" in text
    assert run(["classify", out]) == 0
    assert "cmc-euclidean" in capsys.readouterr().out
    obj = tmp_path / "net.obj"
    assert run(["export", out, "--model", "euclidean", "-o", obj]) == 0
    assert obj.exists()


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["generate", "revolution", "--H", 0.3, "--kappa", 1.0,
            "--steps", 2, "--angles", 6]
    assert run(args + ["-o", a]) == 0
    assert run(args + ["-o", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    # every generated net verifies under default tolerances
    assert run(["verify", a]) == 0


def test_generate_reports_unnormalized_quantity(tmp_path, capsys):
    # at 48 meridian steps the builder's quantity drifts off |top|^2 = 1
    assert run(["generate", "revolution", "--H", 0, "--kappa", -1, "--steps", 48,
                "--angles", 16, "-o", tmp_path / "net.json"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "quantity is not normalized: |top|^2 - 1 (" in err[0]


EXTREME_CURVATURES = [("1e200", "0"), ("0.5", "1e300"), ("1e300", "1")]


@pytest.mark.parametrize("H, kappa", EXTREME_CURVATURES)
def test_generate_overflow_is_one_error_line(tmp_path, capsys, H, kappa):
    out = tmp_path / "net.json"
    assert run(["generate", "revolution", "--steps", 3, "--angles", 8, "--H", H,
                "--kappa", kappa, "-o", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("verification error:"), err
    assert not out.exists()


@pytest.mark.parametrize("H, kappa", EXTREME_CURVATURES)
def test_constructor_overflow_is_a_floating_point_error(H, kappa):
    """numpy's scalars raise as the errstate says, never as Python floats do."""
    Q = revolution.default_space_form(float(kappa))
    with np.errstate(all="raise"), pytest.raises(Exception) as exc:
        revolution.build_revolution_cmc(Q, float(H), minkowski.hyperbolic_point(0.15, 1.0),
                                        minkowski.hyperbolic_point(0.4, 1.1), 3,
                                        revolution.RotationProfile.uniform(8, np.pi / 4))
    assert exc.type is FloatingPointError, exc.value


def test_verify_refuses_a_nan_weight(tmp_path, capsys):
    # a NaN weight made every residual fold drop it: verify printed "ok"
    path = tmp_path / "net.json"
    save_net(path, catalog.cylinder_net(3, 4, 0.3, 0.7))
    text = path.read_text()
    start = text.index('"a_u"')
    second = text.index(",", start) + 1
    path.write_text(text[:second] + " NaN" + text[text.index("]", second):])
    assert run(["verify", path]) == 2
    captured = capsys.readouterr()
    assert "ok" not in captured.out
    assert captured.err.strip() == (f"verification error: {path}: field 'a_u' holds a "
                                    "non-finite number")


@pytest.mark.parametrize("mu", ["0", "1e-320", "1e300"])
def test_darboux_parameter_without_a_transform_is_named(tmp_path, capsys, mu):
    # these once ended in numpy's "divide by zero encountered in divide"
    src = tmp_path / "net.json"
    save_net(src, catalog.cylinder_net(4, 4, 0.3, 0.7))
    assert run(["transform", "darboux", src, "--mu", mu, "--start", "3,0.5,0.2",
                "-o", tmp_path / "out.json"]) == 2
    assert capsys.readouterr().err == ("verification error: cross ratio mu * a is 0, infinite "
                                       f"or not finite at mu = {float(mu)}\n")


def test_arithmetic_failure_names_the_command(tmp_path, capsys):
    src = tmp_path / "net.json"
    assert run(["generate", "revolution", "--H", 0.5, "--kappa", -1, "--steps", 2,
                "--angles", 6, "-o", src]) == 0
    capsys.readouterr()
    # P(1e300) overflows before any geometry is decided
    assert run(["transform", "backlund", src, "--mu=1e300", "-o", tmp_path / "out.json"]) == 2
    assert capsys.readouterr().err == ("verification error: isothermic transform backlund: "
                                       "overflow encountered in multiply\n")


def test_verify_accepts_calapso_transform(tmp_path, capsys):
    # the transformed net's faces are small in the unit-representative
    # normalization; their cross ratios still match the shifted weights
    net, out = tmp_path / "net.json", tmp_path / "calapso.json"
    assert run(["generate", "revolution", "--H", 0.5, "--kappa", 0, "--steps", 6,
                "--angles", 16, "-o", net]) == 0
    assert run(["transform", "calapso", "--mu", -0.5, net, "-o", out]) == 0
    assert run(["verify", out]) == 0
    assert "isothermic: ok" in capsys.readouterr().out


def test_calapso_refuses_degenerate_transform(tmp_path, capsys):
    # on this minimal net of revolution the frames at mu 0.4 reach 1e18, so
    # the transformed lifts T F keep no digits; calapso exits 2 and writes
    # nothing instead of a net that verify rejects
    net, out = tmp_path / "net.json", tmp_path / "calapso.json"
    assert run(["generate", "revolution", "--H", 0, "--kappa", -1, "--steps", 16,
                "--angles", 48, "-o", net]) == 0
    capsys.readouterr()
    assert run(["transform", "calapso", "--mu", 0.4, net, "-o", out]) == 2
    assert "three nearly dependent lifts" in capsys.readouterr().err
    assert not out.exists()


def test_verify_perturbed_fixture_exits_2(tmp_path):
    net = catalog.cylinder_net(4, 4, 0.3, np.pi / 4)
    cq = catalog.cylinder_quantity(net)
    pts = euclidean_point(net.lifts.data)
    pts[2, 1] += 5e-3 * np.array([1.0, -0.3, 0.4]) / np.linalg.norm([1.0, -0.3, 0.4])
    bad = IsothermicNet(VertexField(euclidean_lift(pts)), net.weights)
    path = tmp_path / "bad.json"
    save_net(path, bad, [cq])
    assert run(["verify", path]) == 2


def test_verify_wrong_quantity_exits_2(tmp_path):
    net = catalog.cylinder_net(4, 4, 0.3, np.pi / 4)
    cq = catalog.cylinder_quantity(net)
    coeffs = cq.coeffs.copy()
    coeffs[1, 1, 1, 2] += 1e-3
    from isothermic.conserved import ConservedQuantity

    path = tmp_path / "badq.json"
    save_net(path, net, [ConservedQuantity(net, coeffs, check=False)])
    assert run(["verify", path]) == 2


def test_verify_lcq_failure_exits_2(tmp_path, rng):
    from conftest import darboux_stacked_net

    net = darboux_stacked_net(rng, 5, 5)
    path = tmp_path / "stacked.json"
    save_net(path, net)
    assert run(["verify", path]) == 0
    assert run(["verify", path, "--lcq", "Q=0.3,1,0.2,-0.4,1"]) == 2


def test_transform_subcommands(tmp_path, capsys):
    src = tmp_path / "net.json"
    net = catalog.cylinder_net(4, 4, 0.3, np.pi / 4)
    save_net(src, net, [catalog.cylinder_quantity(net)], {"kappa": 0.0})

    for args, name in [
        (["transform", "calapso", "--mu", 0.4, src, "-o", tmp_path / "c.json"], "c"),
        (["transform", "darboux", "--mu", 2.5, "--start", "0.5,1.7,0.4",
          src, "-o", tmp_path / "d.json"], "d"),
        (["transform", "backlund", "--mu", 2.5, "--s", 0.3,
          src, "-o", tmp_path / "b.json"], "b"),
        (["transform", "christoffel", src, "-o", tmp_path / "x.json"], "x"),
        (["transform", "bianchi", "--mu1", 2.5, "--mu2", -1.5,
          "--s1", 0.2, "--s2", 0.7, src, "-o", tmp_path / "bb.json"], "bb"),
    ]:
        assert run(args) == 0, name
        assert run(["verify", tmp_path / f"{name}.json"]) == 0, name

    # the Backlund transform keeps the curvature pair
    _, quantities, _ = load_net(tmp_path / "b.json")
    from isothermic.conserved import mean_curvature_data, normalize_top

    H, kappa = mean_curvature_data(normalize_top(quantities[0]))
    assert H == pytest.approx(0.5, abs=1e-9)
    assert kappa == pytest.approx(0.0, abs=1e-9)


def _bent_net_file(tmp_path):
    """A 3x3 cylinder with one point moved 1e-7 off its circle: it fails
    ``verify`` at the default tolerance and passes at 1e-5."""
    from isothermic.nets import IsothermicNet

    net = catalog.cylinder_net(3, 3, 0.3, np.pi / 4)
    pts = euclidean_point(net.lifts.data)
    pts[1, 1, 0] += 1e-7
    bent = IsothermicNet(VertexField(euclidean_lift(pts)), net.weights)
    src = tmp_path / "bent.json"
    save_net(src, bent)
    return src


def test_tolerance_flag(tmp_path):
    src = _bent_net_file(tmp_path)
    assert run(["verify", src]) == 2
    assert run(["--tol", "1e-5", "verify", src]) == 0
    # the flag holds for its own call only
    assert tol(1.0) == DEFAULT_REL_TOL
    assert run(["verify", src]) == 2
    # without the flag the caller's scope holds
    with tolerance(1e-5):
        assert run(["verify", src]) == 0


def test_tolerance_env(tmp_path, monkeypatch):
    """The environment sets no tolerance: only --tol loosens the check."""
    src = _bent_net_file(tmp_path)
    monkeypatch.setenv("ISOTHERMIC_TOL", "1e-5")
    assert run(["verify", src]) == 2
    assert tol(1.0) == DEFAULT_REL_TOL


def test_isothermic_tol_is_not_read(tmp_path):
    """ISOTHERMIC_TOL=abc isothermic verify net.json exits 0: the command
    line is the one channel that sets an option."""
    src = tmp_path / "net.json"
    save_net(src, catalog.cylinder_net(3, 3, 0.3, np.pi / 4))
    child = subprocess.run(
        [sys.executable, "-m", "isothermic.cli", "verify", str(src)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "ISOTHERMIC_TOL": "abc"})
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.startswith("isothermic: ok")


def test_tolerance_restored_after_main(tmp_path):
    src = tmp_path / "net.json"
    save_net(src, catalog.cylinder_net(3, 3, 0.3, np.pi / 4))
    with tolerance(2e-9):
        assert run(["--tol", "1e-3", "verify", src]) == 0
        assert tol(1.0) == 2e-9
        # also when the command fails
        assert run(["--tol", "1e-3", "verify", tmp_path / "missing.json"]) != 0
        assert tol(1.0) == 2e-9
    assert run(["--tol", "1e-3", "verify", src]) == 0
    assert tol(1.0) == 1e-9


def test_invalid_tolerance_is_a_usage_error(tmp_path, capsys):
    """--tol accepts only finite values in (0, 1); anything else exits 1
    with one error line, not a traceback or a run at that value."""
    src = tmp_path / "net.json"
    save_net(src, catalog.cylinder_net(3, 3, 0.3, np.pi / 4))
    for value in ("-1", "0", "nan", "inf", "1e300", "abc"):
        with pytest.raises(SystemExit) as exc:
            run(["--tol", value, "verify", src])
        assert exc.value.code == 1, value
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "tol" in errors[0], (value, captured.err)
        assert captured.out == ""
    assert tol(1.0) == DEFAULT_REL_TOL


def test_generate_with_seed_edge_file(tmp_path):
    import json

    from isothermic.minkowski import hyperbolic_point

    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({
        "M0": hyperbolic_point(0.0, 1.0).tolist(),
        "M1": hyperbolic_point(0.3, 1.0).tolist(),
        "Q": [1.0, 0.0, -1.0],
    }))
    out = tmp_path / "cyl.json"
    assert run(["generate", "revolution", "--H", 0.5, "--kappa", 0,
                "--steps", 3, "--angles", 8, "--branch", 1,
                "--seed-edge", seed, "-o", out]) == 0
    net, quantities, metadata = load_net(out)
    assert metadata["H"] == pytest.approx(0.5, abs=1e-12)
    # branch 1 continues the unit cylinder: all lifted points at radius one
    pts = euclidean_point(net.lifts.data)
    radii = np.linalg.norm(pts[..., 1:], axis=-1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-9)
    assert "closure" in metadata


def _usage_error_line(capsys):
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "Traceback" not in captured.err, captured.err
    return errors[0]


def test_unreadable_seed_edge_file_is_a_usage_error(tmp_path, capsys):
    """A --seed-edge file that is missing, truncated or lacks M0 or M1 exits 1
    with one error line naming it, not a traceback."""
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"M0": [0.1, 0.2')
    no_m1 = tmp_path / "no_m1.json"
    no_m1.write_text('{"M0": [0.1, 0.2, 0.3]}')
    out = tmp_path / "never.json"
    for seed in (tmp_path / "missing.json", truncated, no_m1):
        assert run(["generate", "revolution", "--H", 0.5, "--kappa", 0,
                    "--seed-edge", seed, "-o", out]) == 1
        assert str(seed) in _usage_error_line(capsys)
        assert not out.exists()


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    """A net path that cannot be read exits 1; a file that is read but
    malformed still fails with its ParseError (exit 2)."""
    missing = tmp_path / "missing.json"
    for argv in (["verify", missing], ["classify", missing],
                 ["export", missing, "--model", "euclidean", "-o", tmp_path / "x.obj"],
                 ["transform", "christoffel", missing, "-o", tmp_path / "y.json"],
                 ["verify", tmp_path]):
        assert run(argv) == 1
        assert "cannot read" in _usage_error_line(capsys)
    truncated = tmp_path / "truncated.json"
    # a truncated document, and documents that are not net objects
    for text in ('{"format": "isothermic-net", ', "5", '["format"]',
                 '{"format": "isothermic-net", "version": 1, "rows": "x", "cols": 2}'):
        truncated.write_text(text)
        assert run(["verify", truncated]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("verification error: " + str(truncated))


def test_non_ascii_net_file_is_a_parse_error(tmp_path, capsys):
    """A net file holding a byte outside ASCII fails like a truncated one:
    one line, exit 2, not a traceback."""
    path = tmp_path / "net.json"
    save_net(path, catalog.cylinder_net(3, 3, 0.3, np.pi / 4))
    path.write_bytes(path.read_bytes().replace(b"{", b"{\xff", 1))
    for argv in (["verify", path], ["classify", path],
                 ["export", path, "--model", "euclidean", "-o", tmp_path / "x.obj"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"verification error: {path}: byte 1: not ASCII"]


def test_seed_edge_of_the_wrong_length_is_a_usage_error(tmp_path, capsys):
    """M0, M1 and Q of a --seed-edge file are points of R^{2,1}; another
    length exits 1 with one error line naming the expected length."""
    out = tmp_path / "never.json"
    for doc in ('{"M0": [0.1, 0.2], "M1": [0.3, 0.4, 0.5]}',
                '{"M0": [0.1, 0.2, 0.3], "M1": [[0.3, 0.4, 0.5]]}',
                '{"M0": [0.1, 0.2, 0.3], "M1": [0.3, 0.4, 0.5], "Q": [1, 0, 0, 0]}'):
        seed = tmp_path / "seed.json"
        seed.write_text(doc)
        assert run(["generate", "revolution", "--H", 0.5, "--kappa", 0,
                    "--seed-edge", seed, "-o", out]) == 1
        line = _usage_error_line(capsys)
        assert str(seed) in line and "need length 3" in line
        assert not out.exists()


def test_non_finite_numbers_are_usage_errors(tmp_path, capsys):
    """Every real flag and every real list (--start, --lcq, --Q) accepts only
    finite numbers: NaN or an infinity exits 1 with one error line naming
    the value, writes nothing, and never reaches the library (where a NaN
    start once left a NaN section for save_net to reject)."""
    src = tmp_path / "net.json"
    assert run(["generate", "revolution", "--H", 0.5, "--kappa", 0,
                "--steps", 1, "--angles", 4, "-o", src]) == 0
    capsys.readouterr()
    out = tmp_path / "never.json"
    cases = [["generate", "revolution", "--H", "nan", "--kappa", 0, "-o", out],
             ["generate", "revolution", "--H", 0.5, "--kappa", "inf", "-o", out],
             ["transform", "calapso", "--mu", "nan", src, "-o", out],
             ["transform", "darboux", "--mu", "nan", "--start", "3,0.5,0.2", src, "-o", out],
             ["transform", "darboux", "--mu", 0.4, "--start", "nan,0.5,0.2", src, "-o", out],
             ["transform", "backlund", "--mu", "nan", src, "-o", out],
             ["transform", "backlund", "--mu", -1, "--s", "inf", src, "-o", out],
             ["transform", "bianchi", "--mu1", "nan", "--mu2", -1.5, src, "-o", out],
             ["transform", "bianchi", "--mu1", -1, "--mu2=-inf", src, "-o", out],
             ["transform", "bianchi", "--mu1", -1, "--mu2", -1.5, "--s1", "nan", src, "-o", out],
             ["transform", "bianchi", "--mu1", -1, "--mu2", -1.5, "--s2", "inf", src, "-o", out],
             ["verify", src, "--lcq", "Q=1,0,0,nan,-1"],
             ["export", src, "--model", "euclidean", "--clamp", "nan", "-o", out],
             ["export", src, "--model", "euclidean", "--Q", "1,inf,-1", "-o", out]]
    for argv in cases:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 1, argv
        line = _usage_error_line(capsys)
        assert "finite" in line and ("nan" in line or "inf" in line), (argv, line)
        assert not out.exists()


def test_generate_size_flags_are_checked(tmp_path, capsys):
    """--angles below 2 and --steps below 0 exit 1 with one error line, and
    write nothing."""
    out = tmp_path / "never.json"
    for flag, value in (("--angles", 0), ("--angles", -3), ("--angles", 1), ("--steps", -1)):
        assert run(["generate", "revolution", "--H", 0.5, "--kappa", 0, flag, value,
                    "-o", out]) == 1
        assert "need --angles at least 2 and --steps at least 0" in _usage_error_line(capsys)
        assert not out.exists()


@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, target):
    """An -o path inside a missing directory, or naming a directory, exits 1
    with one error line naming it, for every command that writes."""
    src = tmp_path / "net.json"
    assert run(["generate", "revolution", "--H", 0.5, "--kappa", 0,
                "--steps", 1, "--angles", 4, "-o", src]) == 0
    capsys.readouterr()
    out = tmp_path / "nowhere" / "out.json"
    if target == "directory":
        out = tmp_path / "folder"
        out.mkdir()
    for argv in (["generate", "revolution", "--H", 0.5, "--kappa", 0,
                  "--steps", 1, "--angles", 4, "-o", out],
                 ["transform", "christoffel", src, "-o", out],
                 ["export", src, "--model", "euclidean", "-o", out]):
        assert run(argv) == 1
        assert str(out) in _usage_error_line(capsys)


def test_verify_inconsistent_weights_exits_2(tmp_path):
    net = catalog.cylinder_net(4, 4, 0.3, np.pi / 4)
    path = tmp_path / "badweights.json"
    save_net(path, net)
    doc = path.read_text()
    # corrupt one stored weight value without touching the lifts
    assert '"a_u": [-0.0225,' in doc
    path.write_text(doc.replace('"a_u": [-0.0225,', '"a_u": [-0.05,'))
    assert run(["verify", path]) == 2


def test_verify_makes_one_face_kernel_pass(tmp_path, monkeypatch, capsys):
    net = catalog.cylinder_net(4, 5, 0.3, np.pi / 4)
    path = tmp_path / "net.json"
    save_net(path, net)
    calls = []
    kernel = minkowski.face_products

    def counted(data):
        calls.append(data.shape)
        return kernel(data)

    monkeypatch.setattr(minkowski, "face_products", counted)
    monkeypatch.setattr(nets, "face_products", counted)
    assert run(["verify", path]) == 0
    assert calls == [(4, 5, 5)]
    monkeypatch.undo()
    assert f"stored-weight residual {net.validate():.3g})" in capsys.readouterr().out


def test_main_builds_its_parser_once(tmp_path):
    path = tmp_path / "net.json"
    save_net(path, catalog.cylinder_net(3, 3, 0.3, np.pi / 4))
    cli._parser.cache_clear()
    assert run(["verify", path]) == 0
    assert run(["classify", path]) == 0
    assert cli._parser.cache_info().misses == 1
    assert cli.build_parser() is not cli.build_parser()


def test_export_with_explicit_ambient_vector(tmp_path):
    src = tmp_path / "net.json"
    net = catalog.cylinder_net(4, 4, 0.3, np.pi / 4)
    save_net(src, net)  # no stored quantity, no metadata
    out = tmp_path / "net.obj"
    assert run(["export", src, "--model", "euclidean",
                "--Q", "1,0,0,0,-1", "-o", out]) == 0
    assert out.exists()


@pytest.mark.parametrize("kappa", ["null", '"x"', "[1]", "NaN", "1e999"])
def test_export_refuses_a_metadata_kappa_that_is_not_a_real(tmp_path, capsys, kappa):
    # with no quantity stored, export takes its ambient vector from the
    # metadata's kappa, which once reached float() unchecked (a traceback)
    src = tmp_path / "net.json"
    save_net(src, catalog.cylinder_net(4, 4, 0.3, np.pi / 4), [], {"kappa": 0.5})
    src.write_text(src.read_text().replace('"kappa": 0.5', f'"kappa": {kappa}'))
    assert run(["export", src, "--model", "euclidean", "-o", tmp_path / "net.obj"]) == 2
    assert capsys.readouterr().err == "verification error: no ambient vector available: pass --Q\n"


def test_generate_inadmissible_exits_2(tmp_path, capsys):
    out = tmp_path / "never.json"
    # mean curvature far beyond the seed constraint for a spherical ambient
    assert run(["generate", "revolution", "--H", 500, "--kappa", 1.0,
                "--steps", 2, "--angles", 6, "-o", out]) == 2
    assert not out.exists()


def test_classify_skips_a_quantity_it_cannot_label(tmp_path, capsys):
    """The zigzag plane's linear quantity holds on every edge, but its top
    coefficient is isotropic, so it cannot be normalized and has no
    (H, kappa): classify prints the type and no label for it."""
    net = catalog.zigzag_net(4, 4, 0.3, 0.5, 0.7)
    path = tmp_path / "zigzag.json"
    save_net(path, net, [catalog.zigzag_quantity(net)])
    assert run(["classify", path]) == 0
    assert capsys.readouterr().out == "type: unknown (1 verified candidate(s), degenerate=True)\n"


def test_generate_refuses_a_seed_it_cannot_use(tmp_path, capsys):
    """A seed branch the seed edge does not have, and a --seed-edge whose
    points lie off the hyperboloid so that the seed's normalization scale
    is negative, each exit 2 with one error line and write nothing."""
    out = tmp_path / "net.json"
    assert run(["generate", "revolution", "--H", 0, "--kappa", 0, "--branch", 1,
                "-o", out]) == 2
    assert capsys.readouterr().err == ("verification error: seed branch 1 not available "
                                       "(1 solution(s))\n")
    seed = tmp_path / "seed.json"
    seed.write_text('{"M0": [-1, -1, -1], "M1": [-1, -1, 0]}')
    assert run(["generate", "revolution", "--H", 0, "--kappa", 0, "--seed-edge", seed,
                "-o", out]) == 2
    assert capsys.readouterr().err == ("verification error: seed normalization scale "
                                       "A = -13.8 is not positive\n")
    assert not out.exists()


@pytest.mark.parametrize("H, points, error", [
    (0, '{"M0": [-1, -1, -1], "M1": [-1, 0, 0]}',
     "seed points with <M0, M1>^2 = 1 (|1 - <M0, M1>^2| 0 <= 1e-09)"),
    (0.5, '{"M0": [-1, -1, -1], "M1": [-1, 0, 0.5]}',
     "no real normalization factor: -Delta (C^2 H^2 - A) (37 > 0)"),
], ids=["unit-product", "positive-gram"])
def test_generate_refuses_seed_points_off_the_hyperboloid(tmp_path, capsys, H, points, error):
    """Seed points off the hyperboloid with <M0, M1>^2 = 1, or with a
    positive Gram determinant, exit 2 with one error line that names the
    value, and write nothing."""
    seed, out = tmp_path / "seed.json", tmp_path / "net.json"
    seed.write_text(points)
    assert run(["generate", "revolution", "--H", H, "--kappa", 0, "--seed-edge", seed,
                "-o", out]) == 2
    assert capsys.readouterr().err == f"verification error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("rows, cols", [(6, 8), (2, 2)], ids=["cylinder", "spherical"])
def test_classify_verifies_each_quantity_once(tmp_path, capsys, rows, cols):
    """classify labels the linear quantities that classify_type verified
    without verifying them again; on a spherical net, where classify_type
    checks no candidate, it verifies each linear quantity itself, once."""
    net = catalog.cylinder_net(rows, cols, 0.5, 0.9)
    path = tmp_path / "net.json"
    save_net(path, net, [catalog.cylinder_quantity(net)])
    calls = []

    def counted(*args):
        calls.append(args)
        return pcq_verify(*args)

    with mock.patch.object(cli, "pcq_verify", counted), \
            mock.patch.object(conserved, "pcq_verify", counted):
        assert run(["classify", path]) == 0
    assert len(calls) == 1
    assert "quantity 0: cmc-euclidean" in capsys.readouterr().out


def test_classify_spherical(tmp_path, capsys):
    net = catalog.planar_grid_net(4, 4)
    path = tmp_path / "plane.json"
    save_net(path, net)
    assert run(["classify", path]) == 0
    assert "type: 0 (spherical)" in capsys.readouterr().out


def test_classify_small_cylinder(tmp_path, capsys):
    net = catalog.cylinder_net(2, 2, 0.5, 0.9)
    path = tmp_path / "square.json"
    save_net(path, net, [catalog.cylinder_quantity(net)])
    assert run(["classify", path]) == 0
    assert "type: 0 (spherical)" in capsys.readouterr().out


def test_classify_names_a_pencil_of_spheres(tmp_path, capsys):
    """Four concircular points lie on every sphere of a pencil: classify
    reports the span, not one of those spheres."""
    path = tmp_path / "square.json"
    save_net(path, catalog.cylinder_net(2, 2, 0.5, 0.9))
    assert run(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "lifts span 3 dimensions: pencil of spheres, no unique sphere" in out
    assert "sphere vector" not in out
    save_net(path, catalog.planar_grid_net(3, 3))
    assert run(["classify", path]) == 0
    assert "sphere vector: " in capsys.readouterr().out


def test_faceless_net_file(tmp_path, capsys):
    cyl = catalog.cylinder_net(2, 4, 0.5, 0.9)
    dom = GridDomain(1, 4)
    path = tmp_path / "row.json"
    save_net(path, IsothermicNet(VertexField(cyl.lifts.data[:1]),
                                 EdgeFunction([], cyl.weights.v)))
    assert run(["verify", path]) == 2
    assert "need at least one face" in capsys.readouterr().out
    assert run(["classify", path]) == 0
    assert "type: 0 (spherical)" in capsys.readouterr().out
    dual = tmp_path / "dual.json"
    assert run(["transform", "christoffel", path, "-o", dual]) == 0
    assert load_net(dual)[0].domain == dom


@pytest.mark.filterwarnings("default:meridian crossed")
def test_generate_counts_meridian_crossings_in_one_line(tmp_path, capsys):
    """The builder counts the meridian steps across the infinity boundary
    into one warning; generate prints it as one line on stderr, as the
    warning filters in force let it through."""
    argv = ["generate", "revolution", "--H", 0, "--kappa", -1, "--steps", 6, "--angles", 8,
            "-o", tmp_path / "net.json"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ("isothermic generate revolution: warning: meridian crossed the "
                            "infinity boundary of the space form in 6 meridian steps\n")
    assert captured.out.startswith("wrote ")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(argv) == 0
    assert capsys.readouterr().err == ""


def test_warnings_raised_as_errors_give_one_error_line(tmp_path):
    """Under python -W error the counted crossing line is raised as a
    UserWarning; the command exits 2 with one error line and writes nothing."""
    out = tmp_path / "net.json"
    child = subprocess.run(
        [sys.executable, "-W", "error", "-m", "isothermic.cli", "generate", "revolution",
         "--H", "0", "--kappa", "-1", "--steps", "6", "--angles", "8", "-o", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert child.returncode == 2
    assert child.stderr == ("verification error: isothermic generate revolution: meridian "
                            "crossed the infinity boundary of the space form in 6 meridian "
                            "steps\n")
    assert child.stdout == "" and not out.exists()


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_1_without_the_usage_line(tmp_path, capsys, unbuffered):
    """A closed stdout is an output that cannot be written: exit 1 with one
    error line, whether the write fails inside the command (unbuffered) or
    on the flush of buffered output."""
    net = tmp_path / "net.json"
    assert run(["generate", "revolution", "--H", 0.5, "--kappa", 0, "--steps", 2,
                "--angles", 6, "-o", net]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the command writes
    try:
        child = subprocess.run(
            [sys.executable, "-m", "isothermic.cli", "verify", str(net)], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == ("isothermic: error: cannot write to standard output: "
                            "[Errno 32] Broken pipe\n")


def test_sizes_that_cannot_be_allocated_give_one_error_line(tmp_path):
    """--angles 1e12 asks for 7.3 TiB; the child caps its address space at
    4 GiB first, so nothing of it is allocated."""
    out = tmp_path / "net.json"
    script = ("import resource, sys\n"
              "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
              "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, hard))\n"
              f"sys.path[:0] = {sys.path!r}\n"
              "from isothermic.cli import main\n"
              "sys.exit(main(['generate', 'revolution', '--H', '0.5', '--kappa', '0',\n"
              f"               '--steps', '0', '--angles', '1000000000000', '-o', {str(out)!r}]))\n")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           timeout=120, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert child.returncode == 1
    assert child.stderr.startswith("isothermic generate revolution: error: out of memory: ")
    assert child.stderr.count("\n") == 1 and "Traceback" not in child.stderr
    assert child.stdout == "" and not out.exists()


def test_list_flags_of_the_wrong_length_are_usage_errors(tmp_path, capsys):
    """--lcq takes 5 reals, --start and --Q 3 or 5: another length exits 1
    with the usage line and one error line naming the flag, before verify
    prints anything, and writes nothing."""
    src = tmp_path / "net.json"
    assert run(["generate", "revolution", "--H", 0.5, "--kappa", 0,
                "--steps", 1, "--angles", 4, "-o", src]) == 0
    capsys.readouterr()
    out = tmp_path / "never.json"
    for argv, message in (
            (["verify", src, "--lcq", "1,2,3"], "--lcq expects 5 reals, not 3"),
            (["verify", src, "--lcq", "Q=1,0,0,0,-1,0"], "--lcq expects 5 reals, not 6"),
            (["transform", "darboux", "--mu", 0.4, "--start", "1,2", src, "-o", out],
             "--start expects 3 or 5 reals, not 2"),
            (["export", src, "--model", "euclidean", "--Q", "1,2", "-o", out],
             "--Q expects 3 or 5 reals, not 2")):
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: isothermic")
        assert captured.err.splitlines()[-1] == f"isothermic: error: {message}"
        assert not out.exists()


def test_verify_lcq_on_a_spherical_net_names_the_star(tmp_path, capsys):
    """A cospherical vertex star cannot pin the linear conserved quantity:
    verify --lcq exits 2 with one error line naming the star's centre."""
    path = tmp_path / "plane.json"
    save_net(path, catalog.planar_grid_net(4, 4))
    assert run(["verify", path, "--lcq", "Q=1,0,0,0,-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("isothermic: ok")
    assert captured.err == ("verification error: vertex star is cospherical (singular value "
                            "ratio 0 <= 1e-09) at (1, 1)\n")
