"""Self-verification census: the package's own CLI outputs checked by its
own ``verify``.

``generate revolution`` runs on the 48 nets of the census grid
(:mod:`cli_grid` at 6 and 24 meridian steps), each net goes through the
five transforms of ``cli_grid.TRANSFORMS``, and ``verify`` checks every
file written, with its stored quantities, as the CLI does.  Each run has
one expected outcome:
- accepted: the command exits 0 and ``verify`` of its file exits 0;
- refused: the command exits 2 with one error line that starts as listed;
- a known fault: the command exits 0 and ``verify`` rejects its file.  A
  fault is a strict xfail whose reason names its group of the census in
  ROADMAP.md, so a fault that is mended fails until its entry goes.
A refusal that writes a net, a written net that becomes a refusal, and a
refusal of another kind all fail.
"""

import pytest

import cli_grid

STEPS = (6, 24)
COMMANDS = ("generate", *cli_grid.TRANSFORMS)

# groups of the census in ROADMAP.md
ROUNDING = ("check rounding: the stored doubles meet the weights, but verify "
            "reads the face as complex")
LIMIT = "at the limit: product-one 1.03e-9 in doubles, 9.8e-10 accurately"
ISOTROPY = "isotropy: the sections drift off the light cone; the faces meet the weights"
QUANTITY = "quantity: the conserved-quantity edge condition misses"
DATA = "rounding of the data: misses by 2.7e-9 accurately, 2.1 kappa_f eps (ROADMAP item 13)"


def miss(value: str) -> str:
    return f"real miss: verify reads {value}"


FAULTS = {
    ("H0_k-1_s24_a8", "darboux"): LIMIT,
    ("H0_k-1_s24_a8", "christoffel"): ROUNDING,
    ("H0_k-1_s24_a32", "darboux"): miss("a degenerate face"),
    ("H0_k-1_s24_a32", "christoffel"): ROUNDING,
    ("H0_k0_s24_a8", "calapso"): miss("product-one 9.83e-8"),
    ("H0_k0_s24_a8", "darboux"): miss("product-one 2.31e-9"),
    ("H0_k0_s24_a8", "backlund"): miss("product-one 2.49e-9"),
    ("H0_k0_s24_a8", "bianchi"): miss("product-one 6.92e-8"),
    ("H0_k0_s24_a32", "calapso"): miss("|Im q| 8.43e-4"),
    ("H0_k0_s24_a32", "darboux"): miss("|Im q| 2.87e-4"),
    ("H0_k0_s24_a32", "backlund"): miss("product-one 5.86e-8"),
    ("H0_k0_s24_a32", "bianchi"): miss("|Im q| 1.27e-3"),
    ("H0_k0_s24_a32", "christoffel"): miss("|Im q| 6.43e-5"),
    ("H0_k1_s6_a32", "darboux"): miss("reconstructed weights 1.01e-8"),
    ("H0_k1_s24_a32", "calapso"): miss("stored weights 2.33e-9"),
    ("H0_k1_s24_a32", "darboux"): miss("reconstructed weights 7e-9"),
    ("H0.3_k-1_s24_a8", "darboux"): ISOTROPY,
    ("H0.3_k-1_s24_a8", "backlund"): ISOTROPY,
    ("H0.3_k-1_s24_a8", "christoffel"): ROUNDING,
    ("H0.3_k-1_s24_a32", "darboux"): miss("product-one 3.28e-9"),
    ("H0.3_k-1_s24_a32", "christoffel"): ROUNDING,
    ("H0.3_k0_s24_a8", "darboux"): QUANTITY,
    ("H0.3_k0_s24_a8", "bianchi"): QUANTITY,
    ("H0.3_k0_s24_a32", "darboux"): miss("product-one 2.96e-9"),
    ("H0.3_k0_s24_a32", "bianchi"): miss("product-one 2.3e-8"),
    ("H0.3_k1_s24_a8", "darboux"): QUANTITY,
    ("H0.3_k1_s24_a32", "darboux"): miss("product-one 3.46e-9"),
    ("H0.5_k-1_s24_a8", "darboux"): ISOTROPY,
    ("H0.5_k-1_s24_a8", "christoffel"): ROUNDING,
    ("H0.5_k-1_s24_a32", "darboux"): miss("product-one 2.81e-8"),
    ("H0.5_k-1_s24_a32", "backlund"): miss("product-one 1.4e-9"),
    ("H0.5_k-1_s24_a32", "christoffel"): ROUNDING,
    ("H0.5_k0_s24_a32", "bianchi"): miss("product-one 1.75e-9"),
    ("H0.5_k1_s6_a32", "darboux"): miss("stored weights 1.01e-9"),
    ("H0.5_k1_s24_a32", "darboux"): miss("stored weights 1e-9"),
    ("H1_k-1_s6_a32", "calapso"): miss("stored weights 1.28e-9"),
    ("H1_k-1_s6_a32", "darboux"): miss("reconstructed weights 3.76e-9"),
    ("H1_k-1_s24_a8", "christoffel"): ROUNDING,
    ("H1_k-1_s24_a32", "generate"): DATA,
    ("H1_k-1_s24_a32", "christoffel"): ROUNDING,
}

# the start of each refusal's error line, after "verification error: "
REGULARITY = "a transformed face, with frames up to"
FLATNESS = "path dependence; input net is not isothermic"
PATH = "Darboux propagation is path dependent"
CONSTANT = "constant coefficient varies over vertices"
TIMELIKE = "P(mu) is timelike; its complement carries no light cone"

REFUSALS = {
    ("H0_k-1_s24_a8", "calapso"): REGULARITY,
    ("H0_k-1_s24_a8", "backlund"): CONSTANT,
    ("H0_k-1_s24_a8", "bianchi"): CONSTANT,
    ("H0_k-1_s24_a32", "calapso"): REGULARITY,
    ("H0_k-1_s24_a32", "backlund"): PATH,
    ("H0_k-1_s24_a32", "bianchi"): PATH,
    ("H0.3_k-1_s24_a8", "calapso"): REGULARITY,
    ("H0.3_k-1_s24_a8", "bianchi"): CONSTANT,
    ("H0.3_k-1_s24_a32", "calapso"): REGULARITY,
    ("H0.3_k-1_s24_a32", "backlund"): PATH,
    ("H0.3_k-1_s24_a32", "bianchi"): PATH,
    ("H0.5_k-1_s24_a8", "calapso"): REGULARITY,
    ("H0.5_k-1_s24_a8", "bianchi"): CONSTANT,
    ("H0.5_k-1_s24_a32", "calapso"): REGULARITY,
    ("H0.5_k-1_s24_a32", "bianchi"): CONSTANT,
    ("H1_k-1_s24_a8", "calapso"): REGULARITY,
    ("H1_k-1_s24_a8", "darboux"): PATH,
    ("H1_k-1_s24_a8", "backlund"): CONSTANT,
    ("H1_k-1_s24_a8", "bianchi"): CONSTANT,
    ("H1_k-1_s24_a32", "calapso"): FLATNESS,
    ("H1_k-1_s24_a32", "darboux"): PATH,
    ("H1_k-1_s24_a32", "backlund"): PATH,
    ("H1_k-1_s24_a32", "bianchi"): PATH,
    **{(cli_grid.name(H, 1.0, steps, angles), "bianchi"): TIMELIKE
       for H in (0.0, 0.3, 0.5) for steps in STEPS for angles in cli_grid.ANGLES},
}


class VerifyRejects(AssertionError):
    """A command wrote a file that ``verify`` rejects: the one failure a
    known fault may show."""


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """(exit code, stderr, exit code and stdout of ``verify`` on the written
    file or None) of every run of the census, by (net, command)."""
    root = tmp_path_factory.mktemp("census")
    outcomes = {}

    def record(key, args, path):
        code, _, err = cli_grid.run(args)
        checked = cli_grid.run(["verify", str(path)])[:2] if code == 0 else None
        outcomes[key] = (code, err, checked)

    for params in cli_grid.nets(STEPS):
        name = cli_grid.name(*params)
        net = root / f"{name}.json"
        record((name, "generate"), cli_grid.generate_args(*params, net), net)
        for kind in cli_grid.TRANSFORMS:  # without a net file each exits 1
            out = root / f"{name}.{kind}.json"
            record((name, kind), cli_grid.transform_args(kind, net, out), out)
    return outcomes


def _runs():
    for params in cli_grid.nets(STEPS):
        for command in COMMANDS:
            key = (cli_grid.name(*params), command)
            marks = ()
            if key in FAULTS:
                marks = pytest.mark.xfail(strict=True, raises=VerifyRejects, reason=FAULTS[key])
            yield pytest.param(key, marks=marks, id="-".join(key))


def test_the_tables_name_runs_of_the_grid():
    keys = {(cli_grid.name(*params), command)
            for params in cli_grid.nets(STEPS) for command in COMMANDS}
    assert set(FAULTS) <= keys and set(REFUSALS) <= keys
    assert not set(FAULTS) & set(REFUSALS)


@pytest.mark.parametrize("key", _runs())
def test_census(census, key):
    code, err, checked = census[key]
    if key in REFUSALS:
        assert code == 2 and checked is None
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(f"verification error: {REFUSALS[key]}")
        return
    assert code == 0, err
    verify_code, verify_out = checked
    if verify_code != 0:
        raise VerifyRejects(verify_out)
