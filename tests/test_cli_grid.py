"""The byte-identity grid's diff mode, on two small hand-made results, and
the usage error of its --against mode."""

import json

import cli_grid

RUN = {"exit": 0, "stdout": "wrote net.json\n", "stderr": "", "files": {"net.json": "ab12"}}


def test_diff_reports_the_runs_that_differ(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    results = {"generate a": RUN, "verify a": {**RUN, "files": {}}}
    old.write_text(json.dumps(results))
    new.write_text(json.dumps(results))
    assert cli_grid.main(["--diff", str(old), str(new)]) == 0
    assert capsys.readouterr().out == "0 of 2 runs differ\n"
    new.write_text(json.dumps({**results, "generate a": {**RUN, "files": {"net.json": "cd34"}}}))
    assert cli_grid.main(["--diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out == "generate a: files\n1 of 2 runs differ\n"


def test_against_an_unknown_revision_is_a_usage_error(tmp_path, capsys):
    root = tmp_path / "grid"
    assert cli_grid.main(["--against", "no-such-revision", str(root)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: no src at revision 'no-such-revision': ")
    assert not root.exists()
