"""The byte-identity grid's diff mode, on two small hand-made results."""

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
