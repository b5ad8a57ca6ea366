"""``tools/identity.py``: output identity between two revisions."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_SPEC = importlib.util.spec_from_file_location("identity", _PATH)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def test_worktree_against_itself_is_equal(capsys):
    assert identity.main(["--parent", "worktree", "--change", "worktree",
                          "--preset", "scalar", "--iterations", "20", "--steps", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    files = [line for line in lines if line.startswith("  ")]
    assert lines[0] == f"scalar: {len(files)} of {len(files)} files equal"
    assert {line.split(":")[0].strip() for line in files} == {
        "compare.csv", "final_spec.txt", "snapshots.csv", "trace.csv",
        "chain_diag.csv", "posterior_summary.csv", "autocov.csv"}  # the last three by sample
    assert all(line.endswith(": equal") for line in files)


def test_unknown_revision_exits_2(capsys):
    assert identity.main(["--parent", "no-such-revision", "--preset", "scalar"]) == 2
    assert "git archive failed" in capsys.readouterr().err


def test_csv_diff_reports_the_largest_relative_change_per_column(tmp_path):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("algorithm,rate,value\nreference,0.5,2.0\ninformed,0.25,-4.0\n")
    change.write_text("algorithm,rate,value\nreference,0.5,2.000002\ninformed,0.25,-4.00004\n")
    changes = identity.relative_changes(parent, change)
    assert changes.keys() == {"value"}  # the equal columns are not named
    # relative to the larger magnitude of the two
    assert changes["value"] == pytest.approx(4e-5 / 4.00004)

    change.write_text("algorithm,rate,value\nreference,0.5,2.0\n")
    assert identity.relative_changes(parent, change) == {
        "algorithm": math.inf, "rate": math.inf, "value": math.inf}


def test_spec_diff_reports_each_entry(tmp_path):
    parent, change = tmp_path / "a" / "final_spec.txt", tmp_path / "b" / "final_spec.txt"
    parent.parent.mkdir()
    change.parent.mkdir()
    parent.write_text("family = finite-rank\nfactor = 1.0,0.5\nmean = 3.0\n")
    change.write_text("family = finite-rank\nfactor = 1.0,0.5000005\nmean = 3.0\n")
    changes = identity.relative_changes(parent, change)
    assert changes.keys() == {"factor"}
    assert changes["factor"] == pytest.approx(5e-7 / 0.5000005)
