"""The digest tool's --compare: what moved between two line lists, and what it flags."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "report_digest", Path(__file__).resolve().parents[1] / "tools" / "report_digest.py")
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)

_JSON = ('case {{"estimate":{{"value":{value}}},"ledger":{{"be_uses":{uses}}},'
         '"guarantee_bound":0.5,"passed":{passed}}}')
_ROW = "logdet_svt,exact,0,0.1,0.05,{value},1,0.1,relative,0.5,true,false,0.9,{uses},0,0,7"


def _lines(value=1.0, uses=3, passed="true", message="ValueError: no"):
    return [_JSON.format(value=value, uses=uses, passed=passed),
            f"case {_ROW.format(value=value, uses=uses)}",
            f"other error {message}", "fit: slope=1"]


def test_same_lines_move_nothing(capsys):
    assert digest.compare(_lines(), _lines()) == 0
    assert "unchanged: 4 of 4 OLD lines; moved lines by kind: none" in capsys.readouterr().out


def test_moved_values_are_counted_with_their_largest_relative_change(capsys):
    assert digest.compare(_lines(value=1.0), _lines(value=1.5)) == 0
    out = capsys.readouterr().out
    assert "moved json estimate.value: 1 lines, largest relative change 0.5" in out
    assert "moved csv estimate: 1 lines, largest relative change 0.5" in out
    assert "FLAG" not in out


@pytest.mark.parametrize("change, flag", [
    (dict(passed="false"), "passed"),
    (dict(uses=4), "ledger"),
    (dict(message="ValueError: yes"), "error"),
])
def test_flagged_moves_exit_1(capsys, change, flag):
    assert digest.compare(_lines(), _lines(**change)) == 1
    assert f"FLAG {flag}: " in capsys.readouterr().out


def test_lines_on_one_side_are_flagged(capsys):
    assert digest.compare(_lines(), _lines()[:2]) == 1
    out = capsys.readouterr().out
    assert "only in OLD: 1 error lines" in out and "FLAG error: 1 lines" in out
