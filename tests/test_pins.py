"""`tools/pins.py`, the table of pinned CLI documents, checks what it pins.

The tool is loaded by path.  Its one fast row, the doubled-e_1 `closure C 2
2` (exit 1, a pinned document and one `FAIL:` line), must hold as pinned,
and must fail whenever one of its fields is changed: the digest, the exit
code, the stderr line, a peak-RSS bound below its peak, or a timeout
shorter than its run, where the child is killed and reaped.
"""

import os

import pytest

from conftest import load_tool

pins = load_tool("pins")

(ROW,) = [pin for pin in pins.PINS if pin.argv == "closure C 2 2"]


def test_the_faulted_closure_row_holds_as_pinned():
    assert (ROW.fault, ROW.code, len(ROW.stderr)) == ("doubled e_1", 1, 1)
    problems, _, _ = pins.check(ROW)
    assert problems == []


EDITS = {  # field: (changed value, the one problem it must raise)
    "digest": ("0" * 64, f"digest {ROW.digest}"),
    "code": (0, "exit 1, expected 0"),
    "stderr": (("FAIL: relation B2",), f"stderr {ROW.stderr}"),
    "rss_mib": (1, "peak RSS over 1 MiB"),
}


@pytest.mark.parametrize("field", EDITS)
def test_one_changed_field_fails_the_row(field):
    value, problem = EDITS[field]
    problems, _, _ = pins.check(ROW._replace(**{field: value}))
    assert problems == [problem]


def test_a_row_past_its_timeout_is_killed_and_no_child_is_left():
    problems, wall, _ = pins.check(ROW._replace(timeout=0.005))
    assert problems[0] == "killed at its 0.005 s timeout"
    assert "exit -9, expected 1" in problems
    assert wall < 5
    with pytest.raises(ChildProcessError):  # no child of this process, running or unreaped
        os.waitpid(-1, os.WNOHANG)
