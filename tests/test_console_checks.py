"""The console checks: commands with their expected exit code and output.

`console_checks.json` lists each command's arguments, its exit code (0 when
not given) and, when given, its whole stdout, its first line, its line count
or a list of texts its stdout contains.  An entry with "save" writes its
stdout to that file, for a later entry to read.  The test below runs every
entry in process through `cli.main`; run as a script, this file runs the
same entries through an installed command, each in one temporary directory,
and exits 1 on a mismatch:

    python tests/test_console_checks.py leafcat
    python tests/test_console_checks.py python -m leafcat
"""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKS = json.loads(Path(__file__).with_name("console_checks.json").read_text())


def mismatches(check: dict, code: int, out: str) -> list[str]:
    """What in one command's exit code and stdout differs from its entry."""
    got = {"exit": code, "stdout": out, "first_line": out.split("\n", 1)[0],
           "line_count": out.count("\n"),
           "contains": [text for text in check.get("contains", ()) if text in out]}
    want = {"exit": 0, **check}
    wrong = [f"{field} {got[field]!r}, expected {want[field]!r}"
             for field in got if field in want and got[field] != want[field]]
    return [f"leafcat {shlex.join(check['argv'])}: {w}" for w in wrong]


def run_checks(run, where: Path) -> list[str]:
    """Every entry in order, each through run(argv) -> (exit code, stdout),
    with saved files in `where`; the mismatches found."""
    wrong = []
    for check in CHECKS:
        code, out = run(check["argv"])
        if "save" in check:
            (where / check["save"]).write_text(out)
        wrong += mismatches(check, code, out)
    return wrong


def test_console_checks_in_process(capsys, monkeypatch, tmp_path):
    from leafcat.cli import main

    def run(argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    monkeypatch.chdir(tmp_path)
    assert len(CHECKS) == 22
    assert run_checks(run, tmp_path) == []


def test_mismatches_name_each_difference():
    check = {"argv": ["rc", "0101"], "stdout": "1,1,2\n", "first_line": "1", "line_count": 2}
    assert mismatches(check, 0, "1,1,2\n") == [
        "leafcat rc 0101: first_line '1,1,2', expected '1'",
        "leafcat rc 0101: line_count 1, expected 2"]
    assert mismatches(check, 1, "1,1,2\n\n")[:2] == [
        "leafcat rc 0101: exit 1, expected 0",
        "leafcat rc 0101: stdout '1,1,2\\n\\n', expected '1,1,2\\n'"]
    check = {"argv": ["rc", "0101"], "contains": ["1,1", "2\n", "1,2,"]}
    assert mismatches(check, 0, "1,1,2\n") == [
        "leafcat rc 0101: contains ['1,1', '2\\n'], expected ['1,1', '2\\n', '1,2,']"]
    assert mismatches({**check, "contains": ["1,1", "2\n"]}, 0, "1,1,2\n") == []
    assert mismatches({"argv": ["rc", ""], "exit": 2}, 2, "") == []
    assert mismatches({"argv": ["rc", ""], "exit": 2}, 0, "") == [
        "leafcat rc '': exit 0, expected 2"]


def main(command: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        def run(argv):
            done = subprocess.run([*command, *argv], cwd=tmp, capture_output=True, text=True)
            return done.returncode, done.stdout

        wrong = run_checks(run, Path(tmp))
    for line in wrong:
        print(line)
    print(f"{len(CHECKS)} commands, {len(wrong)} mismatches")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["leafcat"]))
