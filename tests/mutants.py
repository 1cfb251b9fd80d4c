"""One-edit mutants of leafcat, each run against the Tier-1 tests.

    python tests/mutants.py [NAME ...]

Each mutant is a module of src/leafcat, a text that occurs in it exactly
once, the text that replaces it, and whether it is a known equivalent.  For
each mutant (or each one named) the repository is copied to a temporary
directory, the edit is made there, and Tier-1 runs with -x.  A failing run
kills the mutant.  One line per mutant gives killed or survived and the
seconds taken.  The exit status is 1 if a mutant that is no known equivalent
survives, or if an edit does not match exactly once.

Standard library only.  Pytest does not collect this file, and neither
Tier-1 nor CI runs it: a full run takes minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TIMEOUT_S = 900  # a mutant that loops forever is killed by the timeout
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".bench_out", "*.egg-info")

# (name, module, old text, new text, known equivalent)
MUTANTS = [
    # the tree DP: closing a vertex
    ("dp-close-from-3", "subtrees", "for s in range(2, len(row)):", "for s in range(3, len(row)):",
     True),  # a set of 2 has 2 leaves, which the child's gift brings
    ("dp-close-ge", "subtrees", "if row[s] > inside[s]:", "if row[s] >= inside[s]:", True),
    ("dp-under-alone", "subtrees", "under = (1, *row[2:])", "under = (0, *row[2:])", False),
    ("dp-gift-one-short", "subtrees", "gift = [b + 1 for b in under]", "gift = [b for b in under]",
     False),
    ("dp-gift-shifted", "subtrees", "map(max, inside[2:], gift)", "map(max, inside[1:], gift)",
     False),
    ("dp-gift-no-insides", "subtrees", "gift = [*map(max, inside[2:], gift)]",
     "gift = [*map(min, inside[2:], gift)]", False),
    ("dp-inside-short", "subtrees", "[0] * (end - v + 2)", "[0] * (end - v + 1)", False),
    ("dp-key-depth", "subtrees", "[x - d + 1 for x in part]", "[x - d for x in part]", False),
    # the tree DP: the root's last merge
    ("dp-last-any-depth", "subtrees", "best if d == 1 and end == n else None",
     "best if end == n else None", False),
    ("dp-last-every-root-child", "subtrees", "best if d == 1 and end == n else None",
     "best if d == 1 else None", False),
    ("dp-last-never", "subtrees", "best if d == 1 and end == n else None",
     "best if d == 0 and end == n else None", False),  # same values; the path is counted
    # the tree DP: the root chain
    ("dp-chain-short-counts", "subtrees", "root[3][:v + 1]))", "root[3][:v]))", False),
    ("dp-chain-resume-early", "subtrees", "v = len(prefix) - 1", "v = len(prefix) - 2", False),
    # the merge
    ("merge-row-short", "subtrees", "row + [_NONE] * len(under)", "row + [_NONE] * (len(under) - 1)",
     False),
    ("merge-start-1", "subtrees", "start = 2  # the size", "start = 1  # the size", False),
    ("merge-outer-swapped", "subtrees", "if len(under) < len(tops) else",
     "if len(under) > len(tops) else", True),  # either row may loop outside
    ("merge-ge", "subtrees", "if a + b > grown[t]:", "if a + b >= grown[t]:", True),
    ("merge-gift-min", "subtrees", "if x > target[t]:", "if x < target[t]:", False),
    ("merge-gift-shifted", "subtrees", "for t, x in enumerate(gift, 2):",
     "for t, x in enumerate(gift, 1):", False),
    # the free-tree successor
    ("free-second-child-from-1", "subtrees", "m = levels.index(1, 2)", "m = levels.index(1, 1)",
     False),
    ("free-one-child-m", "subtrees", "        m = n\n", "        m = n - 1\n", False),
    ("free-height-ge", "subtrees", "if rest_height > left_height or",
     "if rest_height >= left_height or", False),
    ("free-one-child-test", "subtrees", "if levels[p] > 2:", "if levels[p] >= 2:", False),
    ("rooted-parent", "subtrees", "q = p - 1\n", "q = p - 2\n", False),
    # known equivalents in the word kernels
    ("binary-lstrip", "words", 'if w.strip("01"):', 'if w.lstrip("01"):', True),
    ("binary-rstrip", "words", 'if w.strip("01"):', 'if w.rstrip("01"):', True),
    ("pnw-reverse-from-1", "words", "pre[1:], pre[::-1])", "pre[1:], pre[:0:-1])", True),
    ("normal-find-after-j", "words", 'j = w.find("01", j) + 1', 'j = w.find("01", j + 1) + 1',
     True),  # w[j] is 1, so no "01" starts at j
]


def _source(tree: Path, module: str) -> Path:
    return tree / "src" / "leafcat" / f"{module}.py"


def _killed(mutant) -> tuple[bool, float]:
    _, module, old, new, _ = mutant
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        path = _source(tree, module)
        path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            run = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                 timeout=TIMEOUT_S)
            killed = run.returncode != 0
        except subprocess.TimeoutExpired:
            killed = True
    return killed, time.perf_counter() - start


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    for _, module, old, _, _ in chosen:  # every edit is checked before any run
        count = _source(ROOT, module).read_text().count(old)
        if count != 1:
            print(f"{module}: {old!r} occurs {count} times, not once", file=sys.stderr)
            return 1
    unexpected = 0
    for mutant in chosen:
        killed, seconds = _killed(mutant)
        equivalent = mutant[4]
        verdict = "killed" if killed else "survived" + (" (equivalent)" if equivalent else "")
        unexpected += not killed and not equivalent
        print(f"{mutant[0]:28} {verdict:24} {seconds:6.1f} s", flush=True)
    print(f"{len(chosen)} mutants, {unexpected} unexpected survivors")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
