"""One-edit mutants of leafcat, each run against the Tier-1 tests.

    python tests/mutants.py [NAME ...]

Each mutant is a module of src/leafcat, a text that occurs in it exactly
once, the text that replaces it, and whether it is a known equivalent.  For
each mutant (or each one named) the repository is copied to a temporary
directory, the edit is made there, and Tier-1 runs with -x.  A failing run
kills the mutant.  One line per mutant gives the seconds taken and "killed
by" the id of the test that failed (the last FAILED or ERROR line of the
run), or survived; a mutant that only the match test fails has survived.
The exit status is 1 if a mutant that is no known equivalent survives, or
if an edit does not match exactly once.

Standard library only.  Pytest does not collect this file, and neither
Tier-1 nor CI runs the mutants, as a full run takes minutes; Tier-1 checks
only that every edit matches exactly once (`tests/test_mutants_match.py`).
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
# without the check that each edit matches the source, which every mutant fails
MATCH_TEST = "tests/test_mutants_match.py"
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         f"--ignore={MATCH_TEST}"]
TIMEOUT_S = 900  # a mutant that loops forever is killed by the timeout
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".bench_out", "*.egg-info")

# (name, module, old text, new text, known equivalent)
MUTANTS = [
    # the tree DP: closing the root
    ("dp-close-from-3", "subtrees", "for s in range(2, len(row)):", "for s in range(3, len(row)):",
     True),  # a set of 2 has 2 leaves, which the child's gift brings
    ("dp-close-ge", "subtrees", "if row[s] > best[s]:", "if row[s] >= best[s]:", True),
    ("dp-root-no-close", "subtrees", "best[s] = row[s]", "pass", False),
    ("dp-under-alone", "subtrees", "under = (1, *row[2:])  # per", "under = (0, *row[2:])  # per",
     False),
    ("dp-gift-one-short", "subtrees", "[b + 1 for b in under]", "[b for b in under]", False),
    ("dp-gift-shifted", "subtrees", "map(max, inside[2:], [b", "map(max, inside[1:], [b", False),
    ("dp-gift-no-insides", "subtrees", "[*map(max, inside[2:],", "[*map(min, inside[2:],", False),
    # the tree DP: a walked vertex writes its parent's one-child counts into the values
    ("dp-walked-under-alone", "subtrees", "under = (1, *row[2:])  # from",
     "under = (0, *row[2:])  # from", False),
    ("dp-walked-strict", "subtrees", "if b >= best[t]:", "if b > best[t]:", False),
    ("dp-walked-one-short", "subtrees", "best[t] = b + 1", "best[t] = b", False),
    ("dp-walked-shifted", "subtrees", "enumerate(under, 2):", "enumerate(under, 3):", False),
    ("dp-inside-short", "subtrees", "[0] * (end - v + 2)", "[0] * (end - v + 1)", False),
    ("dp-key-depth", "subtrees", "[x - d + 1 for x in part]", "[x - d for x in part]", False),
    # the tree DP: the root's last merge
    ("dp-last-any-depth", "subtrees", "best if d == 1 and end == n else None",
     "best if end == n else None", False),
    ("dp-last-every-root-child", "subtrees", "best if d == 1 and end == n else None",
     "best if d == 1 else None", False),
    ("dp-last-never", "subtrees", "best if d == 1 and end == n else None",
     "best if d == 0 and end == n else None", False),  # same values; the path is counted
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
    # the CLI: the command read from argv, and the usage line of one sub-parser
    ("cli-peek-any-option", "cli", 'if t != "--json"', 'if not t.startswith("-")', False),
    ("cli-peek-second", "cli", "for t in argv if", "for t in argv[1:] if", False),
    ("cli-peek-none", "cli", 'if t != "--json"), None)', 'if t != "--json"), None) and None',
     False),
    ("cli-metavar-never", "cli", "if len(names) == 1 else None", "if len(names) == 0 else None",
     False),
    ("cli-metavar-always", "cli", "if len(names) == 1 else None", "if len(names) else None", False),
    # the free trees: the shapes and their bound
    ("shape-bound-tight", "subtrees", "else n - 2 - size", "else n - 3 - size", False),
    ("shape-bound-loose", "subtrees", "else n - 2 - size", "else n - 1 - size", False),
    ("shape-half-strict", "subtrees", "top = n if 2 * size <= n", "top = n if 2 * size < n", False),
    ("shape-order-strict", "subtrees", "child <= last)", "child < last)", False),
    # the free trees: the second child's range, cut once for every size up to hi
    ("second-always-lower", "subtrees", "lower[max(h1 - (2 * s1 <= hi), 0)]",
     "lower[max(h1 - 1, 0)]", False),  # the same trees; the merges are counted
    ("second-never-lower", "subtrees", "lower[max(h1 - (2 * s1 <= hi), 0)]", "lower[h1]", False),
    ("second-half-strict", "subtrees", "(2 * s1 <= hi), 0)]", "(2 * s1 < hi), 0)]", False),
    # the free trees: the rule at each node, the equal halves and the last merge
    ("center-height-always", "subtrees", "(h == h1 or", "(True or", False),
    ("center-height-never", "subtrees", "(h == h1 or", "(False or", False),
    ("center-half-strict", "subtrees", "or 2 * s1 <= m)", "or 2 * s1 < m)", False),
    ("center-tie-never", "subtrees", "2 * s1 != m or", "True or", False),
    ("center-tie-strict", "subtrees", ") <= (0, *tree[s1 + 1:])", ") < (0, *tree[s1 + 1:])", False),
    ("center-tie-halves", "subtrees", "tree[1:s1 + 1]", "tree[1:s1]", False),
    ("center-lo-strict", "subtrees", "if m >= lo and", "if m > lo and", False),
    ("center-lo-never", "subtrees", "if m >= lo and", "if True and", False),
    ("center-room-loose", "subtrees", "if m < hi:", "if m <= hi:", False),  # merges counted
    ("center-room-tight", "subtrees", "if m < hi:", "if m < hi - 1:", False),
    ("center-leaf-no-last", "subtrees", "under, gift, values)", "under, gift)", False),
    # known equivalents in the word kernels
    ("binary-lstrip", "words", 'if w.strip("01"):', 'if w.lstrip("01"):', True),
    ("binary-rstrip", "words", 'if w.strip("01"):', 'if w.rstrip("01"):', True),
    ("pnw-reverse-from-1", "words", "pre[1:], pre[::-1])", "pre[1:], pre[:0:-1])", True),
    ("normal-find-after-j", "words", 'j = w.find("01", j) + 1', 'j = w.find("01", j + 1) + 1',
     True),  # w[j] is 1, so no "01" starts at j
]


def _source(tree: Path, module: str) -> Path:
    return tree / "src" / "leafcat" / f"{module}.py"


def _killer(output: str) -> str:
    """The id of the test that failed a -x run: its last FAILED or ERROR line."""
    failed = [line for line in output.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed[-1].split(" ", 1)[1].split(" - ", 1)[0] if failed else "(no FAILED line)"


def _killed(mutant) -> tuple[str | None, float]:
    """The id of the first test the mutant fails, or None if it passes Tier-1."""
    _, module, old, new, _ = mutant
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        path = _source(tree, module)
        path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            run = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 timeout=TIMEOUT_S)
            killer = _killer(run.stdout) if run.returncode else None
        except subprocess.TimeoutExpired:
            killer = "(timeout)"
    return killer, time.perf_counter() - start


def unmatched(mutants=MUTANTS) -> list[str]:
    """A line for each edit whose old text does not occur exactly once in the source."""
    counts = ((module, old, _source(ROOT, module).read_text().count(old))
              for _, module, old, _, _ in mutants)
    return [f"{module}: {old!r} occurs {count} times, not once"
            for module, old, count in counts if count != 1]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    errors = unmatched(chosen)  # every edit is checked before any run
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    unexpected = 0
    for mutant in chosen:
        killer, seconds = _killed(mutant)
        equivalent = mutant[4]
        # the match test fails on every mutant: a mutant that fails it alone survives
        killed = killer is not None and not killer.startswith(MATCH_TEST)
        verdict = (f"killed by {killer}" if killed else "survived"
                   + (f", failing only {killer}" if killer else "")
                   + (" (equivalent)" if equivalent else ""))
        unexpected += not killed and not equivalent
        print(f"{mutant[0]:28} {seconds:6.1f} s  {verdict}", flush=True)
    print(f"{len(chosen)} mutants, {unexpected} unexpected survivors")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
