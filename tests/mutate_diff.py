"""Mutation run on the lines one commit changes in src/.

    python tests/mutate_diff.py REV [--seed N]

Takes the src/ lines that `git diff -U0 REV~1 REV` adds or changes, and
makes one mutant per token on them: `+` and `-` swapped, `*` and `//`
swapped, a comparison turned into its neighbour (`<` and `<=`, `>` and
`>=`, `==` and `!=`), `and` and `or` swapped, an integer literal plus 1,
a `not` dropped (so `not x` reads `x`, `not in` reads `in` and `is not`
reads `is`), and an `is` that no `not` follows turned into `is not`:
with the dropped `not`, `is` and `is not` are swapped both ways.
Strings and comments are not mutated.  Each mutant is written into a
`git archive` copy of REV, one at a time, and tier-1 runs on it with
`-x` and criterion 7 (which fails by design) deselected: a failing run,
or one past TIMEOUT_S, kills the mutant.  The mutants run in an order
shuffled by the seed.  Prints one line per mutant and a summary; the
exit code is 0 whatever survives.  Stdlib only, and not collected by
pytest.
"""

from __future__ import annotations

import argparse
import io
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {"+": "-", "-": "+", "*": "//", "//": "*", "<": "<=", "<=": "<", ">": ">=",
         ">=": ">", "==": "!=", "!=": "==", "and": "or", "or": "and"}
DESELECT = "tests/test_acceptance.py::test_criterion_7_deep_hole_counts"
TIMEOUT_S = 300  # per tier-1 run


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def changed_lines(rev: str) -> dict[str, set[int]]:
    """{path: line numbers at REV} of the src/ lines REV adds or changes."""
    lines: dict[str, set[int]] = {}
    path = None
    for line in _git("diff", "-U0", f"{rev}~1", rev, "--", "src").splitlines():
        if line.startswith("+++ "):
            path = None if line == "+++ /dev/null" else line[len("+++ b/"):]
        elif line.startswith("@@") and path and path.endswith(".py"):
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", line).groups()
            first, n = int(start), 1 if count is None else int(count)
            lines.setdefault(path, set()).update(range(first, first + n))
    return lines


def mutants(source: str, rows: set[int]):
    """(row, col, old, new) for each token mutation on the given rows that
    still compiles (a `*` that unpacks would not)."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for tok, after in zip(tokens, tokens[1:]):
        row, col = tok.start
        if row not in rows:
            continue
        if tok.type in (tokenize.OP, tokenize.NAME) and tok.string in SWAPS:
            new = SWAPS[tok.string]
        elif tok.type == tokenize.NAME and tok.string == "not":
            new = ""
        elif tok.type == tokenize.NAME and tok.string == "is" and after.string != "not":
            new = "is not"
        elif tok.type == tokenize.NUMBER and re.fullmatch(r"\d+", tok.string):
            new = str(int(tok.string) + 1)
        else:
            continue
        try:
            compile(_apply(source, row, col, tok.string, new), "<mutant>", "exec")
        except SyntaxError:
            continue
        yield row, col, tok.string, new


def _apply(source: str, row: int, col: int, old: str, new: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[row - 1]
    lines[row - 1] = text[:col] + new + text[col + len(old):]
    return "".join(lines)


def _tier1(copy: Path) -> bool:
    """Whether tier-1 passes on the copy (a run past the timeout fails)."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--deselect", DESELECT],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(copy)], input=archive, check=True)
        if not _tier1(copy):
            print(f"tier-1 fails on {args.rev} itself; no mutant can be judged")
            return 1
        return _run_mutants(copy, args)


def _run_mutants(copy: Path, args) -> int:
    """Run the shuffled mutants of the diff's lines on the copy, one at a
    time, and print each verdict and the summary."""
    found = []
    for path, rows in sorted(changed_lines(args.rev).items()):
        source = (copy / path).read_text()
        found += [(path, source, *m) for m in mutants(source, rows)]
    random.Random(args.seed).shuffle(found)

    killed = 0
    survivors = []
    for path, source, row, col, old, new in found:
        target = copy / path
        target.write_text(_apply(source, row, col, old, new))
        start = time.perf_counter()
        survived = _tier1(copy)
        target.write_text(source)
        verdict = "survived" if survived else "killed"
        label = f"{path}:{row}:{col} {old!r} -> {new!r}"
        print(f"{verdict:8} {label}  ({time.perf_counter() - start:.1f} s)", flush=True)
        if survived:
            survivors.append(label)
        else:
            killed += 1
    print(f"{len(found)} mutants of {args.rev} (seed {args.seed}): "
          f"{killed} killed, {len(survivors)} survived")
    for label in survivors:
        print(f"  survivor {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
