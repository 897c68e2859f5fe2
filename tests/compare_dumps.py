"""Compare two ``test_golden.py --dump`` directories number by number.

    python tests/compare_dumps.py OLD_DIR NEW_DIR

For each case whose output differs, prints the case, the number of numbers that
moved and the largest relative difference |new - old| / |old| among them (a zero
old number that moved counts as infinite).  Text that is not a number must match
exactly; a case where it does not is reported as a structural change.  Exits 1
when any case differs structurally.
"""

import math
import os
import re
import sys

NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN")


def split(text: str) -> tuple[list[str], list[float]]:
    """The text between numbers, and the numbers."""
    return NUMBER.split(text), [float(m.replace("Infinity", "inf")) for m in NUMBER.findall(text)]


def compare(old: str, new: str) -> tuple[int, float] | None:
    """(numbers moved, largest relative difference), or None if the text around them differs."""
    (old_text, old_nums), (new_text, new_nums) = split(old), split(new)
    if old_text != new_text:
        return None
    moved = [(a, b) for a, b in zip(old_nums, new_nums) if a != b and not (math.isnan(a) and math.isnan(b))]
    worst = max((abs(b - a) / abs(a) if a else math.inf for a, b in moved), default=0.0)
    return len(moved), worst


def main(argv: list[str]) -> int:
    old_dir, new_dir = argv
    structural = False
    for name in sorted(f for f in os.listdir(old_dir) if f.endswith(".out")):
        with open(os.path.join(old_dir, name), encoding="utf-8") as fh:
            old = fh.read()
        with open(os.path.join(new_dir, name), encoding="utf-8") as fh:
            new = fh.read()
        if old == new:
            continue
        result = compare(old, new)
        if result is None:
            structural = True
            print(f"{name[:-4]}: structural change")
        else:
            print(f"{name[:-4]}: {result[0]} numbers moved, largest relative difference {result[1]:.3g}")
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
