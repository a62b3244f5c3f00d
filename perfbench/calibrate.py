"""Fixed reference task that reads the machine's speed.

    python3 perfbench/calibrate.py

Starts like a cantordyn command (a fresh interpreter that imports numpy) and
then does a fixed amount of the same kinds of work: exact rational
arithmetic, tuple-keyed dictionaries and small permutation arrays.  It never
changes with the program, so the benchmark divides its command times by this
task's time, measured in the same run, to cancel the machine's own speed.
"""

from fractions import Fraction

import numpy as np


def main():
    acc = Fraction(0)
    table = {}
    for i in range(1, 40000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = ((i * 7919) % 65521, i % 13)
        table[key] = table.get(key, 0) + 1
    perm = np.arange(4096, dtype=np.int32)
    step = np.roll(perm, 1)
    seen = set()
    for _ in range(400):
        perm = step[perm]
        seen.add(perm.tobytes())
    return 0 if acc > 0 and table and seen else 1


if __name__ == "__main__":
    raise SystemExit(main())
