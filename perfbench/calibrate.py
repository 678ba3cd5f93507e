"""Fixed reference work whose cold run time tracks the machine's speed.

``run.py`` starts this script, in a fresh interpreter, between every
two measured invocations.  Its work never changes and shares no code
with the package, so its run time measures only the machine at that
moment: interpreter start-up, exact integer and fraction arithmetic,
and a working set of some megabytes of tuples and dicts, the mix the
package's own code runs on.  The benchmark scales each measurement by
the calibration runs on either side of it.
"""

import random
from fractions import Fraction


def arithmetic():
    rng = random.Random(20240501)
    n = 60
    a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    prev = 1
    for k in range(n - 1):  # fraction-free (Bareiss) elimination
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            continue
        a[k], a[pivot] = a[pivot], a[k]
        row, p = a[k], a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], row)]
        prev = p
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(i % 7 + 1, i)
    return a[-1][-1], s


def working_set():
    rng = random.Random(1)
    rows = [tuple(rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(192)) for _ in range(168)]
    cols = [tuple(r[j] for r in rows) for j in range(192)]
    acc = 0
    for cj in cols[::3]:
        for r in rows[:50]:
            acc += sum(x * y for x, y in zip(r, cj))
    table = {i: (i, i * i, (i, -i)) for i in range(100000)}
    s = sum(table[i][1] % 7 for i in range(0, 100000, 3))
    return acc, s


if __name__ == "__main__":
    arithmetic()
    working_set()
