"""Fixed pure-Python work, timed as a fresh process next to the jobs.

On a shared virtual machine the same instructions can run up to twice as
slowly in phases lasting from seconds to minutes (see README.md), which
moves every wall time with it.  This program does not change with the code
under test, so the ratio of a job's time to this program's time, both taken
in the same run, cancels the host's speed.  The work mixes what the jobs do:
integer bit operations, dict and set updates, small tuples and Fractions.
"""

from fractions import Fraction


def work(rounds: int = 80000) -> tuple:
    seen = set()
    counts: dict = {}
    total = Fraction(0)
    x = 1
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        bits = x & 0xFFFF
        seen.add(bits)
        key = (bits.bit_count(), bits & 7)
        counts[key] = counts.get(key, 0) + 1
        if i % 16 == 0:
            total += Fraction(bits, 1 + (i & 255))
    return len(seen), len(counts), total.denominator.bit_length()


if __name__ == "__main__":
    print(*work())
