"""Calibration kernel: a fixed pure-Python workload that tracks the machine's speed.

On a shared host the speed of a CPU drifts by tens of percent over minutes,
and every job slows or speeds up with it. The benchmark runs this script as a
child between the jobs of each timed pass and expresses its gated timings in
multiples of this script's time (unit `cal`), which cancels the drift; raw
seconds are reported next to them. It imports nothing from ccodes, so no
change to the program moves it. Its mix mirrors the program's: a
list-of-lists residue fold, a complex exponential sum, a 2^18-entry table and
dict/tuple hashing.
"""

import cmath
import math

MOD = 1500
rows = [[0] * 22 for _ in range(MOD)]
rows[0][0] = 1
for a in range(1, 22):
    rows = [[c + s for c, s in zip(rows[r], [0] + rows[(r - a) % MOD][:-1])] for r in range(MOD)]
acc = 0j
for m in range(1, 40000):
    acc += cmath.exp(2j * math.pi * m / 97) * (1 + 0.5j)
table = [0] * (1 << 18)
for x in range(1, 1 << 18):
    table[x] = (table[x & (x - 1)] + x.bit_length()) % 23
counts: dict = {}
for i in range(100000):
    key = (i % 977, i % 13)
    counts[key] = counts.get(key, 0) + i
print(sum(map(sum, rows)), round(abs(acc)), sum(table), len(counts))
