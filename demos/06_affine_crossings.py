"""Affine wall crossings along gallery paths and the staircase splice checks.

For each path segment, the crossing set records the affine roots whose wall
contains the segment's start while the segment moves strictly to the
positive side.  Splicing the staircase word 1..n between two galleries
crosses each wall group at most once: the n spliced crossing sets are
pairwise disjoint, and each crossed wall lies weakly above the splice start.
"""

import random

from gallery_crystals import (
    Gallery,
    concat,
    crossing_sets,
    format_gallery,
    gallery_from_word,
    parse_gallery,
    path_vertices,
    random_gallery,
    splice_checks,
    weight,
)

staircase = gallery_from_word((1, 2, 3), 3)
print("gallery:", format_gallery(staircase))
print("path   :", path_vertices(staircase))
for k, segment in enumerate(crossing_sets(staircase)):
    pretty = ", ".join(f"(e{r.a}-e{r.b}, {r.level})" for r in segment) or "(none)"
    print(f"  segment {k}: {pretty}")

print("\nweight of the staircase word is zero:", not any(weight(staircase).counts))

gamma = parse_gallery("1|1", 3)
delta = parse_gallery("2,3", 3)
# eta reads delta first, so the splice starts at segment len(delta.columns)
eta = concat(gamma, concat(staircase, delta))
k = len(delta.columns)
print("\nspliced gallery:", format_gallery(eta), " splice starts at segment", k)
checks = splice_checks(gamma, delta)
print("disjointness   :", checks[0])
print("stabilizer     :", checks[1])

rng = random.Random(7)
trials = 200
ok = sum(
    1
    for _ in range(trials)
    if all(check.ok for check in splice_checks(random_gallery(rng, 3), random_gallery(rng, 3)))
)
print(f"\nrandomized check: {ok}/{trials} pairs satisfy both conditions")

print("\ntrivial splice (both factors empty):",
      splice_checks(Gallery(3), Gallery(3))[0].ok)
