"""Reference implementations the benchmark checks the program's outputs against.

Each function works on plain tuples (a gallery is its tuple of columns in
reading order, the rank is passed alongside) and follows the definitions in
the package README.  Nothing here imports the package, so a change under
``src/`` cannot change the oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb, prod


def weyl_dimension(coeffs) -> int:
    """Weyl's product formula on fundamental coordinates (m_1, ..., m_{n-1})."""
    n = len(coeffs) + 1
    counts = [sum(coeffs[k:]) for k in range(n - 1)] + [0]
    numerator = denominator = 1
    for i in range(n):
        for j in range(i + 1, n):
            numerator *= counts[i] - counts[j] + j - i
            denominator *= j - i
    return numerator // denominator


def dominant_counts(coeffs) -> tuple[int, ...]:
    """Letter counts (min 0) of the highest weight with these fundamental coordinates."""
    return tuple(sum(coeffs[k:]) for k in range(len(coeffs))) + (0,)


def count_galleries(shape, n: int) -> int:
    return prod(comb(n, d) for d in shape)


def fmt(columns) -> str:
    """Display string: columns right to left in reading order, entries top to bottom."""
    return "|".join(",".join(map(str, col)) for col in reversed(columns))


def parse(text: str) -> tuple[tuple[int, ...], ...]:
    if not text:
        return ()
    return tuple(
        tuple(int(a) for a in chunk.split(",")) for chunk in reversed(text.split("|"))
    )


def word(columns) -> tuple[int, ...]:
    return tuple(a for col in columns for a in col)


def weight(columns, n: int) -> tuple[int, ...]:
    counts = [0] * n
    for a in word(columns):
        counts[a - 1] += 1
    low = min(counts)
    return tuple(c - low for c in counts)


def path(columns, n: int) -> list[tuple[int, ...]]:
    cur = [0] * n
    out = [tuple(cur)]
    for col in columns:
        for a in col:
            cur[a - 1] += 1
        out.append(tuple(cur))
    return out


def is_dominant(columns, n: int) -> bool:
    return all(
        all(v[k] >= v[k + 1] for k in range(n - 1)) for v in path(columns, n)
    )


def tags(columns, i: int) -> str:
    """Tag of each column for index i, in display (left-to-right) order."""
    out = []
    for col in reversed(columns):
        low, high = i in col, i + 1 in col
        out.append("0" if low == high else "+" if low else "-")
    return "".join(out)


def apply(columns, i: int, op: str):
    """f_i or e_i: cancel adjacent "- +" display pairs, then bump a survivor."""
    survivors: list[tuple[int, str]] = []
    for position, tag in enumerate(tags(columns, i)):
        if tag == "+" and survivors and survivors[-1][1] == "-":
            survivors.pop()
        elif tag != "0":
            survivors.append((position, tag))
    if op == "f":
        pluses = [p for p, t in survivors if t == "+"]
        if not pluses:
            return None
        position, old, new = pluses[-1], i, i + 1
    else:
        minuses = [p for p, t in survivors if t == "-"]
        if not minuses:
            return None
        position, old, new = minuses[0], i + 1, i
    k = len(columns) - 1 - position
    column = tuple(new if a == old else a for a in columns[k])
    return columns[:k] + (column,) + columns[k + 1 :]


def normal_form(columns, n: int) -> tuple[tuple[int, ...], ...]:
    """Row-insert the word last letter first, drop full columns, repeat until stable."""
    letters = word(columns)
    while True:
        rows: list[list[int]] = []
        for x in reversed(letters):
            for row in rows:
                k = bisect_right(row, x)
                if k == len(row):
                    row.append(x)
                    break
                row[k], x = x, row[k]
            else:
                rows.append([x])
        display = [
            tuple(row[j] for row in rows if j < len(row)) for j in range(len(rows[0]))
        ] if rows else []
        kept = [col for col in display if len(col) < n]
        if len(kept) == len(display):
            return tuple(reversed(display))
        letters = word(tuple(reversed(kept)))


def label_coeffs(tableau, n: int) -> tuple[int, ...]:
    """Fundamental coordinates of lambda: column lengths of the normal form."""
    coeffs = [0] * (n - 1)
    for col in tableau:
        coeffs[len(col) - 1] += 1
    return tuple(coeffs)


def crossings(columns, n: int) -> list[list[tuple[int, int, int]]]:
    """Per path segment, the sorted affine roots (a, b, level) crossed upwards."""
    vertices = path(columns, n)
    return [
        sorted(
            (a, b, cur[a - 1] - cur[b - 1])
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if nxt[a - 1] - nxt[b - 1] > cur[a - 1] - cur[b - 1]
        )
        for cur, nxt in zip(vertices, vertices[1:])
    ]


def splice_checks(gamma, delta, n: int) -> tuple[bool, bool]:
    """(disjointness, stabilizer condition) for gamma * (1, 2, ..., n) * delta."""
    eta = tuple(delta) + tuple((a,) for a in range(1, n + 1)) + tuple(gamma)
    k = len(delta)
    segments = crossings(eta, n)[k : k + n]
    roots = [root for segment in segments for root in segment]
    start = path(eta, n)[k]
    stabilizer = all(start[a - 1] - start[b - 1] <= m for a, b, m in roots)
    return len(roots) == len(set(roots)), stabilizer


def crystal_problem(vertices, edges, n: int, coeffs) -> str | None:
    """Why (vertices, edges) is not the crystal B(lambda), or None if it is.

    ``vertices`` are column tuples, ``edges`` a set of (from, to, i) vertex
    indices.  The graph must have Weyl-dimension many vertices, be closed
    under every e_i and f_i, and have exactly the f_i edges.
    """
    if len(vertices) != weyl_dimension(coeffs):
        return f"{len(vertices)} vertices, Weyl dimension {weyl_dimension(coeffs)}"
    index = {v: k for k, v in enumerate(vertices)}
    expected = set()
    for k, v in enumerate(vertices):
        for i in range(1, n):
            lowered = apply(v, i, "f")
            if lowered is not None:
                if lowered not in index:
                    return f"f_{i} leaves the graph at {fmt(v)}"
                expected.add((k, index[lowered], i))
            raised = apply(v, i, "e")
            if raised is not None and raised not in index:
                return f"e_{i} leaves the graph at {fmt(v)}"
    return None if expected == edges else "edge set differs from the f_i moves"
