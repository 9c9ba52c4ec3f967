"""The benchmark's three workloads.

Each workload turns a seeded ``random.Random`` into a list of items, runs one
item against the library (the timed part), and checks the item's output
against ``oracle`` (untimed).  ``run`` calls the spanned library functions
through ``api`` so that the traced run can time them from outside; every
other library call goes through ``lib``, the namespace of the package's
modules.  ``check`` returns a problem (or None), the item's canonical output
bytes for the workload digest, and counts derived from the output.

A workload also names a few CLI requests that the harness sends through
real ``python -m gallery_crystals`` processes.
"""

from __future__ import annotations

import io
import json
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from itertools import combinations

import oracle


def _dominant_weights(rank: int, cap: int) -> list[tuple[int, ...]]:
    """Nonzero fundamental coordinates of rank ``rank`` with Weyl dimension <= cap."""
    out = []

    def extend(prefix):
        if len(prefix) == rank - 1:
            if any(prefix) and oracle.weyl_dimension(prefix) <= cap:
                out.append(prefix)
            return
        m = 0
        # The dimension grows with every coordinate, so stop at the first overflow.
        while oracle.weyl_dimension(prefix + (m,) + (0,) * (rank - 2 - len(prefix))) <= cap:
            extend(prefix + (m,))
            m += 1

    extend(())
    return out


def _compositions(total: int, parts: range):
    if total == 0:
        yield ()
        return
    for p in parts:
        if p <= total:
            for rest in _compositions(total - p, parts):
                yield (p,) + rest


@cache
def _columns_of_length(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(1, n + 1), d))


def _columns(rng, n: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Random columns: a uniform length in 1..n-1, then a uniform column of it."""
    return tuple(
        rng.choice(_columns_of_length(n, rng.randint(1, n - 1))) for _ in range(length)
    )


def _by_columns(gallery):
    return gallery.columns


class CrystalBuild:
    """B(lambda) by BFS against the SSYT enumerator: acceptance criterion 8."""

    name = "crystal-build"
    # Rank 2 keeps the long one-row shapes, where the cost per vertex grows
    # with the gallery's length; that growth is also why its cap is lower.
    CAPS = ((2, 150), (3, 500), (4, 500), (5, 500))

    def inputs(self, lib, rng):
        coeffs = [c for rank, cap in self.CAPS for c in _dominant_weights(rank, cap)]
        rng.shuffle(coeffs)
        return [(",".join(map(str, c)), lib.galleries.DominantWeight(c)) for c in coeffs]

    def warmup(self, lib):
        return [(str(c), lib.galleries.DominantWeight(c)) for c in ((4,), (1, 1), (1, 0, 1))]

    def run(self, api, lib, lam):
        graph = api.highest_weight_crystal(lam)
        tableaux = api.enumerate_ssyt(lam.column_shape(), lam.rank)
        by_graph = Counter(api.weight(v) for v in graph.vertices)
        by_tableaux = Counter(api.weight(t) for t in tableaux)
        return graph, tableaux, by_graph, by_tableaux

    def check(self, lam, output):
        graph, tableaux, by_graph, by_tableaux = output
        dim = oracle.weyl_dimension(lam.coeffs)
        problem = None
        if len(graph.vertices) != dim or len(tableaux) != dim:
            problem = f"|B| = {len(graph.vertices)}, {len(tableaux)} tableaux, Weyl dimension {dim}"
        elif by_graph != by_tableaux:
            problem = "weight multiplicities of B(lambda) and the tableaux differ"
        elif set(tableaux) != graph.vertices:
            problem = "B(lambda) is not the set of semistandard tableaux"
        named = sorted((oracle.fmt(v.columns), v) for v in graph.vertices)
        names = [name for name, _ in named]
        index = {v: k for k, (_, v) in enumerate(named)}
        edges = sorted((index[u], i, index[v]) for u, v, i in graph.edges)
        canonical = f"{lam.coeffs}\n{' '.join(names)}\n{edges}\n".encode()
        stats = {"bfs_vertices": len(graph.vertices), "bfs_edges": len(graph.edges),
                 "ssyt_enumerated": len(tableaux)}
        return problem, canonical, stats

    def spawn_requests(self, rng, count):
        small = [c for rank, _ in self.CAPS for c in _dominant_weights(rank, 20)]
        return [
            {"cmd": "blambda", "rank": len(c) + 1, "format": "json", "coeffs": c}
            for c in rng.sample(small, count)
        ]


class ShapeCensus:
    """Decompose every small shape and label its galleries: acceptance criterion 9."""

    name = "shape-census"
    # (rank, most boxes): 135 shapes, 35,032 galleries.  Item costs have
    # plateaus (shapes that permute the same columns) around the median and
    # the 90th percentile, so neither percentile falls into a gap.
    CAPS = ((2, 10), (3, 7), (4, 5), (5, 5), (6, 4))
    SAMPLED_LABELS = 2

    def shapes(self):
        return [
            (rank, shape)
            for rank, cap in self.CAPS
            for boxes in range(1, cap + 1)
            for shape in _compositions(boxes, range(1, rank))
        ]

    def inputs(self, lib, rng):
        shapes = self.shapes()
        rng.shuffle(shapes)
        # Labels are sampled through galleries, so the sample is fixed before the run.
        return [
            (f"{rank}:{','.join(map(str, shape))}",
             (rank, shape, tuple(rng.randrange(oracle.count_galleries(shape, rank))
                                 for _ in range(self.SAMPLED_LABELS))))
            for rank, shape in shapes
        ]

    def warmup(self, lib):
        return [("3:1,2", (3, (1, 2), (0, 4))), ("4:1,1", (4, (1, 1), (5, 11)))]

    def run(self, api, lib, payload):
        rank, shape, picks = payload
        galleries = list(lib.graphs.galleries_of_shape(shape, rank))
        groups = {}
        for g in galleries:
            groups.setdefault(api.normal_form(g), []).append(g)
        decomposition = api.decompose(shape, rank)
        labels = [api.mv_label(galleries[k]) for k in picks]
        fibers = [api.fiber(label, shape, rank) for label in labels]
        report = api.verify_surjectivity(shape, rank)
        return galleries, groups, decomposition, labels, fibers, report

    def check(self, payload, output):
        rank, shape, picks = payload
        galleries, groups, decomposition, labels, fibers, report = output
        total = oracle.count_galleries(shape, rank)
        mult = {e.lam.coeffs: e.multiplicity for e in decomposition.entries}
        labels_expected = sum(oracle.weyl_dimension(c) for c in mult)
        problem = None
        if len(galleries) != total or len(set(galleries)) != total or decomposition.total != total:
            problem = f"shape has {len(galleries)} galleries, decompose says {decomposition.total}, expected {total}"
        elif sum(m * oracle.weyl_dimension(c) for c, m in mult.items()) != total:
            problem = "sum of multiplicity * Weyl dimension differs from the gallery count"
        elif len(groups) != labels_expected:
            problem = f"{len(groups)} normal forms, expected {labels_expected} labels"
        elif any(len(members) != mult.get(oracle.label_coeffs(t.columns, rank))
                 for t, members in groups.items()):
            problem = "a plactic class within the shape differs in size from its multiplicity"
        elif not report.ok or report.labels_checked != labels_expected:
            problem = f"surjectivity: ok={report.ok}, {report.labels_checked} labels checked"
        for entry in decomposition.entries:
            counts = oracle.dominant_counts(entry.lam.coeffs)
            reps = [r.columns for r in entry.representatives]
            if len(set(reps)) != entry.multiplicity or any(
                not oracle.is_dominant(r, rank) or oracle.weight(r, rank) != counts
                or tuple(map(len, r)) != shape for r in reps
            ):
                problem = problem or f"representatives of lambda {entry.lam.coeffs} are wrong"
        for k, label, found in zip(picks, labels, fibers):
            columns = galleries[k].columns
            tableau = oracle.normal_form(columns, rank)
            if (label.tableau.columns != tableau
                    or label.lam.coeffs != oracle.label_coeffs(tableau, rank)
                    or label.mu.counts != oracle.weight(columns, rank)):
                problem = problem or f"label of {oracle.fmt(columns)} is wrong"
            elif list(found) != sorted(groups.get(label.tableau, ()), key=_by_columns):
                problem = problem or f"fiber of {oracle.fmt(tableau)} differs from its plactic class"
        lines = [f"{rank} {shape} {total}"]
        lines += [f"{e.lam.coeffs} {e.multiplicity} " + " ".join(oracle.fmt(r.columns) for r in e.representatives)
                  for e in decomposition.entries]
        lines += sorted(f"{oracle.fmt(t.columns)} {len(m)}" for t, m in groups.items())
        lines += [" ".join(oracle.fmt(g.columns) for g in found) for found in fibers]
        return problem, "\n".join(lines).encode() + b"\n", {}

    def spawn_requests(self, rng, count):
        small = [(r, s) for r, s in self.shapes() if oracle.count_galleries(s, r) <= 50]
        return [
            {"cmd": "decompose", "rank": r, "format": "json", "shape": s}
            for r, s in rng.sample(small, count)
        ]


# -- cli-session --------------------------------------------------------------

LONG_COMMANDS = ("word", "apply", "signature", "normal-form", "phi", "weight",
                 "dominant", "crossings", "path")
FORMATS = {
    "word": ("text", "json"), "apply": ("text", "json"), "signature": ("text", "json"),
    "normal-form": ("text",), "phi": ("text", "json"), "weight": ("text", "json"),
    "dominant": ("text", "json"), "crossings": ("text", "json"), "path": ("json", "svg"),
    "component": ("json", "dot"), "blambda": ("json", "dot"),
    "decompose": ("json", "text"), "appendix-check": ("json", "text"),
}


def long_request(rng) -> dict:
    """One pass over a long gallery: ranks 3-6, 10-400 columns."""
    cmd = rng.choice(LONG_COMMANDS)
    fmt = rng.choice(FORMATS[cmd])
    n = 3 if fmt == "svg" else rng.randint(3, 6)
    req = {"cmd": cmd, "rank": n, "format": fmt,
           "gallery": _columns(rng, n, rng.randint(10, 400))}
    if cmd in ("apply", "signature"):
        req["i"] = rng.randint(1, n - 1)
    if cmd == "apply":
        req["op"] = rng.choice("fe")
        req["times"] = rng.randint(1, 20)
    return req


def graph_request(rng) -> dict:
    """A small crystal graph, decomposition or splice check."""
    cmd = rng.choice(("component", "blambda", "decompose", "appendix-check"))
    n = rng.randint(3, 4)
    req = {"cmd": cmd, "rank": n, "format": rng.choice(FORMATS[cmd])}
    if cmd == "component":
        req["gallery"] = _columns(rng, n, rng.randint(1, 3))
    elif cmd == "blambda":
        coeffs = (0,) * (n - 1)
        while not 1 < oracle.weyl_dimension(coeffs) <= 64:
            coeffs = tuple(rng.randint(0, 3) for _ in range(n - 1))
        req["coeffs"] = coeffs
    elif cmd == "decompose":
        req["shape"] = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 3)))
    else:
        req["rank"] = n = rng.randint(3, 5)
        req["gamma"] = _columns(rng, n, rng.randint(0, 3))
        req["delta"] = _columns(rng, n, rng.randint(0, 3))
        req["seed"] = rng.randrange(10**6)
        req["cases"] = 20
    return req


def argv(req: dict) -> list[str]:
    out = [req["cmd"], "--rank", str(req["rank"]), "--format", req["format"]]
    if "op" in req:
        out += ["--op", req["op"], "--times", str(req["times"])]
    if "i" in req:
        out += ["--i", str(req["i"])]
    if "coeffs" in req:
        out += ["--lambda", ",".join(map(str, req["coeffs"]))]
    if "shape" in req:
        out += ["--shape", ",".join(map(str, req["shape"]))]
    if "seed" in req:
        out += ["--gamma", oracle.fmt(req["gamma"]), "--delta", oracle.fmt(req["delta"]),
                "--seed", str(req["seed"]), "--cases", str(req["cases"])]
    if "gallery" in req:
        out.append(oracle.fmt(req["gallery"]))
    return out


_DOT_VERTEX = re.compile(r'^  v(\d+) \[label="(.*)"\];$')
_DOT_EDGE = re.compile(r'^  v(\d+) -> v(\d+) \[label="(\d+)"\];$')
_DECOMPOSE_LINE = re.compile(r"^lambda ([\d,]+): multiplicity (\d+)  \[(.*)\]$")


def _graph_problem(req, out):
    n = req["rank"]
    if req["format"] == "json":
        doc = json.loads(out)
        names = doc["vertices"]
        edge_list = [(e["from"], e["to"], e["i"]) for e in doc["edges"]]
        if doc["rank"] != n:
            return "wrong rank"
    else:
        lines = out.splitlines()
        if lines[0] != "digraph crystal {" or lines[-1] != "}":
            return "not a DOT digraph"
        names = [m.group(2) for m in map(_DOT_VERTEX.match, lines) if m]
        edge_list = [tuple(map(int, m.groups())) for m in map(_DOT_EDGE.match, lines) if m]
        if len(names) + len(edge_list) != len(lines) - 2:
            return "unparsed DOT lines"
    vertices = [oracle.parse(name) for name in names]
    if req["cmd"] == "component":
        coeffs = oracle.label_coeffs(oracle.normal_form(req["gallery"], n), n)
        source = req["gallery"]
    else:
        coeffs = req["coeffs"]
        source = tuple(tuple(range(1, d + 1)) for d, m in enumerate(coeffs, 1) for _ in range(m))
    if source not in vertices:
        return "graph misses its source gallery"
    if len(set(edge_list)) != len(edge_list):
        return "repeated edges"
    return oracle.crystal_problem(vertices, set(edge_list), n, coeffs)


def _decomposition_problem(req, out):
    n, shape = req["rank"], req["shape"]
    if req["format"] == "json":
        doc = json.loads(out)
        total = doc["total_galleries"]
        entries = [(tuple(e["lambda"]), e["multiplicity"], e["representatives"])
                   for e in doc["entries"]]
        if doc["rank"] != n or tuple(doc["shape"]) != shape:
            return "wrong rank or shape"
    else:
        lines = out.splitlines()
        total = int(lines[0].removeprefix("galleries: "))
        entries = []
        for line in lines[1:]:
            lam, m, reps = _DECOMPOSE_LINE.match(line).groups()
            entries.append((tuple(map(int, lam.split(","))), int(m), reps.split(", ")))
    if total != oracle.count_galleries(shape, n):
        return f"{total} galleries, expected {oracle.count_galleries(shape, n)}"
    if sum(m * oracle.weyl_dimension(c) for c, m, _ in entries) != total:
        return "sum of multiplicity * Weyl dimension differs from the gallery count"
    for coeffs, m, reps in entries:
        tops = [oracle.parse(r) for r in reps]
        if len(set(tops)) != m or any(
            not oracle.is_dominant(t, n) or oracle.weight(t, n) != oracle.dominant_counts(coeffs)
            or tuple(map(len, t)) != shape for t in tops
        ):
            return f"representatives of lambda {coeffs} are wrong"
    return None


def _expected(req):
    """The exact text, or the JSON document, the CLI must print for the request."""
    cmd, n, fmt = req["cmd"], req["rank"], req["format"]
    cols = req.get("gallery")
    if cmd == "word":
        letters = list(oracle.word(cols))
        return {"word": letters} if fmt == "json" else " ".join(map(str, letters))
    if cmd == "weight":
        counts = list(oracle.weight(cols, n))
        return {"counts": counts} if fmt == "json" else " ".join(map(str, counts))
    if cmd == "dominant":
        value = oracle.is_dominant(cols, n)
        return {"dominant": value} if fmt == "json" else str(value).lower()
    if cmd == "signature":
        tags = oracle.tags(cols, req["i"])
        return {"i": req["i"], "tags": list(tags)} if fmt == "json" else tags
    if cmd == "apply":
        result = cols
        for _ in range(req["times"]):
            result = oracle.apply(result, req["i"], req["op"])
            if result is None:
                break
        shown = None if result is None else oracle.fmt(result)
        return {"result": shown} if fmt == "json" else shown or "0"
    if cmd in ("normal-form", "phi"):
        tableau = oracle.normal_form(cols, n)
        if cmd == "normal-form":
            return oracle.fmt(tableau)
        lam = list(oracle.label_coeffs(tableau, n))
        mu = list(oracle.weight(cols, n))
        if fmt == "json":
            return {"lambda": lam, "tableau": oracle.fmt(tableau), "mu": mu}
        return (f"lambda {','.join(map(str, lam))}  tableau {oracle.fmt(tableau)}  "
                f"mu {','.join(map(str, mu))}")
    if cmd == "crossings":
        segments = oracle.crossings(cols, n)
        if fmt == "json":
            return [{"segment": k, "roots": [{"a": a, "b": b, "m": m} for a, b, m in seg]}
                    for k, seg in enumerate(segments)]
        return "\n".join(
            f"segment {k}: " + (" ".join(f"({a},{b};{m})" for a, b, m in seg) or "-")
            for k, seg in enumerate(segments)
        )
    if cmd == "path":
        return {"rank": n, "vertices": [list(v) for v in oracle.path(cols, n)]}
    if cmd == "appendix-check":
        disjoint, stabilizer = oracle.splice_checks(req["gamma"], req["delta"], n)
        if fmt == "json":
            return {"disjoint": disjoint, "stabilizer": stabilizer,
                    "random_cases": req["cases"], "random_failures": 0}
        return (f"disjoint: {str(disjoint).lower()}\nstabilizer: {str(stabilizer).lower()}\n"
                f"random: {req['cases']}/{req['cases']} ok")
    raise ValueError(f"no oracle for {cmd}")


def cli_problem(req: dict, out: str) -> str | None:
    """Why ``out`` is not the CLI's correct output for ``req``, or None."""
    try:
        if req["cmd"] in ("component", "blambda"):
            return _graph_problem(req, out)
        if req["cmd"] == "decompose":
            return _decomposition_problem(req, out)
        if req["format"] == "svg":
            points = re.search(r'<polyline points="([^"]*)"', out)
            if (not out.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
                    or not out.endswith("</svg>\n") or points is None
                    or len(points.group(1).split()) != len(req["gallery"]) + 1):
                return "malformed SVG path plot"
            return None
        expected = _expected(req)
    except (ValueError, KeyError, IndexError, AttributeError) as exc:
        return f"unparsable output ({exc!r})"
    if req["format"] == "json":
        ok = json.loads(out) == expected
    else:
        ok = out == expected + "\n"
    return None if ok else f"{req['cmd']} output differs from the oracle"


class CliSession:
    """About 1,100 seeded requests through ``cli.run``, stdout captured."""

    name = "cli-session"
    LONG = 800
    GRAPH = 300

    def inputs(self, lib, rng):
        reqs = [long_request(rng) for _ in range(self.LONG)]
        reqs += [graph_request(rng) for _ in range(self.GRAPH)]
        rng.shuffle(reqs)
        return [(f"{k}:{r['cmd']}", (r, argv(r))) for k, r in enumerate(reqs)]

    def warmup(self, lib):
        return [(f"warmup:{k}", (r, argv(r))) for k, r in enumerate((
            {"cmd": "word", "rank": 3, "format": "text", "gallery": ((1,), (2, 3))},
            {"cmd": "blambda", "rank": 3, "format": "json", "coeffs": (1, 1)},
            {"cmd": "phi", "rank": 4, "format": "json", "gallery": ((2,), (1, 3), (4,))},
        ))]

    def run(self, api, lib, payload):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = api.run(payload[1])
        return code, out.getvalue(), err.getvalue()

    def check(self, payload, output):
        req, args = payload
        code, out, err = output
        if code != 0 or err:
            problem = f"exit {code}: {err.strip()}"
        else:
            problem = cli_problem(req, out)
        data = out.encode()
        return problem, " ".join(args).encode() + b"\n" + data, {"bytes_out": len(data)}

    def spawn_requests(self, rng, count):
        # Short requests, so that the process start-up dominates.
        reqs = []
        while len(reqs) < count:
            req = graph_request(rng) if len(reqs) % 2 else long_request(rng)
            if "gallery" in req and len(req["gallery"]) > 40:
                req["gallery"] = req["gallery"][:40]
            reqs.append(req)
        return reqs


WORKLOADS = {w.name: w for w in (CrystalBuild(), ShapeCensus(), CliSession())}
