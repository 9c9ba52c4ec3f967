#!/usr/bin/env python3
"""Benchmark of the gallery-crystals library and CLI (standard library only).

    python3 benchmarks/run.py --workload crystal-build --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

A run imports the package from ``src/`` of the checkout it sits in.  It sets
up several times (import, seeded inputs, warm-up), then makes one pass over
the workload's items that checks every output against ``oracle``.  With
``--trace 0`` it repeats timed passes, each followed by a round of CLI
subprocesses, until ``--seconds`` have passed, and reports the end-to-end
metrics of BENCHMARK.json.  An item's latency is its lowest time over the
passes: on a shared machine the other tenants only ever add time.  With
``--trace 1`` it makes one pass with spans around the spanned library calls
and one under cProfile, and reports the per-layer metrics.  The last line of
standard output is one JSON object; the full record, with the environment,
goes to ``benchmarks/out/``.  ``--smoke`` runs every workload on a few items
in both modes and checks the metric names against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib
import json
import os
import platform
import pstats
import random
import resource
import statistics
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle
from workloads import WORKLOADS, argv, cli_problem

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PKG = "gallery_crystals"
LAYERS = ("galleries", "operators", "plactic", "graphs", "mv", "affine", "emit", "cli")
# Library functions the workloads call through ``api``; the traced run times each call.
SPANNED = (
    "graphs.highest_weight_crystal", "graphs.enumerate_ssyt", "galleries.weight",
    "plactic.normal_form", "graphs.decompose", "mv.fiber", "mv.verify_surjectivity",
    "mv.mv_label", "cli.run",
)
# Functions whose calls cProfile counts, wherever in the library they are called from.
PROFILED = (
    "operators.lower_and_raise", "operators.e", "operators.f",
    "graphs.connected_component", "graphs.highest_weight_vertex",
    "graphs.galleries_of_shape", "plactic.rsk_insert", "cli.build_parser",
)
DEFAULT_SEED = 1
SETUPS = 5
SPAWNS = 9
SMOKE_ITEMS = 6
# About the reference task's time (see Reference) on the machine the bounds
# were set on, a 2-core Xeon at 2.1 GHz with Python 3.11, in its fast phases.
# Reported times are scaled by REFERENCE_S / (this run's reference time), so
# they read as seconds on that machine at that speed.
REFERENCE_S = 0.0035
REFERENCE_SLOTS = 20


def load_library() -> SimpleNamespace:
    """Import the package afresh from ``src/``, so that every set-up pays for it."""
    for name in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{
        layer: importlib.import_module(f"{PKG}.{layer}") for layer in LAYERS
    })
    if Path(lib.cli.__file__).resolve().parent != SRC / PKG:
        raise SystemExit(f"imported {PKG} from {lib.cli.__file__}, not from {SRC}")
    return lib


def make_api(lib, wrap=None) -> SimpleNamespace:
    functions = {}
    for dotted in SPANNED:
        module, name = dotted.split(".")
        fn = getattr(getattr(lib, module), name)
        functions[name] = wrap(dotted, fn) if wrap else fn
    return SimpleNamespace(**functions)


class Spans:
    """Spans kept in memory: (name, start, end, parent span, item id)."""

    def __init__(self):
        self.records: list = []
        self.parent = None
        self.item = None

    def wrap(self, name, fn):
        records = self.records

        def traced(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                records.append((name, start, perf_counter(), self.parent, self.item))

        return traced

    def open_item(self, item_id):
        self.parent, self.item = len(self.records), item_id
        self.records.append(None)
        return perf_counter()

    def close_item(self, start):
        self.records[self.parent] = ("item", start, perf_counter(), None, self.item)

    def totals(self) -> dict:
        out = {name: [0.0, 0] for name in SPANNED}
        for name, start, end, _, _ in self.records:
            if name in out:
                out[name][0] += end - start
                out[name][1] += 1
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for k, (name, start, end, parent, item) in enumerate(self.records):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


class Reference:
    """A fixed pure-Python task, timed at fixed item positions in every pass.

    The speed of this shared machine drifts by up to half within minutes,
    which would swamp any bound on a raw time.  The task runs the oracle's
    insertion, crossing and operator code on fixed galleries: the same kind
    of work as the library, but none of the library's code.  Like an item,
    each position keeps its lowest time over the passes.
    """

    def __init__(self):
        rng = random.Random(0)
        self.inputs = [
            (tuple(rng.choice(list(combinations(range(1, n + 1), rng.randint(1, n - 1))))
                   for _ in range(40)), n)
            for n in (3, 4, 5, 6) for _ in range(4)
        ]

    def __call__(self) -> float:
        gc.disable()  # the library's heap must not slow the reference down
        try:
            start = perf_counter()
            for columns, n in self.inputs:
                oracle.normal_form(columns, n)
                oracle.crossings(columns, n)
                oracle.apply(columns, 1, "f")
            return perf_counter() - start
        finally:
            gc.enable()


def run_pass(workload, lib, api, items, check=False, spans=None, profiler=None,
             reference=None, spawns=()) -> dict:
    """Run every item once, timing only the library calls; check outputs if asked.

    The reference task, and each of ``spawns``, run at fixed item positions
    spread over the pass, outside the item timer.
    """
    times, problems, stats, reference_times, spawn_times = [], {}, {}, [], []
    digest = hashlib.sha256()
    reference_every = max(1, len(items) // REFERENCE_SLOTS)
    spawn_every = max(1, len(items) // max(1, len(spawns)))
    for k, (item_id, payload) in enumerate(items):
        if reference and k % reference_every == 0:
            reference_times.append(reference())
        if k % spawn_every == 0 and k // spawn_every < len(spawns):
            spawn_times.append(spawns[k // spawn_every]())
        if spans:
            span_start = spans.open_item(item_id)
        if profiler:
            profiler.enable()
        start = perf_counter()
        try:
            output = workload.run(api, lib, payload)
        except Exception as exc:  # a failing item is counted, and the pass goes on
            output = None
            problems[item_id] = f"raised {exc!r}"
        finally:
            times.append(perf_counter() - start)
            if profiler:
                profiler.disable()
            if spans:
                spans.close_item(span_start)
        if not check or output is None:
            continue
        try:
            problem, canonical, counts = workload.check(payload, output)
        except Exception as exc:
            problem, canonical, counts = f"check raised {exc!r}", b"", {}
        if problem:
            problems[item_id] = problem
        digest.update(item_id.encode() + b"\n" + canonical)
        for key, value in counts.items():
            stats[key] = stats.get(key, 0) + value
    return {"times": times, "problems": problems, "digest": digest.hexdigest(),
            "stats": stats, "wall_s": sum(times), "reference": reference_times,
            "spawns": spawn_times}


def spawn(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    return perf_counter() - start, done


def check_spawns(requests, lib, api) -> dict:
    """Send each request through ``python -m gallery_crystals``; its output must
    match cli.run's and the oracle."""
    latencies, problems = [], {}
    for k, (req, args) in enumerate(requests):
        seconds, done = spawn(["-m", PKG, *args])
        latencies.append(seconds)
        if done.returncode != 0 or done.stderr:
            problem = f"exit {done.returncode}: {done.stderr.strip()}"
        elif (0, done.stdout, "") != WORKLOADS["cli-session"].run(api, lib, (req, args)):
            problem = "subprocess output differs from cli.run"
        else:
            problem = cli_problem(req, done.stdout)
        if problem:
            problems[f"spawn {k}: {' '.join(args)}"] = problem
    return {"latencies": latencies, "problems": problems}


def best(samples: list[list[float]]) -> list[float]:
    """Each position's lowest time over the rounds: the time other tenants of the
    machine did not add to it."""
    return [min(column) for column in zip(*samples)]


def profile_metrics(profiler: cProfile.Profile) -> dict:
    calls = {name: 0 for name in PROFILED + ("plactic.normal_form",)}
    self_s = {layer: 0.0 for layer in LAYERS}
    for (filename, _, function), (_, nc, tottime, _, _) in pstats.Stats(profiler).stats.items():
        path = Path(filename)
        if path.parent != SRC / PKG or path.stem not in self_s:
            continue
        self_s[path.stem] += tottime
        if f"{path.stem}.{function}" in calls:
            calls[f"{path.stem}.{function}"] += nc
    return {"calls": calls, "self_s": self_s}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(spans: Spans, profiler: cProfile.Profile, plain, spanned, profiled) -> dict:
    prof = profile_metrics(profiler)
    stats = plain["stats"]
    metrics = {}
    for dotted, (total, count) in spans.totals().items():
        metrics[f"{dotted}.span_s"] = metric(total, "s")
        metrics[f"{dotted}.calls"] = metric(count, "count")
    for dotted in PROFILED:
        metrics[f"{dotted}.calls"] = metric(prof["calls"][dotted], "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(prof["self_s"][layer], "s")
    scans = prof["calls"]["operators.lower_and_raise"]
    normal_forms = prof["calls"]["plactic.normal_form"]
    edges = stats.get("bfs_edges", 0)
    metrics.update({
        "graphs.bfs_vertices": metric(stats.get("bfs_vertices", 0), "count"),
        "graphs.bfs_edges": metric(edges, "count"),
        "graphs.ssyt_enumerated": metric(stats.get("ssyt_enumerated", 0), "count"),
        "graphs.edges_per_scan": metric(edges / scans if edges and scans else 0.0, "ratio"),
        "plactic.rsk_insert_per_normal_form": metric(
            prof["calls"]["plactic.rsk_insert"] / normal_forms if normal_forms else 0.0,
            "ratio"),
        "emit.bytes_out": metric(stats.get("bytes_out", 0), "bytes"),
        "trace.overhead_s": metric(spanned["wall_s"] - plain["wall_s"], "s"),
        "trace.profile_overhead_s": metric(profiled["wall_s"] - plain["wall_s"], "s"),
    })
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    workload = WORKLOADS[name]
    environment = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }
    setups = []
    for _ in range(1 if smoke else SETUPS):
        start = perf_counter()
        lib = load_library()
        api = make_api(lib)
        rng = random.Random(seed)
        items = workload.inputs(lib, rng)
        for _, payload in workload.warmup(lib):
            workload.run(api, lib, payload)
        setups.append(perf_counter() - start)
    if smoke:
        items = items[:SMOKE_ITEMS]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment, "items": len(items), "setup_s": setups}

    deadline = perf_counter() + seconds
    reference = None if trace else Reference()
    first = run_pass(workload, lib, api, items, check=True, reference=reference)
    passes = [first]
    problems = dict(first["problems"])
    attempted = len(items)
    if not trace:
        requests = [(req, argv(req))
                    for req in workload.spawn_requests(rng, 1 if smoke else SPAWNS)]
        checked = check_spawns(requests, lib, api)
        problems.update(checked["problems"])
        attempted += len(requests)
        spawns = [lambda args=args: spawn(["-m", PKG, *args])[0] for _, args in requests]
        bare = []
        while len(passes) < 2 or perf_counter() < deadline:
            passes.append(run_pass(workload, lib, api, items, reference=reference, spawns=spawns))
            bare.append(spawn(["-c", "pass"])[0])
        spawn_samples = [checked["latencies"]] + [p["spawns"] for p in passes[1:]]
        item_best = best([p["times"] for p in passes])
        deciles = statistics.quantiles(item_best, n=10) if len(item_best) > 1 else item_best * 9
        measured = {
            "wall_s": sum(item_best),
            "item_p50_ms": deciles[4] * 1e3,
            "item_p90_ms": deciles[8] * 1e3,
            "cli_spawn_p50_ms": statistics.median(best(spawn_samples)) * 1e3,
        }
        reference_best = statistics.median(best([p["reference"] for p in passes]))
        scale = REFERENCE_S / reference_best
        metrics = {name: metric(value * scale, "ms" if name.endswith("_ms") else "s")
                   for name, value in measured.items()}
        # Set-up is timed before the passes and is partly file reads, which the
        # reference task does not follow, so it stays unscaled.
        metrics["setup_s"] = metric(statistics.median(setups), "s")
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        record.update(
            passes=[p["wall_s"] for p in passes],
            item_samples=len(item_best),
            unscaled=measured,
            reference={"best_s": reference_best, "scale": scale},
            spawn={"requests": len(requests), "rounds": len(spawn_samples),
                   "bare_python_p50_ms": statistics.median(bare) * 1e3},
        )
    else:
        spans = Spans()
        profiler = cProfile.Profile()
        spanned = run_pass(workload, lib, make_api(lib, spans.wrap), items, spans=spans)
        profiled = run_pass(workload, lib, api, items, profiler=profiler)
        passes += [spanned, profiled]
        metrics = layer_metrics(spans, profiler, first, spanned, profiled)
        record["passes"] = {"plain": first["wall_s"], "spanned": spanned["wall_s"],
                            "profiled": profiled["wall_s"]}
        if not smoke:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"spans_{name}_seed{seed}.jsonl"
            spans.write(path)
            record["spans_file"] = str(path.relative_to(ROOT))
    for p in passes[1:]:
        problems.update(p["problems"])
    record.update(
        digest=first["digest"],
        attempted=attempted,
        failed=len(problems),
        failed_ratio=len(problems) / attempted,
        problems=[f"{key}: {value}" for key, value in list(problems.items())[:50]],
        metrics=metrics,
    )
    return record


def write_record(record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{record['workload']}_seed{record['seed']}_trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run(workload["name"], DEFAULT_SEED, 0, trace, smoke=True)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in record["metrics"].items()}
            good = printed == expected and record["failed"] == 0
            ok &= good
            print(f"smoke {workload['name']} trace={int(trace)}: "
                  f"{'ok' if good else 'FAIL'}  attempted={record['attempted']} "
                  f"failed={record['failed']}")
            if printed != expected:
                print(f"  metric names/units differ: {sorted(set(printed.items()) ^ set(expected.items()))}")
            for problem in record["problems"]:
                print(f"  {problem}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check metric names against BENCHMARK.json on a few items")
    args = parser.parse_args()
    if not (SRC / PKG / "__init__.py").is_file():
        sys.stderr.write(f"no package at {SRC / PKG}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_record(record)
    print(f"workload {args.workload} seed {args.seed}: {record['items']} items, "
          f"passes {record['passes']}")
    if "spawn" in record:
        print(f"spawned {record['spawn']['requests']} requests x {record['spawn']['rounds']} rounds; "
              f"bare python -c pass p50 {record['spawn']['bare_python_p50_ms']:.1f} ms")
    print(f"digest sha256:{record['digest']}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
