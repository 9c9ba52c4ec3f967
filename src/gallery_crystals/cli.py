"""Command line front end.

Every subcommand takes --rank explicitly (the alphabet size is never
inferred from the input), reads galleries and words in the text formats of
`galleries`, and writes deterministic output in the formats it accepts
through --format.  Exit codes: 0 on success, 1 on domain errors (a
machine-readable JSON report goes to stderr), 2 on usage errors, and 141
when the reader of standard output goes away, as a process killed by
SIGPIPE would report.  A request that would enumerate more than
`SIZE_LIMIT` galleries, crystal vertices or words fails up front with the
domain error ``too-large``.

The argparse tree is built once per process, on the first `run`, and reused:
building its twenty subparsers costs several times more than parsing a
typical request.  Reuse is safe because `parse_args` returns a fresh
namespace on every call and looks up ``sys.stdout``/``sys.stderr`` only when
it writes help or an error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from itertools import chain
from math import comb

from . import emit
from .affine import (
    splice_disjointness,
    crossing_sets,
    random_gallery,
    stabilizer_condition,
)
from .errors import GalleryError, ParseError, TooLarge
from .galleries import (
    DominantWeight,
    concat,
    format_gallery,
    format_word,
    gallery_from_word,
    is_dominant,
    parse_gallery,
    parse_word,
    weight,
    word,
)
from .graphs import (
    connected_component,
    count_galleries,
    decompose,
    highest_weight_crystal,
    weyl_dimension,
)
from .mv import fiber, image_weights, make_label, mv_label
from .operators import e, f, i_signature
from .plactic import equivalent, normal_form, oracle_plactic_classes

# The most galleries (decompose, image-weights, fiber), crystal vertices
# (blambda, component) or words (oracle-classes) one request may enumerate;
# each command checks its count before it starts.  Crystal graphs are the
# dearest: at this size a component of long galleries takes about two
# seconds and writes a few megabytes; at ten times the size, over a minute.
SIZE_LIMIT = 10_000


def _check_size(count: int, what: str) -> None:
    if count > SIZE_LIMIT:
        raise TooLarge(f"the request would enumerate {count} {what}; the limit is {SIZE_LIMIT}")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    # An optional minus and ASCII digits: int() alone would also take "+2",
    # "1_0" and other scripts' digits.
    text = text.strip()
    if not text:
        return ()
    pieces = [piece.strip() for piece in text.split(",")]
    if not all(re.fullmatch(r"-?[0-9]+", piece) for piece in pieces):
        raise ParseError(f"malformed {what} {text!r}; expected comma-separated integers")
    return tuple(int(piece) for piece in pieces)


def _shape(args) -> tuple[int, ...]:
    shape = _parse_ints(args.shape, "shape")
    _check_size(count_galleries(shape, args.rank), "galleries")
    return shape


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_graph(graph, fmt: str) -> None:
    if fmt == "json":
        _print(emit.to_json(emit.graph_document(graph)))
    elif fmt == "dot":
        _print(emit.graph_dot(graph))
    else:
        doc = emit.graph_document(graph)
        _print(f"vertices: {len(doc['vertices'])}")
        for k, vertex in enumerate(doc["vertices"]):
            _print(f"  v{k}: {vertex}")
        _print(f"edges: {len(doc['edges'])}")
        for edge in doc["edges"]:
            _print(f"  v{edge['from']} -{edge['i']}-> v{edge['to']}")


def _cmd_validate(args) -> None:
    gallery = parse_gallery(args.gallery, args.rank)
    if args.format == "json":
        _print(
            emit.to_json(
                {
                    "rank": gallery.rank,
                    "gallery": format_gallery(gallery),
                    "shape": list(gallery.shape),
                }
            )
        )
    else:
        _print(format_gallery(gallery))


def _cmd_word(args) -> None:
    letters = word(parse_gallery(args.gallery, args.rank))
    if args.format == "json":
        _print(emit.to_json({"word": list(letters)}))
    else:
        _print(format_word(letters))


def _cmd_from_word(args) -> None:
    gallery = gallery_from_word(parse_word(args.word, args.rank), args.rank)
    _print(format_gallery(gallery))


def _cmd_concat(args) -> None:
    outer = parse_gallery(args.outer, args.rank)
    inner = parse_gallery(args.inner, args.rank)
    _print(format_gallery(concat(outer, inner)))


def _cmd_weight(args) -> None:
    mu = weight(parse_gallery(args.gallery, args.rank))
    if args.format == "json":
        _print(emit.to_json({"counts": list(mu.counts)}))
    else:
        _print(" ".join(str(c) for c in mu.counts))


def _cmd_dominant(args) -> None:
    value = is_dominant(parse_gallery(args.gallery, args.rank))
    if args.format == "json":
        _print(emit.to_json({"dominant": value}))
    else:
        _print("true" if value else "false")


def _cmd_signature(args) -> None:
    tags = i_signature(parse_gallery(args.gallery, args.rank), args.i)
    if args.format == "json":
        _print(emit.to_json({"i": args.i, "tags": [t.value for t in tags]}))
    else:
        _print("".join(t.value for t in tags))


def _cmd_apply(args) -> None:
    gallery = parse_gallery(args.gallery, args.rank)
    op = f if args.op == "f" else e
    result = gallery
    for _ in range(args.times):
        result = op(result, args.i)
        if result is None:
            break
    if args.format == "json":
        _print(
            emit.to_json(
                {"result": None if result is None else format_gallery(result)}
            )
        )
    else:
        _print("0" if result is None else format_gallery(result))


def _cmd_normal_form(args) -> None:
    tableau = normal_form(parse_gallery(args.gallery, args.rank))
    _print(format_gallery(tableau))


def _cmd_equivalent(args) -> None:
    first = parse_gallery(args.first, args.rank)
    second = parse_gallery(args.second, args.rank)
    value = equivalent(first, second)
    if args.format == "json":
        _print(emit.to_json({"equivalent": value}))
    else:
        _print("true" if value else "false")


def _oracle_words(max_len: int, rank: int) -> int:
    """An upper bound on the words `oracle_plactic_classes` visits, or a
    count past `SIZE_LIMIT` once the bound is sure to exceed it.

    The search visits every word of length at most ``max_len``.  A longer
    word, of length L up to ``max_len + rank``, is visited only if its
    insertion tableau has a full column, since it is equivalent to a shorter
    word.  Under RSK a word is a pair of tableaux of one shape; removing the
    full first column from both leaves the pair of a word of L - rank letters,
    and the removed recording entries are 1 and rank - 1 of the other L - 1
    positions.  So at most C(L - 1, rank - 1) * rank**(L - rank) words of
    length L are visited.
    """
    n = max(rank, 1)
    counts = (n**length for length in range(max_len + 1))
    longer = range(max(max_len + 1, n), max_len + n + 1)
    counts = chain(counts, (comb(length - 1, n - 1) * n ** (length - n) for length in longer))
    # Every term is at least 1, so this stops within SIZE_LIMIT + 1 terms.
    words = 0
    for count in counts:
        words += count
        if words > SIZE_LIMIT:
            break
    return words


def _cmd_oracle_classes(args) -> None:
    _check_size(_oracle_words(args.max_len, args.rank), "words")
    classes = oracle_plactic_classes(args.max_len, args.rank)
    if args.format == "json":
        _print(emit.to_json([[list(w) for w in cls] for cls in classes]))
    else:
        for cls in classes:
            _print(" | ".join(",".join(str(a) for a in w) or "-" for w in cls))


def _cmd_component(args) -> None:
    gallery = parse_gallery(args.gallery, args.rank)
    _check_size(weyl_dimension(mv_label(gallery).lam), "crystal vertices")
    _emit_graph(connected_component(gallery), args.format)


def _cmd_blambda(args) -> None:
    lam = DominantWeight(_parse_ints(args.lam, "lambda"))
    if lam.rank != args.rank:
        raise ParseError(
            f"lambda has {lam.rank - 1} coordinates; rank {args.rank} needs {args.rank - 1}"
        )
    _check_size(weyl_dimension(lam), "crystal vertices")
    _emit_graph(highest_weight_crystal(lam), args.format)


def _cmd_decompose(args) -> None:
    decomposition = decompose(_shape(args), args.rank)
    if args.format == "json":
        _print(emit.to_json(emit.decomposition_document(decomposition)))
    else:
        _print(f"galleries: {decomposition.total}")
        for entry in decomposition.entries:
            reps = ", ".join(format_gallery(g) or "(empty)" for g in entry.representatives)
            _print(f"lambda {entry.lam}: multiplicity {entry.multiplicity}  [{reps}]")


def _cmd_phi(args) -> None:
    label = mv_label(parse_gallery(args.gallery, args.rank))
    if args.format == "json":
        _print(emit.to_json(emit.label_document(label)))
    else:
        _print(
            f"lambda {label.lam}  tableau {format_gallery(label.tableau)}  "
            f"mu {','.join(str(c) for c in label.mu.counts)}"
        )


def _cmd_fiber(args) -> None:
    lam = DominantWeight(_parse_ints(args.lam, "lambda"))
    tableau = parse_gallery(args.tableau, args.rank)
    label = make_label(lam, tableau)
    hits = fiber(label, _shape(args), args.rank)
    if args.format == "json":
        _print(emit.to_json({"fiber": [format_gallery(g) for g in hits]}))
    else:
        for g in hits:
            _print(format_gallery(g))
        if not hits:
            _print("(empty fiber)")


def _cmd_image_weights(args) -> None:
    weights = image_weights(_shape(args), args.rank)
    if args.format == "json":
        _print(
            emit.to_json(
                [
                    {"lambda": list(lam.coeffs), "multiplicity": mult}
                    for lam, mult in weights.items()
                ]
            )
        )
    else:
        for lam, mult in weights.items():
            _print(f"{lam} -> {mult}")


def _cmd_crossings(args) -> None:
    gallery = parse_gallery(args.gallery, args.rank)
    if args.format == "json":
        _print(emit.to_json(emit.crossings_document(gallery)))
    else:
        for k, segment in enumerate(crossing_sets(gallery)):
            roots = " ".join(f"({r.a},{r.b};{r.level})" for r in segment)
            _print(f"segment {k}: {roots}" if roots else f"segment {k}: -")


def _cmd_appendix_check(args) -> None:
    gamma = parse_gallery(args.gamma, args.rank)
    delta = parse_gallery(args.delta, args.rank)
    disjoint = splice_disjointness(gamma, delta)
    stabilizer = stabilizer_condition(gamma, delta)
    document = {
        "disjoint": disjoint.ok,
        "stabilizer": stabilizer.ok,
    }
    if not disjoint.ok:
        i, j, root = disjoint.witness
        document["disjoint_witness"] = {
            "segments": [i, j],
            "root": {"a": root.a, "b": root.b, "m": root.level},
        }
    if not stabilizer.ok:
        k, root = stabilizer.witness
        document["stabilizer_witness"] = {
            "segment": k,
            "root": {"a": root.a, "b": root.b, "m": root.level},
        }
    if args.seed is not None:
        rng = random.Random(args.seed)
        failures = 0
        for _ in range(args.cases):
            g = random_gallery(rng, args.rank)
            d = random_gallery(rng, args.rank)
            if not (splice_disjointness(g, d).ok and stabilizer_condition(g, d).ok):
                failures += 1
        document["random_cases"] = args.cases
        document["random_failures"] = failures
    if args.format == "json":
        _print(emit.to_json(document))
    else:
        _print(f"disjoint: {'true' if disjoint.ok else 'false'}")
        _print(f"stabilizer: {'true' if stabilizer.ok else 'false'}")
        if args.seed is not None:
            _print(f"random: {document['random_cases'] - document['random_failures']}"
                   f"/{document['random_cases']} ok")


def _cmd_path(args) -> None:
    gallery = parse_gallery(args.gallery, args.rank)
    if args.format == "svg":
        _print(emit.path_svg(gallery))
    elif args.format == "json":
        _print(emit.to_json(emit.path_document(gallery)))
    else:
        for vertex in emit.path_document(gallery)["vertices"]:
            _print(" ".join(str(c) for c in vertex))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank", type=int, required=True, help="alphabet size n (>= 2)")

    parser = argparse.ArgumentParser(
        prog="gallery-crystals",
        description="Crystal combinatorics of column galleries for SL_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, formats=("text", "json")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--format", choices=formats, default="text", help="output format")
        p.set_defaults(handler=handler)
        return p

    p = add("validate", _cmd_validate, "validate a gallery string")
    p.add_argument("gallery")

    p = add("word", _cmd_word, "word of a gallery")
    p.add_argument("gallery")

    p = add(
        "from-word", _cmd_from_word, "gallery of shape (1,...,1) with the given word", ("text",)
    )
    p.add_argument("word")

    p = add("concat", _cmd_concat, "concatenate OUTER * INNER (INNER is read first)", ("text",))
    p.add_argument("outer")
    p.add_argument("inner")

    p = add("weight", _cmd_weight, "letter multiplicities as a canonical weight vector")
    p.add_argument("gallery")

    p = add("dominant", _cmd_dominant, "whether the gallery path stays dominant")
    p.add_argument("gallery")

    p = add("signature", _cmd_signature, "column tags for index i, display order")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("gallery")

    p = add("apply", _cmd_apply, "apply a root operator; inapplicable prints 0")
    p.add_argument("--op", choices=("f", "e"), required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--times", type=_count, default=1)
    p.add_argument("gallery")

    p = add(
        "normal-form", _cmd_normal_form, "plactic normal form (semistandard tableau)", ("text",)
    )
    p.add_argument("gallery")

    p = add("equivalent", _cmd_equivalent, "whether two galleries are plactic equivalent")
    p.add_argument("first")
    p.add_argument("second")

    p = add("oracle-classes", _cmd_oracle_classes, "brute-force plactic classes of short words")
    p.add_argument("--max-len", type=_count, required=True)

    graph_formats = ("text", "json", "dot")
    p = add(
        "component", _cmd_component, "connected crystal component of a gallery", graph_formats
    )
    p.add_argument("gallery")

    p = add("blambda", _cmd_blambda, "crystal B(lambda) from its dominant tableau", graph_formats)
    p.add_argument("--lambda", dest="lam", required=True, help="fundamental coordinates m1,m2,...")

    p = add("decompose", _cmd_decompose, "component decomposition of a shape crystal")
    p.add_argument("--shape", required=True, help="reading-order column lengths d1,d2,...")

    p = add("phi", _cmd_phi, "MV cycle label of a gallery")
    p.add_argument("gallery")

    p = add("fiber", _cmd_fiber, "galleries of a shape mapping to a given label")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--tableau", required=True)
    p.add_argument("--shape", required=True)

    p = add("image-weights", _cmd_image_weights, "dominant weights hit by a shape, with multiplicities")
    p.add_argument("--shape", required=True)

    p = add("crossings", _cmd_crossings, "affine crossing sets along the gallery path")
    p.add_argument("gallery")

    p = add("appendix-check", _cmd_appendix_check, "staircase splice wall checks")
    p.add_argument("--gamma", default="")
    p.add_argument("--delta", default="")
    p.add_argument("--seed", type=int, default=None, help="also check seeded random pairs")
    p.add_argument("--cases", type=_count, default=100, help="random pairs when --seed is given")

    p = add(
        "path",
        _cmd_path,
        "lattice path vertices (json) or rank-3 SVG plot",
        ("text", "json", "svg"),
    )
    p.add_argument("gallery")

    return parser


# `run` shares one parser; `build_parser` still returns a new one to its callers.
_shared_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.handler(args)
    except GalleryError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 1
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
