"""Command line front end.

Every subcommand takes --rank explicitly (the alphabet size is never
inferred from the input), reads galleries and words in the text formats of
`galleries`, and writes deterministic output in the formats it accepts
through --format.  Integer options take ASCII digits, with a minus only
where a negative value means something.  Exit codes: 0 on success, 1 on
domain errors (a machine-readable JSON report goes to stderr), 2 on usage
errors, and 141 when the reader of standard output goes away, as a process
killed by SIGPIPE would report.  A request that would enumerate more than
`SIZE_LIMIT` galleries, crystal vertices, words or roots (positive, or affine
for `crossings`), or more than `CELL_LIMIT` crystal graph cells or path
coordinates, fails up front with ``too-large``.

Each subcommand is one row of `COMMANDS`: its arguments, a ``compute``
that parses them and calls the library, and one renderer per --format
value, each turning the computed result into output lines.  Every format
renders the one result ``compute`` returns, so each field is computed once,
in one place.

`run` reads a canonical request straight off its `COMMANDS` row: the
command, then ``--flag value`` pairs of the row's flags, each at most once,
then exactly the row's positionals, no value starting with "-".  Any other
request, help and usage errors included, goes to the argparse tree that
`build_parser` imports and builds from the same rows on first need and then
reuses (`parse_args` returns a fresh namespace per call and looks up
``sys.stdout``/``sys.stderr`` only to write).  `run` checks --rank (2 to
141) once, before any subcommand computes.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import sys
from collections import Counter, namedtuple
from itertools import product
from math import comb, factorial, prod
from types import SimpleNamespace

from . import emit
from .affine import _crossing_roots, crossing_sets, random_gallery, splice_checks
from .errors import GalleryError, ParseError, TooLarge
from .galleries import (
    DominantWeight,
    Gallery,
    _check_rank,
    _commas,
    _ints,
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
    highest_weight_vertex,
    weyl_dimension,
)
from .mv import MVLabel, fiber, image_weights, mv_label
from .operators import _move, i_signature
from .plactic import _insert, equivalent, normal_form

# The most galleries (decompose, image-weights, fiber), crystal vertices
# (blambda, component), words (oracle-classes), positive roots (any rank) or
# affine roots in crossing sets (crossings) one request may enumerate; each
# is counted, or bounded below, before any work.
SIZE_LIMIT = 10_000
# The most cells (vertices times boxes per vertex) of one crystal graph, whose
# cost grows with both, and the most coordinates of one lattice path (path):
# `blambda --rank 2 --lambda 999`, 1,000 vertices of 999 boxes, takes 0.24 s
# as a subprocess on two Xeon cores with Python 3.11.7 and writes 2 MB of
# JSON at 31 MB peak RSS; `--lambda 2000`, limit lifted, 0.86 s and 78 MB.
CELL_LIMIT = 1_000_000

# An optional minus and ASCII digits: int() alone would also take "+2",
# "1_0" and other scripts' digits.
_INTEGER = re.compile(r"-?[0-9]+")


def _check_size(count: int, what: str, limit: int = SIZE_LIMIT, bound: str = "") -> None:
    # ``bound`` is "at least " where ``count`` is a lower bound; str() writes
    # at most 4,300 digits by default, so a longer count is given by its bits.
    if count > limit:
        amount = f"{bound}{count}" if count < 10**4300 else f"at least 2^{count.bit_length() - 1}"
        raise TooLarge(f"the request would enumerate {amount} {what}; the limit is {limit}")


def _check_graph(lam: DominantWeight, boxes: int) -> None:
    # The top and its f_i^k, k <= m_i, are distinct vertices, a bound taken
    # before the Weyl product.  Every vertex has the source's shape.
    _check_size(1 + sum(lam.coeffs), "crystal vertices", bound="at least ")
    vertices = weyl_dimension(lam)
    _check_size(vertices, "crystal vertices")
    _check_size(vertices * boxes, "crystal cells", CELL_LIMIT)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    pieces = [piece.strip() for piece in text.split(",")]
    if not all(_INTEGER.fullmatch(piece) for piece in pieces):
        raise ParseError(f"malformed {what} {text!r}; expected comma-separated integers")
    return _ints(pieces, what)


def _int(text: str) -> int:
    if not _INTEGER.fullmatch(text.strip()):
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _count(text: str) -> int:
    if not _INTEGER.fullmatch(text.strip()) or int(text) < 0:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _shape(args) -> tuple[int, ...]:
    shape = _parse_ints(args.shape, "shape")
    _check_size(count_galleries(shape, args.rank), "galleries")
    return shape


def _gallery(args) -> Gallery:
    return parse_gallery(args.gallery, args.rank)


def _validate(args) -> dict:
    gallery = _gallery(args)
    return {"rank": gallery.rank, "gallery": format_gallery(gallery), "shape": list(gallery.shape)}


def _apply(args) -> dict:
    result = _move(_gallery(args), args.i, args.times if args.op == "f" else -args.times)
    return {"result": None if result is None else format_gallery(result)}


def _oracle_classes(args) -> list:
    # Every word up to --max-len letters, counted exactly; the check inside
    # the sum ends a huge --max-len after a few terms.
    words = 0
    for length in range(args.max_len + 1):
        words += args.rank**length
        _check_size(words, "words")
    # Words in shortlex order list each class in order, and the classes by
    # their first words.
    classes: dict[Gallery, list] = {}
    for length in range(args.max_len + 1):
        for w in product(range(1, args.rank + 1), repeat=length):
            classes.setdefault(_insert(w, args.rank), []).append(list(w))
    return list(classes.values())


def _component(args) -> dict:
    gallery = _gallery(args)
    # B(lambda)'s weights are closed under permuting coordinates, so the orbit
    # of the gallery's weight bounds the vertices before the gallery is raised.
    counts = weight(gallery).counts
    orbit = factorial(len(counts)) // prod(map(factorial, Counter(counts).values()))
    _check_size(orbit, "crystal vertices", bound="at least ")
    source = highest_weight_vertex(gallery)
    _check_graph(weight(source).to_dominant_weight(), sum(source.shape))
    return emit.graph_document(connected_component(source))


def _lambda(args) -> DominantWeight:
    coeffs = _parse_ints(args.lam, "lambda")
    if len(coeffs) != args.rank - 1:
        raise ParseError(
            f"lambda has {len(coeffs)} coordinates; rank {args.rank} needs {args.rank - 1}"
        )
    return DominantWeight(coeffs)


def _blambda(args) -> dict:
    lam = _lambda(args)
    _check_graph(lam, sum(i * m for i, m in enumerate(lam.coeffs, 1)))
    return emit.graph_document(highest_weight_crystal(lam))


def _fiber(args) -> dict:
    label = MVLabel(_lambda(args), parse_gallery(args.tableau, args.rank))
    return {"fiber": [format_gallery(g) for g in fiber(label, _shape(args), args.rank)]}


def _crossings(args) -> tuple:
    gallery = _gallery(args)
    _check_size(_crossing_roots(gallery), "affine roots")
    return crossing_sets(gallery)


def _path(args) -> dict:
    gallery = _gallery(args)
    _check_size((len(gallery.columns) + 1) * gallery.rank, "path coordinates", CELL_LIMIT)
    return emit.path_document(gallery)


def _appendix_check(args) -> dict:
    if args.seed is None and args.cases is not None:
        raise ParseError("--cases counts seeded random pairs; it needs --seed")
    cases = 100 if args.cases is None else args.cases
    if args.seed is not None:
        # One staircase per pair lists exactly C(rank, 2) roots, whatever its galleries.
        _check_size((1 + cases) * comb(args.rank, 2), "positive roots")
    gamma = parse_gallery(args.gamma, args.rank)
    delta = parse_gallery(args.delta, args.rank)
    disjoint, stabilizer = splice_checks(gamma, delta)
    document = {"disjoint": disjoint.ok, "stabilizer": stabilizer.ok}
    if not disjoint.ok:
        i, j, root = disjoint.witness
        document["disjoint_witness"] = {"segments": [i, j], "root": emit.root_document(root)}
    if not stabilizer.ok:
        k, root = stabilizer.witness
        document["stabilizer_witness"] = {"segment": k, "root": emit.root_document(root)}
    if args.seed is not None:
        rng = random.Random(args.seed)
        failures = 0
        for _ in range(cases):
            g, d = random_gallery(rng, args.rank), random_gallery(rng, args.rank)
            failures += not all(check.ok for check in splice_checks(g, d))
        document["random_cases"] = cases
        document["random_failures"] = failures
    return document


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _decompose_text(document: dict) -> list[str]:
    return [f"galleries: {document['total_galleries']}"] + [
        f"lambda {_commas(entry['lambda'])}: multiplicity {entry['multiplicity']}  "
        f"[{', '.join(rep or '(empty)' for rep in entry['representatives'])}]"
        for entry in document["entries"]
    ]


def _appendix_text(document: dict) -> list[str]:
    lines = [f"disjoint: {_bool(document['disjoint'])}",
             f"stabilizer: {_bool(document['stabilizer'])}"]
    if "random_cases" in document:
        cases = document["random_cases"]
        lines.append(f"random: {cases - document['random_failures']}/{cases} ok")
    return lines


class Command(namedtuple("Command", "name help arguments compute formats")):
    """One subcommand.  ``arguments`` are (flags, kwargs) pairs for
    `add_argument`; ``compute(args)`` returns the result, and
    ``formats[f](result)`` its output lines for ``--format f`` (default text)."""

    __slots__ = ()


_GALLERY = (("gallery",), {})
_I = (("--i",), {"type": _int, "required": True})
_SHAPE = (("--shape",), {"required": True})
_GALLERY_FORMATS = {"text": lambda gallery: [format_gallery(gallery)]}
_GRAPH_FORMATS = {"text": emit.graph_text, "json": emit.json_lines, "dot": emit.graph_dot}

COMMANDS = (
    Command("validate", "validate a gallery string", (_GALLERY,), _validate,
            {"text": lambda doc: [doc["gallery"]], "json": emit.json_lines}),
    Command("word", "word of a gallery", (_GALLERY,),
            lambda args: {"word": list(word(_gallery(args)))},
            {"text": lambda doc: [format_word(doc["word"])], "json": emit.json_lines}),
    Command("from-word", "gallery of shape (1,...,1) with the given word", ((("word",), {}),),
            lambda args: gallery_from_word(parse_word(args.word, args.rank), args.rank),
            _GALLERY_FORMATS),
    Command("concat", "concatenate OUTER * INNER (INNER is read first)",
            ((("outer",), {}), (("inner",), {})),
            lambda args: concat(
                parse_gallery(args.outer, args.rank), parse_gallery(args.inner, args.rank)
            ),
            _GALLERY_FORMATS),
    Command("weight", "letter multiplicities as a canonical weight vector", (_GALLERY,),
            lambda args: {"counts": list(weight(_gallery(args)).counts)},
            {"text": lambda doc: [format_word(doc["counts"])],
             "json": emit.json_lines}),
    Command("dominant", "whether the gallery path stays dominant", (_GALLERY,),
            lambda args: {"dominant": is_dominant(_gallery(args))},
            {"text": lambda doc: [_bool(doc["dominant"])], "json": emit.json_lines}),
    Command("signature", "column tags for index i, display order", (_I, _GALLERY),
            lambda args: {"i": args.i,
                          "tags": list(i_signature(_gallery(args), args.i))},
            {"text": lambda doc: ["".join(doc["tags"])], "json": emit.json_lines}),
    Command("apply", "apply a root operator; inapplicable prints 0",
            ((("--op",), {"choices": ("f", "e"), "required": True}), _I,
             (("--times",), {"type": _count, "default": 1}), _GALLERY),
            _apply,
            {"text": lambda doc: ["0" if doc["result"] is None else doc["result"]],
             "json": emit.json_lines}),
    Command("normal-form", "plactic normal form (semistandard tableau)", (_GALLERY,),
            lambda args: normal_form(_gallery(args)), _GALLERY_FORMATS),
    Command("equivalent", "whether two galleries are plactic equivalent",
            ((("first",), {}), (("second",), {})),
            lambda args: {"equivalent": equivalent(
                parse_gallery(args.first, args.rank), parse_gallery(args.second, args.rank)
            )},
            {"text": lambda doc: [_bool(doc["equivalent"])], "json": emit.json_lines}),
    Command("oracle-classes", "plactic classes of short words",
            ((("--max-len",), {"type": _count, "required": True}),), _oracle_classes,
            {"text": lambda classes: [" | ".join(_commas(w) or "-" for w in c) for c in classes],
             "json": emit.json_lines}),
    Command("component", "connected crystal component of a gallery", (_GALLERY,), _component,
            _GRAPH_FORMATS),
    Command("blambda", "crystal B(lambda) from its dominant tableau",
            ((("--lambda",), {"dest": "lam", "required": True,
                              "help": "fundamental coordinates m1,m2,..."}),),
            _blambda, _GRAPH_FORMATS),
    Command("decompose", "component decomposition of a shape crystal",
            ((("--shape",), {"required": True, "help": "reading-order column lengths d1,d2,..."}),),
            lambda args: emit.decomposition_document(decompose(_shape(args), args.rank)),
            {"text": _decompose_text, "json": emit.json_lines}),
    Command("phi", "MV cycle label of a gallery", (_GALLERY,),
            lambda args: emit.label_document(mv_label(_gallery(args))),
            {"text": lambda doc: [f"lambda {_commas(doc['lambda'])}  tableau {doc['tableau']}  "
                                  f"mu {_commas(doc['mu'])}"],
             "json": emit.json_lines}),
    Command("fiber", "galleries of a shape mapping to a given label",
            ((("--lambda",), {"dest": "lam", "required": True}),
             (("--tableau",), {"required": True}), _SHAPE),
            _fiber,
            {"text": lambda doc: doc["fiber"] or ["(empty fiber)"], "json": emit.json_lines}),
    Command("image-weights", "dominant weights hit by a shape, with multiplicities", (_SHAPE,),
            lambda args: [{"lambda": list(lam.coeffs), "multiplicity": mult}
                          for lam, mult in image_weights(_shape(args), args.rank).items()],
            {"text": lambda doc: [f"{_commas(w['lambda'])} -> {w['multiplicity']}" for w in doc],
             "json": emit.json_lines}),
    Command("crossings", "affine crossing sets along the gallery path", (_GALLERY,),
            _crossings,
            {"text": lambda segments: [
                f"segment {k}: " + (" ".join([f"({a},{b};{m})" for a, b, m in roots]) or "-")
                for k, roots in enumerate(segments)
            ], "json": emit.crossings_json}),
    Command("appendix-check", "staircase splice wall checks",
            ((("--gamma",), {"default": ""}), (("--delta",), {"default": ""}),
             (("--seed",), {"type": _int, "default": None,
                            "help": "also check seeded random pairs"}),
             (("--cases",), {"type": _count, "default": None,
                             "help": "random pairs when --seed is given"})),
            _appendix_check,
            {"text": _appendix_text, "json": emit.json_lines}),
    Command("path", "lattice path vertices (json) or rank-3 SVG plot", (_GALLERY,), _path,
            {"text": lambda doc: list(map(format_word, doc["vertices"])),
             "json": emit.json_lines, "svg": emit.path_svg}),
)


def _arguments(command: Command) -> tuple:
    # The row's (flags, kwargs) pairs, behind the two options every row takes.
    return ((("--rank",), {"type": _int, "required": True, "help": "alphabet size n (>= 2)"}),
            (("--format",), {"choices": tuple(command.formats), "default": "text",
                             "help": "output format"}), *command.arguments)


@functools.cache
def build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="gallery-crystals",
        description="Crystal combinatorics of column galleries for SL_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flags, kwargs in _arguments(command):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(row=command)
    return parser


@functools.cache
def _canonical_rows() -> dict:
    # Per row: (dest, type, choices) by flag, required flags, defaults, positionals.
    rows = {}
    for command in COMMANDS:
        pairs = [(flag, kw) for (flag,), kw in _arguments(command)]
        options = {flag: (kw.get("dest", flag.lstrip("-").replace("-", "_")),
                          kw.get("type", str), kw.get("choices"))
                   for flag, kw in pairs if flag.startswith("-")}
        required = {flag for flag, kw in pairs if kw.get("required")}
        defaults = {options[flag][0]: kw.get("default")
                    for flag, kw in pairs if flag in options.keys() - required}
        defaults.update(command=command.name, row=command)
        rows[command.name] = options, required, defaults, [f for f, _ in pairs if f not in options]
    return rows


def _parse_canonical(argv) -> SimpleNamespace | None:
    # What `build_parser` parses ``argv`` to, if it is in canonical form (see
    # the module docstring) and every value passes its type and choices.
    if not argv or argv[0] not in _canonical_rows():
        return None
    options, required, values, positionals = _canonical_rows()[argv[0]]
    cut = len(argv) - len(positionals)  # odd when options come in pairs
    flags, texts = argv[1:cut:2], argv[2:cut:2]
    if (cut % 2 == 0 or len(set(flags)) < len(flags)
            or not required <= set(flags) <= options.keys()
            or any(text[:1] == "-" for text in [*texts, *argv[cut:]])):
        return None
    values = dict(values)
    for flag, text in zip(flags, texts):
        dest, kind, choices = options[flag]
        try:
            values[dest] = kind(text)
        except Exception:  # argparse words the usage error
            return None
        if choices is not None and values[dest] not in choices:
            return None
    values.update(zip(positionals, argv[cut:]))
    return SimpleNamespace(**values)


def run(argv=None) -> int:
    args = _parse_canonical(sys.argv[1:] if argv is None else argv)
    try:
        args = args or build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_rank(args.rank)
        _check_size(comb(args.rank, 2), "positive roots")
        lines = args.row.formats[args.format](args.row.compute(args))
        text = "".join(f"{line}\n" for line in lines)
    except GalleryError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 1
    sys.stdout.write(text)
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
