"""Domain error hierarchy.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error reports without string matching.
"""


class GalleryError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "domain-error"


class InvalidRank(GalleryError):
    code = "invalid-rank"


class NonIncreasingColumn(GalleryError):
    code = "non-increasing-column"


class LetterOutOfRange(GalleryError):
    code = "letter-out-of-range"


class LetterNotInteger(GalleryError):
    code = "letter-not-integer"


class ColumnTooLong(GalleryError):
    code = "column-too-long"


class RankMismatch(GalleryError):
    code = "rank-mismatch"


class IndexOutOfRange(GalleryError):
    code = "index-out-of-range"


class NotDominant(GalleryError):
    code = "not-dominant"


class ShapeInvalid(GalleryError):
    code = "shape-invalid"


class NotConnected(GalleryError):
    code = "not-connected"


class InvalidLabel(GalleryError):
    code = "invalid-label"


class SvgRankUnsupported(GalleryError):
    code = "svg-rank-unsupported"


class ParseError(GalleryError):
    code = "parse-error"


class TooLarge(GalleryError):
    """A request would enumerate more objects than the command line allows."""

    code = "too-large"
