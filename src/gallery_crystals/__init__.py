"""Crystal combinatorics of column galleries for SL_n.

Galleries (sequences of strictly increasing columns over {1..n}) carry a
crystal structure through tagging root operators.  This package implements
the operators, word reading, plactic normalization to semistandard Young
tableaux, crystal graph generation and decomposition, the combinatorial MV
cycle labeling map with its fibers, and affine wall-crossing bookkeeping
along gallery paths.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ColumnTooLong,
    GalleryError,
    IndexOutOfRange,
    InvalidLabel,
    InvalidRank,
    LetterNotInteger,
    LetterOutOfRange,
    NonIncreasingColumn,
    NotConnected,
    NotDominant,
    ParseError,
    RankMismatch,
    ShapeInvalid,
    SvgRankUnsupported,
    TooLarge,
)
from .galleries import (
    DominantWeight,
    Gallery,
    WeightVector,
    concat,
    format_gallery,
    format_word,
    gallery_from_word,
    is_dominant,
    parse_gallery,
    parse_word,
    path_vertices,
    validate_shape,
    weight,
    word,
)
from .operators import (
    e,
    epsilon,
    f,
    i_signature,
    phi,
)
from .plactic import (
    equivalent,
    is_ssyt,
    normal_form,
    rsk_insert,
)
from .graphs import (
    CrystalGraph,
    Decomposition,
    DecompositionEntry,
    canonical_dominant_gallery,
    connected_component,
    count_galleries,
    decompose,
    enumerate_ssyt,
    galleries_of_shape,
    highest_weight_crystal,
    highest_weight_vertex,
    is_isomorphic,
    weyl_dimension,
)
from .mv import (
    MVLabel,
    SurjectivityReport,
    fiber,
    image_weights,
    mv_label,
    verify_surjectivity,
)
from .affine import (
    AffineRoot,
    WallCheck,
    crossing_sets,
    random_gallery,
    splice_checks,
)

__version__ = "0.1.0"

# The public names are exactly those the imports above bind: not the
# submodules (bound as a side effect of importing them), not private names.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
