"""balmaps: balanced 4-valent sphere maps and generic branched covers.

Decides whether an oriented 4-valent diagram on the sphere is balanced
(Jordan faces, equal face counts per color, and blue-majority on the left
of every blue-left cycle), constructs the corresponding branched-cover
monodromy, enumerates and classifies all covers at small degree, runs the
tree bijection behind the cover count, and decomposes diagrams into
quadratic and hyperbolic pieces.
"""

from .balance import (
    BalanceReport,
    check_balance_flow,
    check_global,
    check_jordan,
    enumerate_blue_left_curves,
    face_weights,
    is_balanced,
    solve_face_equations,
)
from .corpus import Corpus, build_corpus, enumerate_four_valent
from .decompose import (
    CutCurve,
    DecompositionTree,
    collapse_arc,
    decompose_full,
    find_four_cuts,
    find_two_cuts,
    murasugi_sum,
    split_two_cut,
)
from .dps import (
    EdgeLabeledTree,
    EdgeOrientation,
    bernardi_spanning_tree,
    enumerate_trees,
    felsner_normalize,
    graph_to_tree,
    orient_greater_label_left,
    tree_to_graph,
    tree_to_tuple,
)
from .hurwitz import CensusEntry, TupleClass, census, enumerate_classes, hurwitz_count
from .maps import (
    ColoredMap,
    CombinatorialMap,
    FaceLabeledGraph,
    build_map,
    checkerboard,
    dual_bipartite,
    isomorphic,
    octahedron,
    pinch,
    quadratic,
    turkshead,
)
from .realize import (
    Realization,
    TranspositionTuple,
    enrich,
    enumerate_matchings,
    graph_from_monodromy,
    integrate_labels,
    is_realizable,
    monodromy,
    realize_generic,
)

__version__ = "0.1.0"
