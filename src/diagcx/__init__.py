"""Diagonal complexes, planted forests and symmetric automorphisms of free products."""

from .bipartite import (
    BipartiteForest,
    enumerate_bipartite,
    enumerate_bipartite_forests,
    horizontal_fold,
    partial_partition_of,
    subdivide,
    vertical_fold,
)
from .cactus import CactusDiagram, congruent, coordinates
from .complexes import DiagonalComplex, Labelling, ValidationReport
from .forests import (
    ColoredForest,
    ForestPoset,
    PlantedForest,
    build_gamma_Fn,
    decomposition_report,
    enumerate_forests,
    forest_from_poset,
    gamma_forest,
    mu,
    orbit_decomposition,
    poset_from_forest,
    prufer_decode,
    prufer_encode,
    x_n_pairs,
)
from .groups import FiniteGroup, group_from_descriptor
from .homology import (
    SimplicialComplexData,
    coset_nerve,
    integer_rank,
    simplicial_homology,
    smith_normal_form,
    torus_model_betti,
)
from .partitions import EMPTY_MEET, PartialPartition, is_partial_coarsening, meet
from .present import (
    Automorphism,
    Presentation,
    apply_partial_conjugation,
    dc_presentation,
    export_gap,
    forest_dc_presentation,
    fr_presentation,
    normal_form,
    verify_relations,
)
from .series import (
    AbelianGroup,
    GradedModuleSeries,
    MultiPoly,
    circle_series,
    cyclic_classifying_series,
    forest_hilbert_closed_form,
    free_product_series,
    hilbert_polynomial,
    series_Wh_Zp,
    series_Wh_free,
    substitute,
)

__version__ = "0.1.0"
