"""Toolkit for constructing highly symmetric graphs and permutation groups
and certifying their properties: edge-primitivity, exact arc-transitivity
degrees, local actions and kernels, counting identities, and almost-simple
automorphism-group certificates."""

from .version import TOOL_VERSION as __version__

from .perms import Permutation, compose, from_cycles, identity, inverse
from .groups import (
    DEFAULT_ENUMERATION_CUTOFF,
    Group,
    ScaleLimitError,
    build_group,
    derived_subgroup,
    element_mapping,
    is_abelian,
    is_normal,
    is_subgroup,
    normal_closure,
    perfect_core,
    reduce_generators,
    same_subgroup,
    trivial_group,
)
from .structure import (
    centralizer,
    conjugacy_classes,
    elements,
    is_cyclic,
    is_p_group,
    is_simple,
    is_soluble,
    normal_subgroups,
    normalizer,
    sylow_subgroup,
)
from .actions import (
    BlockSystem,
    CosetTable,
    is_frobenius,
    is_k_transitive,
    is_primitive,
    is_transitive,
    restrict_to_invariant_set,
)
from .graphs import (
    Graph,
    automorphism_group,
    build_graph,
    is_connected,
    valency,
)
from .families import (
    CosetGraphSpec,
    FiniteField,
    agammal1,
    agl1,
    complete_bipartite,
    complete_graph,
    coset_graph,
    cycle_graph,
    gf,
    heawood,
    hoffman_singleton,
    petersen,
    pgl2,
    psl2,
)
from .certify import (
    Analysis,
    Certificate,
    RunConfig,
    affine_normal_check,
    almost_simple_certificate,
    counting_identity_check,
    is_edge_primitive,
    local_structure,
    main_theorem_check,
    prime_valency_check,
    run_lemma_suite,
    s_transitivity_degree,
    selfnorm_check,
    sylow_arc_check,
    three_arc_criterion,
)
