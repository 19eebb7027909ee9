"""Exact checks for multibracket structures on coordinate charts.

Multivector fields and differential forms carry rational polynomial
coefficients, so every verdict here is a polynomial identity, not a
numerical approximation. The layers build up from a sparse polynomial
kernel through exterior calculus, bracket structures and their
fundamental-identity sweeps, maps and coisotropic loci, polynomial
groupoids (group laws and pair models) with multiplicativity checks, the
bracket on one-forms with its dual-pair axioms, and finally a small session
language with a CLI.
"""

from .ratpoly import Chart, Poly, chart, concat_charts, monomials_up_to
from .exterior import Form, MultiVec, evaluate, interior_product, pairing
from .cartan import de_rham_d, lie_derivative, schouten
from .structures import (
    NambuStructure,
    block_product,
    fi_check,
    hamiltonian_field,
    nambu_bracket,
    plucker_check,
    sharp,
    structure_from_fields,
    sufficient_nambu,
    volume_structure,
)
from .geomaps import (
    PolyMap,
    SolvedSubmanifold,
    coinduce,
    coisotropy_check,
    graph_equivalence_check,
    opposite_sign,
    preimage_submanifold,
    product_structure,
    r_phi_submanifold,
    relatedness_check,
)
from .groupoids import (
    Groupoid,
    base_structure,
    coiso_subgroupoid_check,
    conormal_pair_model,
    group_law,
    heisenberg_group,
    inversion_check,
    multiplicativity_check,
    pair_groupoid,
    theorem_diagnostics,
    translation_group,
)
from .formsbialg import (
    coiso_subalgebroid_check,
    conormal_restriction_check,
    form_bracket,
    form_bracket_properties,
    induced_base_bracket,
    pointwise_filippov,
    tangent_pair_model,
    tangent_subalgebroid,
    wlfb_check,
)
from .parser import ParseError, parse, parse_expression
from .session import Report, RunResult, run_session

__all__ = [
    "Chart",
    "Poly",
    "chart",
    "concat_charts",
    "monomials_up_to",
    "Form",
    "MultiVec",
    "evaluate",
    "interior_product",
    "pairing",
    "de_rham_d",
    "lie_derivative",
    "schouten",
    "NambuStructure",
    "block_product",
    "fi_check",
    "hamiltonian_field",
    "nambu_bracket",
    "plucker_check",
    "sharp",
    "structure_from_fields",
    "sufficient_nambu",
    "volume_structure",
    "PolyMap",
    "SolvedSubmanifold",
    "coinduce",
    "coisotropy_check",
    "graph_equivalence_check",
    "opposite_sign",
    "preimage_submanifold",
    "product_structure",
    "r_phi_submanifold",
    "relatedness_check",
    "Groupoid",
    "base_structure",
    "coiso_subgroupoid_check",
    "conormal_pair_model",
    "group_law",
    "heisenberg_group",
    "inversion_check",
    "multiplicativity_check",
    "pair_groupoid",
    "theorem_diagnostics",
    "translation_group",
    "coiso_subalgebroid_check",
    "conormal_restriction_check",
    "form_bracket",
    "form_bracket_properties",
    "induced_base_bracket",
    "pointwise_filippov",
    "tangent_pair_model",
    "tangent_subalgebroid",
    "wlfb_check",
    "ParseError",
    "parse",
    "parse_expression",
    "Report",
    "RunResult",
    "run_session",
]
