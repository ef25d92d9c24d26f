"""Finite permutation group engine for complement-splitting questions."""

from .perm import Permutation
from .group import (
    FiniteGroup,
    Homomorphism,
    intersection,
    is_normal,
    is_subgroup,
    membership,
    normal_closure,
)
from .structure import (
    PrimeSet,
    all_sylow_abelian,
    center,
    conjugacy_classes,
    derived_series,
    derived_subgroup,
    element_order,
    exponent,
    is_abelian,
    is_metabelian,
    is_nilpotent,
    is_perfect,
    is_pi_group,
    nilpotent_residual,
    o_p_residual,
    quotient,
    sylow,
)
from .constructors import (
    ActionSpec,
    CentralProduct,
    SemidirectProduct,
    WreathProduct,
    alternating,
    central_product,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    regular_representation,
    semidirect_product,
    sl_2_3,
    symmetric,
    wreath_cyclic,
)
from .complements import (
    ComplementReport,
    Embedding,
    all_complements,
    complements_conjugate,
    find_complement,
)
from .lattice import (
    all_subgroups,
    frattini,
    minimal_supplement,
    normal_subgroups,
    subgroups_of_order,
)
from .autgroups import (
    AutGroup,
    aut_group,
    gaschuetz_eick_iii,
    is_characteristic,
    is_complete,
    prop_special_search,
    rose_criterion,
)
from .engine import Verdict, explain, verdict
from .witness import (
    WitnessBundle,
    baer_bundle,
    blow_up,
    build_perfect,
    build_znthm,
    verify_znthm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
