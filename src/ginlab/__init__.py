"""Exact computer algebra for generic initial ideals, partial elimination
ideals, truncated Sylvester minors, and segment/Borel-fixed monomial ideal
invariants."""

from .fields import DEFAULT_PRIME, FP_DEFAULT, QQ, PrimeField, RationalField, field_from_spec
from .gin import GinDisagreement, GinResult, apply_change, gin, random_coordinate_change
from .groebner import (
    DEFAULT_DEGREE_CAP,
    DegreeCapExceeded,
    Ideal,
    buchberger,
    normal_form,
    reduce_groebner_basis,
)
from .monomial_ideals import HilbertFunction, MonomialIdeal, hilbert_data, is_borel_fixed
from .orders import Lex, ProductOrder, Revlex, WeightOrder, elimination_order
from .partial_elim import (
    PartialElimTower,
    X0Profile,
    count_distinct_points,
    monomial_partial_elim,
    partial_elim_ideals,
    tower_decomposition,
    x0_profile,
)
from .points import PointSet, evaluation_matrix, random_points, vanishing_ideal
from .poly import Polynomial, parse_polynomial, random_form
from .rings import RingContext
from .segments import (
    SegmentSpace,
    WeightWitness,
    enumerate_borel_by_hf,
    lex_ideal_of_hf,
    segment_ideal_of,
    segment_space,
    segment_witness,
    verify_weight_witness,
)
from .sylvester import (
    PolyMatrix,
    build_sylp,
    codimension,
    en_regularity,
    kp_regularity_formula,
    maximal_minors,
    sample_monic_pair,
    unit_reduce,
)

__version__ = "0.1.0"
