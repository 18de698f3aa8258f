"""Batch experiment pipelines with machine-readable reports.

Each pipeline echoes its inputs, records outputs and embedded invariant
verdicts (Borel-fixedness, trial agreement, tower decomposition), and
compares against expected values where a closed form exists.  Reports
serialize deterministically (sorted keys, canonical monomial order, no
timing inside the canonical form) so golden-file diffs are stable.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field as dc_field
from math import comb

from .fields import FP_DEFAULT
from .gin import gin
from .groebner import DEFAULT_DEGREE_CAP, Ideal, normal_form
from .monomial_ideals import (
    HilbertFunction,
    MonomialIdeal,
    hilbert_data,
    is_borel_fixed,
)
from .orders import Lex, Revlex, elimination_order, order_from_spec
from .partial_elim import (
    count_distinct_points,
    monomial_partial_elim,
    partial_elim_ideals,
    tower_decomposition,
)
from .points import random_points, vanishing_ideal
from .poly import parse_polynomial
from .rings import RingContext
from .segments import (
    enumerate_borel_by_hf,
    lex_ideal_of_hf,
    segment_ideal_of,
    segment_witness,
    verify_weight_witness,
)
from .sylvester import (
    build_sylp,
    codimension,
    en_regularity,
    kp_regularity_formula,
    maximal_minors,
    sample_monic_pair,
    unit_reduce,
)


@dataclass
class Check:
    name: str
    expected: object
    got: object

    @property
    def passed(self):
        return self.expected == self.got

    def to_dict(self):
        return {
            "name": self.name,
            "expected": self.expected,
            "got": self.got,
            "passed": self.passed,
        }


@dataclass
class ExperimentReport:
    name: str
    inputs: dict
    outputs: dict = dc_field(default_factory=dict)
    checks: list = dc_field(default_factory=list)
    elapsed_seconds: float = 0.0  # kept out of the canonical serialized form

    def check(self, name, expected, got):
        self.checks.append(Check(name, expected, got))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "name": self.name,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def summary(self):
        lines = [f"[{self.name}] {'PASS' if self.passed else 'FAIL'} "
                 f"({self.elapsed_seconds:.2f}s)"]
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            lines.append(f"  {mark} {c.name}: expected {c.expected!r}, got {c.got!r}")
        return "\n".join(lines)


def _timed(report, start):
    report.elapsed_seconds = time.perf_counter() - start
    return report


def expected_curve_regularity(a, b):
    return 4 if (a, b) == (2, 2) else 1 + a * b * (a - 1) * (b - 1) // 2


def expected_node_count(a, b):
    return a * b * (a - 1) * (b - 1) // 2


def ci_quotient_dimension(a, b, nvars, d):
    """dim (S/(f,g))_d for a regular sequence of degrees a, b."""
    def free(k):
        return comb(nvars - 1 + k, nvars - 1) if k >= 0 else 0

    return free(d) - free(d - a) - free(d - b) + free(d - a - b)


def experiment_curve(a, b, seed=0, field=FP_DEFAULT, degree_cap=DEFAULT_DEGREE_CAP):
    """Lex gin of a generic complete intersection curve in P^3: regularity,
    tower decomposition, projection node counts."""
    start = time.perf_counter()
    if not 2 <= a <= b:
        raise ValueError("need 2 <= a <= b")
    report = ExperimentReport(
        "curve",
        {"a": a, "b": b, "seed": seed, "field": repr(field), "degree_cap": degree_cap},
    )
    ring = RingContext(4, field)
    rng = random.Random(seed)
    f, g = sample_monic_pair(ring, a, b, rng)
    I = Ideal([f, g], degree_cap=degree_cap)
    result = gin(I, Lex(), trials=2, seed=seed)
    report.outputs["gin_generators"] = list(result.gin.generator_strings())
    report.outputs["trials_used"] = result.trials_used
    report.check("trial_agreement", True, result.agreed)
    report.check("gin_is_borel_fixed", True, is_borel_fixed(result.gin))
    report.check("regularity", expected_curve_regularity(a, b), result.regularity)

    # Hilbert function of the gin must match the complete-intersection
    # series; reading it off a monomial ideal runs no Buchberger step, so
    # the bound does not depend on the degree cap
    bound = result.regularity + 2
    data = hilbert_data(result.gin, bound)
    expected_hf = [ci_quotient_dimension(a, b, 4, d) for d in range(bound + 1)]
    report.check("hilbert_function_matches_ci", expected_hf, list(data.hf.dims))

    moved = result.trial_ideals[0]
    tower = partial_elim_ideals(moved, p_max=a, inner_order=Revlex())
    report.outputs["tower_levels"] = len(tower.levels)
    _embed_tower_checks(report, moved, tower)

    k0 = tower.levels[0].groebner_basis(Revlex())
    report.check("k0_principal", True, len(k0) == 1)
    report.check("k0_generator_degree", a * b, k0[0].homogeneous_degree())
    k1 = tower.levels[1]
    k1_data = k1.hilbert_data(Revlex(), bound=4)
    report.outputs["k1_degree"] = k1_data.degree
    report.check(
        "k1_distinct_points",
        expected_node_count(a, b),
        count_distinct_points(k1, seed=seed + 101),
    )
    return _timed(report, start)


def _embed_tower_checks(report, moved, tower):
    """Invariant verdicts for a partial elimination tower: the initial-ideal
    decomposition, commutation with initial ideals, and the ascending
    chain.  The tower is the one a lex gin trial reads in_lex off, with a
    revlex inner order, so the comparisons are under the elimination order
    with that inner order."""
    inner = tower.inner_order
    big_initial = moved.initial_ideal(elimination_order(moved.ring.nvars, inner))
    report.check(
        "tower_decomposition", True, tower_decomposition(tower) == big_initial
    )
    chain_ok = True
    commute_ok = True
    borel_ok = True
    for p, level in enumerate(tower.levels):
        level_initial = level.initial_ideal(inner)
        if monomial_partial_elim(big_initial, p) != level_initial:
            commute_ok = False
        if p + 1 < len(tower.levels):
            nxt = tower.levels[p + 1]
            if any(normal_form(list(level.generators), nxt.groebner_basis(inner), inner)):
                chain_ok = False
        if not is_borel_fixed(level_initial):
            borel_ok = False
    report.check("tower_chain_ascending", True, chain_ok)
    report.check("tower_commutes_with_initial", True, commute_ok)
    report.check("tower_levels_borel_fixed", True, borel_ok)


def experiment_nonsmooth(seed=0, field=FP_DEFAULT, degree_cap=DEFAULT_DEGREE_CAP):
    """The singular complete intersection (x0^3 - x1*x2^2, x1^3 - x2^2*x3):
    its K_1 is non-radical, so the node-count regularity formula breaks."""
    start = time.perf_counter()
    report = ExperimentReport(
        "nonsmooth", {"seed": seed, "field": repr(field), "degree_cap": degree_cap}
    )
    ring = RingContext(4, field)
    I = Ideal(
        [
            parse_polynomial("x0^3 - x1*x2^2", ring),
            parse_polynomial("x1^3 - x2^2*x3", ring),
        ],
        degree_cap=degree_cap,
    )
    result = gin(I, Lex(), trials=2, seed=seed)
    report.outputs["gin_generators"] = list(result.gin.generator_strings())
    report.check("trial_agreement", True, result.agreed)
    report.check("gin_is_borel_fixed", True, is_borel_fixed(result.gin))
    report.check("regularity", 16, result.regularity)
    moved = result.trial_ideals[0]
    tower = partial_elim_ideals(moved, p_max=3, inner_order=Revlex())
    _embed_tower_checks(report, moved, tower)
    k1 = tower.levels[1]
    k1_data = k1.hilbert_data(Revlex(), bound=4)
    report.check("k1_degree", 18, k1_data.degree)
    report.check(
        "k1_distinct_points",
        11,
        count_distinct_points(k1, seed=seed + 101),
    )
    return _timed(report, start)


def experiment_points(s, r, orders=("lex", "revlex"), seed=0, field=FP_DEFAULT,
                      degree_cap=DEFAULT_DEGREE_CAP):
    """Random points: the gin equals the segment ideal for every order, and
    the lex gin has regularity s with x_{r-1}^s a minimal generator."""
    start = time.perf_counter()
    if s < 1:
        raise ValueError("need at least one point")
    report = ExperimentReport(
        "points",
        {"s": s, "r": r, "orders": list(orders), "seed": seed, "field": repr(field)},
    )
    seen = set()
    for name in orders:
        key = name.strip().lower()  # as order_from_spec reads it
        if key in seen:
            raise ValueError(f"order {name.strip()!r} is listed twice")
        seen.add(key)
    named_orders = [(name, order_from_spec(name, r + 1)) for name in orders]
    pts = random_points(s, r, seed, field)
    I = vanishing_ideal(pts, degree_cap)
    hf = I.hilbert_function(Revlex(), bound=s + 2)
    generic = tuple(min(s, comb(r + d, r)) for d in range(s + 3))
    report.check("hilbert_function_is_generic", list(generic), list(hf.dims))
    for name, order in named_orders:
        # the segment of the measured Hilbert function bounds every initial
        # ideal of I, so a trial that reaches it is the gin (see gin.gin)
        seg = segment_ideal_of(hf, order, I.ring, bound=s + 2)
        ceiling = seg.monomial_ideal() if seg.is_ideal else None
        result = gin(I, order, trials=2, seed=seed, ceiling=ceiling)
        report.outputs[f"gin_{name}"] = list(result.gin.generator_strings())
        report.check(f"{name}_trial_agreement", True, result.agreed)
        report.check(f"{name}_gin_borel_fixed", True, is_borel_fixed(result.gin, order))
        report.check(f"{name}_segment_is_ideal", True, seg.is_ideal)
        if seg.is_ideal:
            report.check(f"{name}_gin_equals_segment", True, ceiling == result.gin)
        if name.strip().lower() == "lex":  # not ``order == Lex()``: elim is lex in P^2
            report.check("lex_regularity_is_point_count", s, result.regularity)
            last_power = (0,) * (r - 1) + (s,) + (0,)
            report.check(
                "x_{r-1}^s_is_minimal_generator", True, last_power in result.gin.gens
            )
    return _timed(report, start)


def experiment_sylvester(a, b, p, seed=0, field=FP_DEFAULT,
                         degree_cap=DEFAULT_DEGREE_CAP):
    """Truncated Sylvester minors of a random monic pair: unit reduction,
    regularity formulas, codimension, and (for p <= r-2) equality with K_p."""
    start = time.perf_counter()
    report = ExperimentReport(
        "sylvester",
        {"a": a, "b": b, "p": p, "seed": seed, "field": repr(field),
         "degree_cap": degree_cap},
    )
    ring = RingContext(4, field)
    rng = random.Random(seed)
    f, g = sample_monic_pair(ring, a, b, rng)
    syl = build_sylp(f, g, p)
    rows, cols = syl.shape
    report.outputs["shape"] = [rows, cols]
    minors = maximal_minors(syl)
    report.outputs["nonzero_minors"] = len(minors)
    report.outputs["zero_minors_dropped"] = comb(cols, rows) - len(minors)
    minors_ideal = Ideal(minors, ring.drop_first_variable(), degree_cap)
    reduced = unit_reduce(syl)
    report.outputs["reduced_shape"] = list(reduced.shape)
    report.check("reduced_shape", [a - p, a], list(reduced.shape))
    ledger_ok = reduced.row_degrees is not None and all(
        e.is_zero or e.homogeneous_degree() == b + (i + 1) - (j + 1)
        for i, row in enumerate(reduced.entries)
        for j, e in enumerate(row)
    )
    report.check("reduced_entry_degrees_b+i-j", True, ledger_ok)
    report.check(
        "minors_ideal_stable_under_unit_reduction",
        True,
        minors_ideal.equals(
            Ideal(maximal_minors(reduced), reduced.ring, degree_cap), Revlex()
        ),
    )
    codim = codimension(minors_ideal, Revlex())
    report.outputs["codimension"] = codim
    report.check("expected_codimension", min(p + 1, 3), codim)
    if p >= 1:
        formula = kp_regularity_formula(a, b, p)
        report.outputs["kp_regularity_formula"] = formula
        if reduced.row_degrees is not None:
            report.check(
                "en_regularity_matches_formula",
                formula,
                en_regularity(reduced.row_degrees, reduced.col_degrees),
            )
    tower = partial_elim_ideals(Ideal([f, g], degree_cap=degree_cap), p_max=p,
                                inner_order=Revlex())
    kp = tower.levels[p]
    contained = not any(normal_form(list(minors), kp.groebner_basis(Revlex()), Revlex()))
    report.check("minors_contained_in_kp", True, contained)
    if p <= ring.nvars - 3:  # p <= r - 2 with r = nvars - 1
        report.check(
            "minors_equal_kp", True, minors_ideal.equals(kp, Revlex())
        )
        gin_kp = gin(kp, Revlex(), trials=2, seed=seed + 7)
        report.check(
            "gin_revlex_regularity_matches_formula",
            kp_regularity_formula(a, b, p) if p >= 1 else a * b,
            gin_kp.regularity,
        )
    return _timed(report, start)


# ----------------------------------------------------------------------
# Borel census for the Hilbert function of 7 generic plane points

CENSUS_HF_DIMS = (1, 3, 6, 7, 7, 7, 7, 7, 7, 7)

#: The eight Borel-fixed ideals in k[x0,x1,x2] with Hilbert function
#: (1,3,6,7,7,...), canonically sorted; exactly four of them are segment
#: ideals for some degree-compatible order.
BOREL_CENSUS_EXPECTED = (
    ("x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^3", "x0*x1^2*x2", "x0*x1*x2^3", "x0*x2^5", "x1^7"),
    ("x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^3", "x0*x1^2*x2", "x0*x1*x2^3", "x1^6"),
    ("x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^3", "x0*x1^2*x2", "x1^5"),
    ("x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^3", "x1^4"),
    ("x0^3", "x0^2*x1", "x0*x1^2", "x0^2*x2^2", "x0*x1*x2^3", "x0*x2^5", "x1^7"),
    ("x0^3", "x0^2*x1", "x0*x1^2", "x0^2*x2^2", "x0*x1*x2^3", "x1^6"),
    ("x0^3", "x0^2*x1", "x0*x1^2", "x0^2*x2^2", "x1^5"),
    ("x0^3", "x0^2*x1", "x0*x1^2", "x1^4"),
)

#: Indices (into the tuple above) of the segment ideals, with a known
#: weight witness where one is quotable: the lex segment, the two weight
#: segments, and the revlex segment.
CENSUS_SEGMENT_WITNESSES = {
    0: None,         # lex segment ideal
    1: (6, 2, 1),
    2: (4, 2, 1),
    7: None,         # revlex segment ideal
}


def experiment_borel_census(field=FP_DEFAULT):
    """Enumerate the Borel-fixed ideals with the Hilbert function of seven
    general plane points and classify which are segment ideals."""
    start = time.perf_counter()
    report = ExperimentReport("borel-census", {"hf": list(CENSUS_HF_DIMS)})
    ring = RingContext(3, field)
    hf = HilbertFunction(CENSUS_HF_DIMS, len(CENSUS_HF_DIMS) - 1, 7)
    census = enumerate_borel_by_hf(hf, ring, bound=9)
    report.outputs["census"] = [list(J.generator_strings()) for J in census]
    report.check("census_size", 8, len(census))
    expected = [
        MonomialIdeal.from_strings(ring, gens) for gens in BOREL_CENSUS_EXPECTED
    ]
    report.check(
        "census_matches_expected_list",
        sorted(tuple(J.gens) for J in expected),
        sorted(tuple(J.gens) for J in census),
    )
    witness_flags = {}
    for idx, gens in enumerate(BOREL_CENSUS_EXPECTED):
        J = MonomialIdeal.from_strings(ring, gens)
        witness = segment_witness(J)
        witness_flags[idx] = witness is not None
        if witness is not None:
            report.outputs[f"witness_{idx}"] = [str(w) for w in witness.weights]
    report.check(
        "segment_ideals_are_exactly_1_2_3_8",
        sorted(CENSUS_SEGMENT_WITNESSES),
        sorted(i for i, ok in witness_flags.items() if ok),
    )
    for idx, weights in CENSUS_SEGMENT_WITNESSES.items():
        if weights is None:
            continue
        J = MonomialIdeal.from_strings(ring, BOREL_CENSUS_EXPECTED[idx])
        report.check(
            f"known_witness_{weights}_verifies_ideal_{idx}",
            True,
            verify_weight_witness(J, weights, (1, J.max_generator_degree() + 1)),
        )
    report.check(
        "lex_segment_ideal_is_first",
        tuple(BOREL_CENSUS_EXPECTED[0]),
        lex_ideal_of_hf(hf, ring, bound=9).generator_strings(),
    )
    seg_revlex = segment_ideal_of(hf, Revlex(), ring, bound=9)
    report.check("revlex_segment_is_ideal", True, seg_revlex.is_ideal)
    if seg_revlex.is_ideal:
        report.check(
            "revlex_segment_ideal_is_last",
            tuple(BOREL_CENSUS_EXPECTED[7]),
            seg_revlex.monomial_ideal().generator_strings(),
        )
    return _timed(report, start)
