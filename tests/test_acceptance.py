"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  All expectations are exact; runtime budgets
are asserted with the generous limits they were specified with."""

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import SUITE_SEED
from oracles import (
    SEVEN_POINTS_SHARED_FACTOR,
    TEN_POINTS_LATTICE_SIMPLEX,
    explicit_points,
    pei_oracle,
)

from ginlab.experiments import experiment_borel_census, experiment_curve, experiment_points
from ginlab.fields import FP_DEFAULT
from ginlab.gin import apply_change, gin, random_coordinate_change
from ginlab.groebner import Ideal
from ginlab.monomial_ideals import HilbertFunction, is_borel_fixed
from ginlab.orders import Lex, Revlex
from ginlab.partial_elim import partial_elim_ideals
from ginlab.points import vanishing_ideal
from ginlab.poly import random_form
from ginlab.rings import RingContext
from ginlab.segments import lex_ideal_of_hf, segment_space
from ginlab.sylvester import (
    build_sylp,
    codimension,
    en_regularity,
    kp_regularity_formula,
    maximal_minors,
    sample_monic_pair,
    unit_reduce,
)


#: sha256 of the ``--out`` JSON of each CLI command, recorded before the
#: segment ideals were built from their standard sets (``curve`` (5,6)
#: before the graded pieces dropped their tuples); a change to any reported
#: number changes its digest.
GRID_DIGESTS = json.loads((Path(__file__).parent / "data" / "grid_digests.json").read_text())

SLOW = pytest.mark.skipif(os.environ.get("GINLAB_SLOW") != "1",
                          reason="set GINLAB_SLOW=1 to run the large shapes")

#: Runs its arguments as a command and prints the command's exit code and
#: peak RSS in MB.  Linux starts a forked process's peak RSS at that of the
#: process it was forked from, so the command is forked from this small
#: interpreter, not from the test process.
WRAPPER = ("import resource, subprocess, sys; code = subprocess.call(sys.argv[1:]); "
           "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)")


def run_cli_child(command, out, address_limit=None):
    """Run one ``ginlab`` CLI command in a fresh interpreter, under an
    address-space limit if one is given; its exit code and peak RSS in MB."""
    import ginlab

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ginlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_limit, address_limit))

    done = subprocess.run(
        [sys.executable, "-c", WRAPPER, sys.executable, "-m", "ginlab.cli",
         *command.split(), "--out", str(out)],
        env=env, capture_output=True, text=True,
        preexec_fn=limit if address_limit else None,
    )
    code, peak = done.stdout.split()[-2:]
    return int(code), float(peak)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def announce(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({label}): {status} {detail}".rstrip())
    assert ok, f"acceptance criterion {number} failed: {label} {detail}"


def report_checks(report, names):
    return {c.name: (c.expected, c.got, c.passed) for c in report.checks if c.name in names}


# ----------------------------------------------------------------------


def test_criterion_1_curve_regularity(curve_reports):
    budgets = {(2, 2): 10.0, (2, 3): 120.0, (3, 3): 1800.0}
    expected = {(2, 2): 4, (2, 3): 7, (3, 3): 19}
    ok = True
    details = []
    for key, report in curve_reports.items():
        checks = report_checks(report, {"regularity", "trial_agreement"})
        reg_ok = checks["regularity"][1] == expected[key] and checks["regularity"][2]
        agree_ok = checks["trial_agreement"][2]
        time_ok = report.elapsed_seconds < budgets[key]
        ok = ok and reg_ok and agree_ok and time_ok
        details.append(f"{key}: reg={checks['regularity'][1]} {report.elapsed_seconds:.1f}s")
    announce(1, "lex gin regularity of CI curves", ok, "; ".join(details))


def test_criterion_2_curve_side_data(curve_reports):
    ok = True
    details = []
    for (a, b), report in curve_reports.items():
        checks = report_checks(
            report, {"k0_principal", "k0_generator_degree", "k1_distinct_points"}
        )
        good = all(passed for (_, _, passed) in checks.values())
        ok = ok and good
        details.append(
            f"({a},{b}): K0 deg={checks['k0_generator_degree'][1]}, "
            f"K1 points={checks['k1_distinct_points'][1]}"
        )
    announce(2, "K0 degree ab and K1 node counts", ok, "; ".join(details))


def test_criterion_1_curve_3_4():
    # the main theorem one shape past the (3,3) run, at the default cap:
    # reg = 1 + 12*2*3/2 = 37 and K_1 has 36 distinct points
    report = experiment_curve(3, 4, seed=SUITE_SEED)
    checks = report_checks(report, {"regularity", "trial_agreement", "k1_distinct_points"})
    ok = (checks["regularity"][1] == 37 and checks["k1_distinct_points"][1] == 36
          and all(passed for (_, _, passed) in checks.values()))
    announce(1, "lex gin regularity of the (3,4) CI curve", ok,
             f"reg={checks['regularity'][1]}, K1 points={checks['k1_distinct_points'][1]}, "
             f"{report.elapsed_seconds:.1f}s")


@SLOW
@pytest.mark.parametrize("a, b, cap", [(3, 5, 80), (4, 4, 80), (3, 6, 130), (4, 5, 130),
                                       (3, 7, 140), (4, 6, 190), (5, 5, 210), (4, 7, 260),
                                       (5, 6, 310)])
def test_criterion_1_curve_grid(a, b, cap):
    # the README grid past (3,4), at seed 1: reg = 1 + ab(a-1)(b-1)/2 and K_1
    # has ab(a-1)(b-1)/2 distinct points; the caps reach past each regularity
    nodes = a * b * (a - 1) * (b - 1) // 2
    report = experiment_curve(a, b, seed=1, degree_cap=cap)
    checks = report_checks(report, {"regularity", "k1_distinct_points"})
    recorded = GRID_DIGESTS[f"curve --a {a} --b {b} --degree-cap {cap} --seed 1"]
    ok = (report.passed and checks["regularity"][1] == 1 + nodes
          and checks["k1_distinct_points"][1] == nodes
          and digest(report.to_json().encode()) == recorded)
    announce(1, f"lex gin regularity of the ({a},{b}) CI curve at cap {cap}", ok,
             f"reg={checks['regularity'][1]}, K1 points={checks['k1_distinct_points'][1]}, "
             f"{report.elapsed_seconds:.1f}s")


@SLOW
def test_criterion_1_curve_4_7_memory(tmp_path):
    # the graded pieces hold exponent rows and no tuple copy: tuples of
    # every piece up to degree 261 took this run to 427 MB
    command = "curve --a 4 --b 7 --degree-cap 260 --seed 1"
    code, peak = run_cli_child(command, tmp_path / "out.json")
    ok = (code == 0 and peak < 380
          and digest((tmp_path / "out.json").read_bytes()) == GRID_DIGESTS[command])
    announce(1, "the (4,7) CI curve at cap 260 under 380 MB, recorded report", ok,
             f"exit {code}, peak {peak:.0f} MB")


def test_criterion_3_nonsmooth(nonsmooth_report):
    report = nonsmooth_report
    checks = report_checks(report, {"regularity", "k1_degree", "k1_distinct_points"})
    ok = all(passed for (_, _, passed) in checks.values())
    ok = ok and report.elapsed_seconds < 300.0
    announce(
        3,
        "nonsmooth example",
        ok,
        f"reg={checks['regularity'][1]}, K1 deg={checks['k1_degree'][1]}, "
        f"points={checks['k1_distinct_points'][1]}, {report.elapsed_seconds:.1f}s",
    )


GRID = [(s, 2) for s in range(3, 11)] + [(s, 3) for s in range(3, 9)]


def test_criterion_4_points_grid():
    start = time.perf_counter()
    ok = True
    for i, (s, r) in enumerate(GRID):
        report = experiment_points(s, r, seed=SUITE_SEED + i)
        ok = ok and report.passed
        if not report.passed:
            print(report.summary())
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    announce(4, "gin = segment ideal on the (s, r) grid", ok,
             f"{len(GRID)} instances, {elapsed:.1f}s")


def test_criterion_4_twenty_points_in_p3():
    # h = 1, 4, 10, 20: the vanishing ideal stops at its regularity 4, not
    # at degree 20, which keeps this shape near one second
    start = time.perf_counter()
    report = experiment_points(20, 3, seed=1)
    elapsed = time.perf_counter() - start
    failed = [c.name for c in report.checks if not c.passed]
    announce(4, "gin = segment ideal for 20 points in P^3", not failed,
             f"failed checks {failed}, {elapsed:.1f}s")


def test_criterion_4_hundred_points_in_p3(tmp_path):
    # the segment check holds at most 100 standard monomials per degree;
    # the whole graded pieces up to degree 102 would take several hundred MB
    command = "points --s 100 --r 3 --orders revlex --degree-cap 110 --seed 1"
    code, peak = run_cli_child(command, tmp_path / "out.json")
    recorded = GRID_DIGESTS[command]
    ok = code == 0 and peak < 200 and digest((tmp_path / "out.json").read_bytes()) == recorded
    announce(4, "100 points in P^3 under revlex, recorded report", ok,
             f"exit {code}, peak {peak:.0f} MB")


@SLOW
def test_criterion_4_three_hundred_points_in_p2(tmp_path):
    command = "points --s 300 --r 2 --orders lex,revlex --degree-cap 310 --seed 1"
    code, peak = run_cli_child(command, tmp_path / "out.json")
    ok = code == 0 and digest((tmp_path / "out.json").read_bytes()) == GRID_DIGESTS[command]
    announce(4, "300 points in P^2, recorded report", ok, f"exit {code}, peak {peak:.0f} MB")


@SLOW
def test_criterion_4_hundred_fifty_points_in_p3_memory(tmp_path):
    # under a 2 GB address-space limit, so a regression fails fast
    command = "points --s 150 --r 3 --orders lex,revlex --degree-cap 160 --seed 1"
    start = time.perf_counter()
    code, peak = run_cli_child(command, tmp_path / "out.json", address_limit=2 << 30)
    elapsed = time.perf_counter() - start
    announce(4, "150 points in P^3 in 10 s and 500 MB", code == 0 and peak < 500 and elapsed < 10,
             f"exit {code}, peak {peak:.0f} MB, {elapsed:.1f}s")


def test_criterion_5_counterexample_fixtures():
    field = FP_DEFAULT
    seven = vanishing_ideal(explicit_points(field, SEVEN_POINTS_SHARED_FACTOR))
    ring = seven.ring
    ok = True
    # degree-2 gin part x0*(x0, x1, x2) for both orders
    for order in (Lex(), Revlex()):
        result = gin(seven, order, trials=2, seed=SUITE_SEED)
        part = [ring.monomial_str(m) for m in result.gin.monomials_of_degree(2)]
        ok = ok and part == ["x0^2", "x0*x1", "x0*x2"]
    # and that differs from the revlex segment in degree 2
    seg2 = set(segment_space(2, 3, Revlex(), ring).monomials)
    result = gin(seven, Revlex(), trials=2, seed=SUITE_SEED)
    ok = ok and set(result.gin.monomials_of_degree(2)) != seg2

    ten = vanishing_ideal(explicit_points(field, TEN_POINTS_LATTICE_SIMPLEX))
    result10 = gin(ten, Lex(), trials=2, seed=SUITE_SEED)
    # every generic projection of these points lands on a unique cubic, so
    # the lex gin picks up that cubic's leading term x1^3, while the lex
    # segment's degree-3 piece is the ten x0-multiples
    second_cubed = (0, 3, 0, 0)
    seg3 = set(segment_space(3, 10, Lex(), ten.ring).monomials)
    ok = ok and second_cubed in result10.gin.gens
    ok = ok and second_cubed not in seg3
    ok = ok and set(result10.gin.monomials_of_degree(3)) != seg3
    announce(5, "boundary fixtures (7 and 10 points)", ok)


def test_criterion_6_borel_census():
    start = time.perf_counter()
    report = experiment_borel_census()
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 60.0
    announce(6, "Borel census with witnesses", ok,
             f"{len(report.outputs['census'])} ideals, {elapsed:.1f}s")


def test_criterion_7_sylvester_equalities():
    ok = True
    details = []
    for (a, b, seed) in [(2, 2, SUITE_SEED), (2, 3, SUITE_SEED + 1)]:
        ring = RingContext(4, FP_DEFAULT)
        f, g = sample_monic_pair(ring, a, b, random.Random(seed))
        minors = Ideal(maximal_minors(build_sylp(f, g, 1)))
        k1 = partial_elim_ideals(Ideal([f, g]), 1, Revlex()).levels[1]
        equal = minors.equals(k1, Revlex())
        codim = codimension(minors)
        ok = ok and equal and codim == 2
        details.append(f"({a},{b}): minors==K1 {equal}, codim {codim}")
    ring = RingContext(4, FP_DEFAULT)
    f, g = sample_monic_pair(ring, 3, 3, random.Random(SUITE_SEED + 2))
    codim33 = codimension(Ideal(maximal_minors(build_sylp(f, g, 2))))
    ok = ok and codim33 == 3
    details.append(f"(3,3) syl2 codim {codim33}")
    announce(7, "Sylvester minor identities", ok, "; ".join(details))


def test_criterion_8_regularity_formulas():
    ok = True
    details = []
    for i, (a, b, p) in enumerate([(2, 2, 1), (2, 3, 1), (3, 3, 1)]):
        ring = RingContext(4, FP_DEFAULT)
        f, g = sample_monic_pair(ring, a, b, random.Random(SUITE_SEED + 10 + i))
        syl = build_sylp(f, g, p)
        minors = Ideal(maximal_minors(syl))
        reduced = unit_reduce(syl)
        formula = kp_regularity_formula(a, b, p)
        en = en_regularity(reduced.row_degrees, reduced.col_degrees)
        result = gin(minors, Revlex(), trials=2, seed=SUITE_SEED + 20 + i)
        ok = ok and formula == en == result.regularity
        details.append(f"({a},{b},{p}): {formula}={en}={result.regularity}")
    announce(8, "regularity formulas vs computed gins", ok, "; ".join(details))


def test_criterion_9_macaulay_lex_segment():
    dims = tuple([1] + [4 * d for d in range(1, 10)])
    hf = HilbertFunction(dims, 9, None)
    J = lex_ideal_of_hf(hf, RingContext(4, FP_DEFAULT), bound=9)
    maxdeg = J.max_generator_degree()
    ok = maxdeg == 6  # ab(a-1)(b-1)/2 + ab for (a, b) = (2, 2)
    announce(9, "lex ideal of the CI(2,2) Hilbert function", ok,
             f"max generator degree {maxdeg}")


def test_criterion_10_property_suites(curve_reports, nonsmooth_report):
    ok = True
    notes = []

    # partial elimination identities embedded in every curve run
    tower_checks = {
        "tower_decomposition",
        "tower_commutes_with_initial",
        "tower_chain_ascending",
        "tower_levels_borel_fixed",
        "gin_is_borel_fixed",
    }
    for key, report in list(curve_reports.items()) + [("nonsmooth", nonsmooth_report)]:
        checks = report_checks(report, tower_checks)
        good = all(passed for (_, _, passed) in checks.values())
        ok = ok and good
    notes.append("tower identities on all curve instances")

    # segment expansion lemma on 200 random segments
    rng = random.Random(SUITE_SEED)
    ring3 = RingContext(3, FP_DEFAULT)
    checked = 0
    while checked < 200:
        a = rng.randint(1, 6)
        total = ring3.monomial_count(a)
        codim = rng.randint(0, a)
        if codim > total:
            continue
        order = rng.choice((Lex(), Revlex()))
        V = segment_space(a, total - codim, order, ring3)
        expanded = set()
        for m in V.monomials:
            for i in range(3):
                expanded.add(tuple(e + (1 if k == i else 0) for k, e in enumerate(m)))
        target = segment_space(a + 1, len(expanded), order, ring3)
        ok = ok and set(target.monomials) == expanded
        ok = ok and ring3.monomial_count(a + 1) - len(expanded) == codim
        checked += 1
    notes.append("segment expansion x200")

    # Borel-fixedness of freshly computed gins
    for nvars, deg, seed in [(3, 2, 1), (4, 2, 2), (4, 3, 3)]:
        R = RingContext(nvars, FP_DEFAULT)
        rnd = random.Random(SUITE_SEED + seed)
        I = Ideal([random_form(R, deg, rnd), random_form(R, deg, rnd)])
        result = gin(I, Revlex(), trials=2, seed=SUITE_SEED + seed)
        ok = ok and is_borel_fixed(result.gin)
    notes.append("gin Borel-fixedness")

    # a third independent seed also agrees on an acceptance instance
    R = RingContext(4, FP_DEFAULT)
    f, g = sample_monic_pair(R, 2, 2, random.Random(SUITE_SEED + 4))
    third = gin(Ideal([f, g]), Lex(), trials=3, seed=SUITE_SEED + 4)
    ok = ok and third.agreed and third.trials_used == 3
    notes.append("three-seed agreement")

    # oracle equivalence on random small ideals (degrees <= 4)
    rnd = random.Random(SUITE_SEED + 99)
    for _ in range(3):
        nvars = rnd.choice((3, 4))
        R = RingContext(nvars, FP_DEFAULT)
        I = Ideal([random_form(R, rnd.randint(1, 4), rnd) for _ in range(2)])
        p = rnd.randint(0, 1)
        tower = partial_elim_ideals(I, p, Revlex())
        pieces = pei_oracle(I, p, 5, Revlex())
        level = tower.levels[p]
        initial = level.initial_ideal(Revlex())
        for d in range(6):
            ok = ok and len(pieces[d]) == len(initial.monomials_of_degree(d))
            ok = ok and all(level.contains(h, Revlex()) for h in pieces[d])
    notes.append("oracle equivalence")

    # Hilbert function invariance under 50 random coordinate changes
    R = RingContext(4, FP_DEFAULT)
    f, g = sample_monic_pair(R, 2, 2, random.Random(SUITE_SEED + 5))
    I = Ideal([f, g])
    base = I.hilbert_function(Revlex(), bound=5).dims
    for seed in range(50):
        moved = apply_change(I, random_coordinate_change(R, SUITE_SEED + seed))
        ok = ok and moved.hilbert_function(Revlex(), bound=5).dims == base
    notes.append("HF invariance x50")

    announce(10, "property suites", ok, "; ".join(notes))
