"""Experiment pipelines: report structure, determinism, and the embedded
invariant verdicts."""

import json
import random
import sys
from pathlib import Path

from ginlab.experiments import (
    ExperimentReport,
    _embed_tower_checks,
    expected_curve_regularity,
    expected_node_count,
    experiment_borel_census,
    experiment_curve,
    experiment_nonsmooth,
    experiment_points,
    experiment_sylvester,
)
from ginlab.fields import FP_DEFAULT, QQ
from ginlab.groebner import Ideal
from ginlab.orders import Revlex
from ginlab.partial_elim import PartialElimTower, partial_elim_ideals
from ginlab.rings import RingContext
from ginlab.sylvester import sample_monic_pair


def test_expected_value_formulas():
    assert expected_curve_regularity(2, 2) == 4
    assert expected_curve_regularity(2, 3) == 7
    assert expected_curve_regularity(3, 3) == 19
    assert expected_node_count(2, 2) == 2
    assert expected_node_count(2, 3) == 6
    assert expected_node_count(3, 3) == 18


def test_curve_report_structure_and_determinism():
    a = experiment_curve(2, 2, seed=5)
    b = experiment_curve(2, 2, seed=5)
    assert a.passed
    assert a.to_json() == b.to_json()  # timing excluded from the canonical form
    payload = json.loads(a.to_json())
    assert payload["inputs"]["seed"] == 5
    assert payload["outputs"]["gin_generators"] == [
        "x0^2", "x0*x1", "x0*x2^2", "x1^4"
    ]
    assert all(c["passed"] for c in payload["checks"])


def test_hilbert_function_check_runs_past_a_low_degree_cap():
    # the check reads the gin, a monomial ideal, so it runs to regularity + 2
    # = 6 even where the cap of the Buchberger runs is 5
    report = experiment_curve(2, 2, seed=1, degree_cap=5)
    [check] = [c for c in report.checks if c.name == "hilbert_function_matches_ci"]
    assert check.passed
    assert len(check.expected) == 7  # degrees 0..6


def test_curve_report_embeds_invariant_verdicts():
    report = experiment_curve(2, 3, seed=6)
    names = {c.name for c in report.checks}
    assert {
        "trial_agreement",
        "gin_is_borel_fixed",
        "tower_decomposition",
        "tower_chain_ascending",
        "tower_commutes_with_initial",
    } <= names
    assert report.passed


def test_points_experiment_passes_and_reports_both_orders():
    report = experiment_points(5, 2, seed=8)
    assert report.passed
    assert "gin_lex" in report.outputs and "gin_revlex" in report.outputs


def test_points_experiment_runs_the_lex_checks_for_any_spelling_of_lex():
    report = experiment_points(6, 2, orders=("LEX",), seed=1)
    names = [c.name for c in report.checks]
    assert "lex_regularity_is_point_count" in names and report.passed


def test_every_report_names_each_check_once():
    # elim is lex in P^2, so the lex-only checks follow the order name the
    # user gave, not an order that compares equal to Lex()
    reports = [
        experiment_curve(2, 3, seed=1),
        experiment_nonsmooth(seed=1),
        experiment_points(12, 2, orders=("lex", "revlex", "elim"), seed=1),
        experiment_points(6, 2, orders=("elim", "LEX"), seed=1),
        experiment_sylvester(3, 4, 1, seed=1),
        experiment_borel_census(),
    ]
    for report in reports:
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names)), report.name
        assert report.passed, report.name


def test_sylvester_experiment_covers_equality_range():
    # p = r - 2 = 1 keeps the minors equal to the partial elimination ideal
    for (a, b, p) in [(2, 2, 1), (2, 3, 1), (3, 3, 1)]:
        report = experiment_sylvester(a, b, p, seed=9)
        assert report.passed, report.summary()
        byname = {c.name: c for c in report.checks}
        assert byname["minors_equal_kp"].got is True
        assert byname["minors_contained_in_kp"].got is True


def test_sylvester_gin_of_kp_moves_its_reduced_basis(monkeypatch):
    # K_p is generated by its reduced revlex basis, so each gin trial moves
    # that short basis, not the harvest it was reduced from
    gin_module = sys.modules["ginlab.gin"]  # the package re-exports the function as ``gin``
    moves = []
    apply = gin_module._apply_invertible

    def spy(I, matrix):
        moves.append((I, len(I.generators)))
        return apply(I, matrix)

    monkeypatch.setattr(gin_module, "_apply_invertible", spy)
    report = experiment_sylvester(3, 4, 1, seed=1)
    assert report.passed
    kp = moves[0][0]
    assert len(moves) >= 2 and all(I is kp for I, _ in moves)
    assert [n for _, n in moves] == [len(kp.groebner_basis(Revlex()))] * len(moves)


def test_chain_check_fails_on_a_descending_tower():
    # K_0 is principal and K_1 is not, so read top down the levels do not
    # ascend: the chain verdict, and so the report, must fail
    f, g = sample_monic_pair(RingContext(4, FP_DEFAULT), 2, 3, random.Random(3))
    I = Ideal([f, g])
    tower = partial_elim_ideals(I, 2, Revlex())
    descending = PartialElimTower(tower.levels[::-1], tower.inner_order, tower.source_basis)
    report = ExperimentReport("chain", {})
    _embed_tower_checks(report, I, descending)
    byname = {c.name: c for c in report.checks}
    assert byname["tower_chain_ascending"].got is False
    assert not report.passed
    ascending = ExperimentReport("chain", {})
    _embed_tower_checks(ascending, I, tower)
    assert ascending.passed


def test_sylvester_experiment_above_equality_range():
    report = experiment_sylvester(3, 3, 2, seed=10)
    byname = {c.name: c for c in report.checks}
    assert "minors_equal_kp" not in byname  # p > r - 2: only containment holds
    assert byname["minors_contained_in_kp"].got is True
    assert byname["expected_codimension"].got == 3
    assert report.passed


def test_census_report_deterministic():
    assert experiment_borel_census().to_json() == experiment_borel_census().to_json()


GOLDEN = Path(__file__).parent / "data"


def test_census_report_matches_golden_file():
    assert experiment_borel_census().to_json() == (
        GOLDEN / "golden_borel_census.json"
    ).read_text()


def test_points_report_matches_golden_file():
    assert experiment_points(3, 2, seed=4).to_json() == (
        GOLDEN / "golden_points_s3_r2_seed4.json"
    ).read_text()


def test_qq_curve_report_matches_golden_file():
    # the one exact end-to-end run: Buchberger on integer rows, the QQ
    # coordinate change and the point-count gcd
    assert experiment_curve(2, 3, seed=1, field=QQ).to_json() == (
        GOLDEN / "golden_curve_a2_b3_qq_seed1.json"
    ).read_text()
