"""Correctness checks the benchmark applies to every job's JSON report.

A job passes only if ``ginlab.cli.run`` returned 0, which means every exact
check embedded in its report passed, and if its canonical report matches
the reference digest recorded in ``reference.json``.  Witness weights are
masked before the digest is taken, as are the job's seed and input-file
path: the reports state generic results, so for a fixed job shape the
masked report is the same at every seed.  Every weight witness is also
re-checked here with code that shares nothing with ginlab.
"""

from __future__ import annotations

import hashlib
import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_MASKED_INPUTS = ("seed", "file")
MASK = "<masked>"


def masked_digest(report):
    """sha256 of the canonical report with weights, seed and file masked."""
    report = json.loads(json.dumps(report))  # a deep copy
    inputs = report.get("inputs", {})
    for key in _MASKED_INPUTS:
        if key in inputs:
            inputs[key] = MASK
    outputs = report.get("outputs", {})
    for key in outputs:
        if key == "weights" or key.startswith("witness_"):
            outputs[key] = MASK
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# weight witnesses


def parse_monomial(text, nvars):
    exps = [0] * nvars
    if text.strip() == "1":
        return tuple(exps)
    for factor in text.split("*"):
        name, _, power = factor.strip().partition("^")
        if not name.startswith("x"):
            raise ValueError(f"unexpected variable {name!r}")
        exps[int(name[1:])] += int(power) if power else 1
    return tuple(exps)


def monomials_of_degree(nvars, d):
    if nvars == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1)
            for rest in monomials_of_degree(nvars - 1, d - e)]


def witness_problems(generators, weights, degree_range, nvars):
    """Problems with a weight witness: a weight that is not a positive
    integer, or an in/out pair (m, n) of one degree with w . (m - n) <= 0."""
    gens = [parse_monomial(g, nvars) for g in generators]
    try:
        w = [int(x) for x in weights]
    except ValueError:
        return [f"weights {weights} are not integers"]
    if len(w) != nvars or any(x <= 0 for x in w):
        return [f"weights {weights} are not {nvars} positive integers"]
    lo, hi = degree_range
    for d in range(lo, hi + 1):
        inside, outside = [], []
        for m in monomials_of_degree(nvars, d):
            in_ideal = any(all(a >= b for a, b in zip(m, g)) for g in gens)
            (inside if in_ideal else outside).append(sum(x * e for x, e in zip(w, m)))
        if inside and outside and min(inside) <= max(outside):
            return [f"weights {weights} do not separate degree {d}"]
    return []


def report_witness_problems(report, job_generators, nvars):
    """Re-check the witnesses of a ``segment --witness-in`` or
    ``borel-census`` report.  ``job_generators`` gives the generators the
    job read (segment) or the census table (borel-census)."""
    outputs = report["outputs"]
    problems = []
    if report["name"] == "segment-witness":
        if not outputs.get("feasible"):
            return ["no witness found"]
        problems += witness_problems(job_generators, outputs["weights"],
                                     outputs["certified_degrees"], nvars)
    elif report["name"] == "borel-census":
        for key, weights in outputs.items():
            if key.startswith("witness_"):
                gens = job_generators[int(key[len("witness_"):])]
                top = max(sum(parse_monomial(g, nvars)) for g in gens)
                problems += witness_problems(gens, weights, (1, top + 1), nvars)
    return problems

