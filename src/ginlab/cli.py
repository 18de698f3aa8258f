"""Command-line front door.

Subcommands: gin, pei, sylvester, segment, borel-census, curve, points,
nonsmooth.  Every run produces one structured JSON report (deterministic
for fixed inputs and seeds) plus a human-readable summary on stdout.

Exit codes: 0 = success and every expectation matched (or --help);
2 = computation succeeded but an expectation failed; 3 = computation failed
(degree cap, resource guard, gin trials disagree or agree on a non-Borel
ideal, gin over a prime too small to be Borel-fixed, degenerate points,
point counts disagree); 4 = bad input or usage; 5 = a result failed its own
re-check, which is a defect in ginlab.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time

from .experiments import (
    ExperimentReport,
    experiment_borel_census,
    experiment_curve,
    experiment_nonsmooth,
    experiment_points,
    experiment_sylvester,
)
from .fields import DEFAULT_PRIME, field_from_spec
from .gin import CharacteristicTooSmall, GinDisagreement, gin
from .groebner import DEFAULT_DEGREE_CAP, DegreeCapExceeded, Ideal, ResourceLimitExceeded
from .monomial_ideals import HilbertFunction, MonomialIdeal, SelfCheckFailed, hilbert_data, is_borel_fixed
from .orders import order_from_spec
from .partial_elim import PointCountError, partial_elim_ideals
from .points import DegeneratePointsError
from .poly import ideal_file_lines, parse_polynomial
from .rings import RingContext
from .segments import segment_ideal_of, segment_space, segment_witness


def _common(parser, *, seed=True, cap=True):
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--field", default=f"fp:{DEFAULT_PRIME}", help="coefficient field: fp:<p> or qq"
    )
    if cap:
        parser.add_argument(
            "--degree-cap", type=int, default=DEFAULT_DEGREE_CAP,
            help="abort if an S-polynomial exceeds this degree",
        )
    parser.add_argument("--out", help="write the JSON report to this path")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and ``run`` is called many times in one process."""
    ap = argparse.ArgumentParser(
        prog="ginlab",
        description="generic initial ideals, partial elimination ideals, "
        "Sylvester minors, and segment ideals over exact fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gin", help="generic initial ideal of an ideal file")
    p.add_argument("--in", dest="infile", required=True, help="ideal file (one polynomial per line)")
    p.add_argument("--nvars", type=int, help="variable count (default: inferred)")
    p.add_argument("--order", default="lex", help="lex | revlex | weight:<w,..> | elim")
    p.add_argument("--trials", type=int, default=2)
    _common(p)

    p = sub.add_parser("pei", help="partial elimination ideal tower of an ideal file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--nvars", type=int)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--inner-order", default="revlex", help="order on the small ring")
    _common(p)

    p = sub.add_parser("sylvester", help="truncated Sylvester minors of a random monic pair")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    _common(p)

    p = sub.add_parser("segment", help="segment spaces of a Hilbert function, or a weight witness")
    p.add_argument("--hf", help="comma-separated h(0),h(1),... of the quotient")
    p.add_argument("--stable", type=int, help="eventual constant value of the Hilbert function")
    p.add_argument("--nvars", type=int, default=3)
    p.add_argument("--order", default="lex")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--witness-in", help="monomial ideal file: search for a weight witness instead")
    p.add_argument("--degree-range", help="lo:hi witness range (default 1:maxgen+1)")
    _common(p, seed=False, cap=False)

    p = sub.add_parser("borel-census", help="Borel-fixed ideals with the Hilbert function of 7 plane points")
    _common(p, seed=False, cap=False)

    p = sub.add_parser("curve", help="lex gin of a generic complete intersection curve in P^3")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _common(p)

    p = sub.add_parser("points", help="gin vs segment ideal for random points in P^r")
    p.add_argument("--s", type=int, required=True, help="number of points")
    p.add_argument("--r", type=int, required=True, help="projective dimension")
    p.add_argument("--orders", default="lex,revlex")
    _common(p)

    p = sub.add_parser("nonsmooth", help="the singular complete intersection example")
    _common(p)

    return ap


def _load_ideal(args, field):
    with open(args.infile) as fh:
        lines = ideal_file_lines(fh.read())
    nvars = args.nvars
    if nvars is None:
        indices = [int(m) for line in lines for m in re.findall(r"x(\d+)", line)]
        if not indices:
            raise ValueError("cannot infer variable count from file; pass --nvars")
        nvars = max(indices) + 1
    ring = RingContext(nvars, field)
    return Ideal([parse_polynomial(line, ring) for line in lines], ring, args.degree_cap)


def _cmd_gin(args):
    field = field_from_spec(args.field)
    I = _load_ideal(args, field)
    order = order_from_spec(args.order, I.ring.nvars)
    result = gin(I, order, trials=args.trials, seed=args.seed)
    report = ExperimentReport(
        "gin",
        {
            "file": args.infile,
            "order": args.order,
            "seed": args.seed,
            "trials": args.trials,
            "field": repr(field),
            "degree_cap": args.degree_cap,
        },
    )
    report.outputs["gin_generators"] = list(result.gin.generator_strings())
    report.outputs["trials_used"] = result.trials_used
    borel = is_borel_fixed(result.gin, order)
    report.outputs["borel_fixed"] = borel
    report.outputs["regularity"] = result.regularity
    report.check("trial_agreement", True, result.agreed)
    report.check("gin_is_borel_fixed", True, borel)
    return report


def _cmd_pei(args):
    field = field_from_spec(args.field)
    I = _load_ideal(args, field)
    inner = order_from_spec(args.inner_order, I.ring.nvars - 1)
    tower = partial_elim_ideals(I, args.pmax, inner)
    report = ExperimentReport(
        "pei",
        {
            "file": args.infile,
            "pmax": args.pmax,
            "inner_order": args.inner_order,
            "field": repr(field),
            "degree_cap": args.degree_cap,
        },
    )
    for p, level in enumerate(tower.levels):
        basis = level.groebner_basis(inner)
        data = hilbert_data(level.initial_ideal(inner), 4)
        report.outputs[f"k{p}_basis"] = [str(g) for g in basis]
        report.outputs[f"k{p}_dimension"] = data.dimension
        report.outputs[f"k{p}_degree"] = data.degree
    return report


def _cmd_segment(args):
    field = field_from_spec(args.field)
    if args.witness_in:
        ring = RingContext(args.nvars, field)
        with open(args.witness_in) as fh:
            J = MonomialIdeal.from_strings(ring, ideal_file_lines(fh.read()))
        rng = None
        if args.degree_range:
            try:
                lo, hi = (int(x) for x in args.degree_range.split(":"))
            except ValueError:
                raise ValueError(f"--degree-range takes lo:hi with integers lo and hi, "
                                 f"got {args.degree_range!r}") from None
            rng = (lo, hi)
        witness = segment_witness(J, rng)
        report = ExperimentReport(
            "segment-witness",
            {"file": args.witness_in, "nvars": args.nvars,
             "degree_range": args.degree_range or "default"},
        )
        report.outputs["feasible"] = witness is not None
        if witness is not None:
            report.outputs["weights"] = [str(w) for w in witness.weights]
            report.outputs["certified_degrees"] = list(witness.certified_degrees)
        return report
    if not args.hf:
        raise ValueError("segment needs --hf or --witness-in")
    dims = tuple(int(x) for x in args.hf.split(","))
    hf = HilbertFunction(dims, len(dims) - 1, args.stable)
    ring = RingContext(args.nvars, field)
    order = order_from_spec(args.order, args.nvars)
    seg = segment_ideal_of(hf, order, ring, args.bound)
    report = ExperimentReport(
        "segment",
        {"hf": list(dims), "order": args.order, "nvars": args.nvars, "bound": args.bound},
    )
    report.outputs["is_ideal"] = seg.is_ideal
    report.outputs["spaces"] = {
        str(d): [ring.monomial_str(m)
                 for m in segment_space(d, hf.ideal_dimension(ring, d), order, ring).monomials]
        for d in range(args.bound + 1)
    }
    if seg.is_ideal:
        report.outputs["minimal_generators"] = list(
            seg.monomial_ideal().generator_strings()
        )
    return report


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return 0 if exc.code in (0, None) else 4
    start = time.perf_counter()
    try:
        if args.command == "gin":
            report = _cmd_gin(args)
        elif args.command == "pei":
            report = _cmd_pei(args)
        elif args.command == "sylvester":
            report = experiment_sylvester(
                args.a, args.b, args.p, seed=args.seed,
                field=field_from_spec(args.field), degree_cap=args.degree_cap,
            )
        elif args.command == "segment":
            report = _cmd_segment(args)
        elif args.command == "borel-census":
            report = experiment_borel_census(field=field_from_spec(args.field))
        elif args.command == "curve":
            report = experiment_curve(
                args.a, args.b, seed=args.seed,
                field=field_from_spec(args.field), degree_cap=args.degree_cap,
            )
        elif args.command == "points":
            # split only at the commas that start a name: lex,weight:3,2,1
            orders = re.split(r",(?=[A-Za-z])", args.orders)
            report = experiment_points(
                args.s, args.r, orders=orders, seed=args.seed,
                field=field_from_spec(args.field), degree_cap=args.degree_cap,
            )
        elif args.command == "nonsmooth":
            report = experiment_nonsmooth(
                seed=args.seed, field=field_from_spec(args.field),
                degree_cap=args.degree_cap,
            )
        else:  # pragma: no cover
            raise ValueError(f"unknown command {args.command}")
    except (DegreeCapExceeded, ResourceLimitExceeded, GinDisagreement,
            CharacteristicTooSmall, PointCountError, DegeneratePointsError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 4
    except SelfCheckFailed as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 5
    report.elapsed_seconds = time.perf_counter() - start  # not part of the JSON
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
    print(report.summary())
    return 0 if report.passed else 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
