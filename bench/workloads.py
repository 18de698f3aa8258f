"""The benchmark's workloads: fixed job lists whose inputs come from the seed.

Each job is one ``ginlab.cli.run(argv)`` call.  Jobs of a workload run one
at a time, in list order (a closed loop with a single client).  The seed
fixes every random choice: the ``--seed`` of each job and the order of the
segment Hilbert functions.

``fp`` holds the prime-field jobs, whose time goes into the numpy F_p
kernels; ``exact`` holds the jobs whose time goes into ``Fraction`` and
integer arithmetic: QQ curves and points, the Borel census, segments and
their Fourier-Motzkin weight witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

WORKLOADS = ("fp", "exact")

#: Projective dimension -> point counts whose generic Hilbert function the
#: ``exact`` workload feeds to ``segment``.
SEGMENT_POINTS = {3: range(10, 17), 2: range(20, 31)}


@dataclass(frozen=True)
class Job:
    label: str  # unique within the workload; keys the reference digest
    argv: tuple  # arguments of ginlab.cli.run, without --out
    witness_of: str = None  # label of the segment job whose generators this reads


def generic_points_hf(s, r):
    """h(d) = min(s, C(r+d, r)) up to the second degree at which it equals s."""
    dims = []
    while len(dims) < 2 or dims[-2] != s:
        dims.append(min(s, comb(r + len(dims), r)))
    return dims


def jobs_for(workload, seed):
    rng = random.Random(f"{workload}:{seed}")

    def sd():
        return str(rng.randrange(1, 10**6))

    if workload == "fp":
        return [
            Job("curve-3-3-a", ("curve", "--a", "3", "--b", "3", "--seed", sd())),
            Job("curve-3-3-b", ("curve", "--a", "3", "--b", "3", "--seed", sd())),
            Job("curve-2-5", ("curve", "--a", "2", "--b", "5", "--seed", sd())),
            Job("nonsmooth", ("nonsmooth", "--seed", sd())),
            Job("sylvester-3-4-1",
                ("sylvester", "--a", "3", "--b", "4", "--p", "1", "--seed", sd())),
        ] + [
            Job(f"points-{s}-{r}", ("points", "--s", str(s), "--r", str(r),
                                    "--orders", "lex,revlex", "--seed", sd()))
            for s, r in ((20, 2), (10, 3), (7, 4))
        ]
    if workload == "exact":
        jobs = [
            Job(f"curve-2-3-qq-{tag}",
                ("curve", "--a", "2", "--b", "3", "--field", "qq", "--seed", sd()))
            for tag in "abc"
        ]
        jobs.append(Job("points-8-2-qq",
                        ("points", "--s", "8", "--r", "2", "--field", "qq", "--seed", sd())))
        jobs.append(Job("borel-census", ("borel-census",)))
        shapes = [(r, s) for r, counts in SEGMENT_POINTS.items() for s in counts]
        rng.shuffle(shapes)
        for r, s in shapes:
            dims = generic_points_hf(s, r)
            segment = f"segment-revlex-{s}-P{r}"
            jobs.append(Job(segment, (
                "segment", "--hf", ",".join(map(str, dims)), "--stable", str(s),
                "--nvars", str(r + 1), "--order", "revlex", "--bound", str(len(dims)))))
            jobs.append(Job(f"witness-{s}-P{r}", ("segment", "--nvars", str(r + 1)),
                            witness_of=segment))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
