"""Generic initial ideals by randomized coordinate change.

A dense open subset of GL gives the same initial ideal, so two independent
random changes agreeing is overwhelming evidence of genericity over a large
field; a Borel-fixedness check certifies the outcome's shape independently.
Disagreement escalates to a third trial and then fails loudly rather than
silently reporting a non-generic result, and so does agreement on an ideal
that is not Borel-fixed where gins must be.

Where an upper bound is known, one trial can be proved generic instead.  In
each degree d, gin(I)_d is the largest initial space that any coordinate
change gives, spaces of one dimension compared by their leading Pluecker
coordinate (Green, "Generic initial ideals", 1998, section 1; Eisenbud,
"Commutative Algebra", 15.9).  So a trial whose initial ideal equals a
monomial ideal C that bounds every initial space of I from above, in each
degree up to C's largest generator degree D, is the gin: up to D the gin
lies between the trial and C, and above D it contains the ideal that its
degree-D part generates, which is C's, and has the same dimension.  For
points the tau-segment ideal of their Hilbert function is such a bound,
since the top dim I_d monomials of degree d span the largest space of that
dimension.  A trial that reaches it proves the segment theorem for that
instance, and no second trial runs.  Every trial is a linear change
of the same ideal, so all of them share one Hilbert witness: the revlex
basis that the first trial computes before its own order's, which prunes
the Buchberger runs of that order and of every later trial.

A lex trial in 4 or more variables runs no lex Buchberger in that ring.
Lex eliminates x0, so for every homogeneous ideal J

    in_lex(J) = sum over p of x0^p * in_lex(K_p(J)),

with K_p the partial elimination ideals of J in k[x1..xr] (Green,
"Generic initial ideals", 1998), and the K_p do not depend on the order
used to harvest them.  The trial reads them off one basis under the
elimination order with a revlex inner order, whose degrees stay far below
the lex ones (16 against 73 for a (4,4) curve), and runs lex only on the
levels, in one variable fewer.  The identity holds for every J, so the
trial's initial ideal is exactly the one a direct lex run would give.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from . import linalg
from .groebner import Ideal
from .monomial_ideals import MonomialIdeal, is_borel_fixed
from .orders import Lex, Revlex, elimination_order
from .poly import LinearChange


class GinDisagreement(Exception):
    """The trials were not generic: they produced distinct initial ideals
    with no majority, or agreed on one that is not Borel-fixed in a
    characteristic where gins are."""


class CharacteristicTooSmall(Exception):
    """The gin over F_p is not Borel-fixed and p does not exceed its largest
    generator degree: in that characteristic gins are only p-Borel."""


def random_coordinate_change(ring, seed):
    """An invertible nvars x nvars matrix, as a tuple of rows, with uniform
    entries drawn deterministically from the seed (redrawn until the
    determinant is nonzero)."""
    rng = random.Random(seed)
    n = ring.nvars
    while True:
        rows = tuple(
            tuple(ring.field.random(rng) for _ in range(n)) for _ in range(n)
        )
        if linalg.det(ring.field, rows) != ring.field.zero:
            return rows


def apply_change(I, matrix):
    """The ideal generated by the generators with x_i replaced by
    sum_j matrix[i][j]*x_j (see :meth:`Polynomial.substitute`), after
    checking that the matrix is square and invertible.  All generators are
    moved through one :class:`LinearChange`, so the powers of the image
    linear forms are built once for the whole ideal.  Homogeneity and
    Hilbert function are preserved, so the image shares the Hilbert witness
    of ``I`` (see :class:`Ideal`); it keeps the degree cap of ``I`` too."""
    ring = I.ring
    if len(matrix) != ring.nvars or any(len(row) != ring.nvars for row in matrix):
        raise ValueError("coordinate change shape does not match ring")
    if linalg.det(ring.field, matrix) == ring.field.zero:
        raise ValueError("singular matrix is not a coordinate change")
    return _apply_invertible(I, matrix)


def _apply_invertible(I, matrix):
    """:func:`apply_change` for a matrix already known to be invertible,
    such as one drawn by :func:`random_coordinate_change`."""
    change = LinearChange(I.ring, matrix, I.generators)
    moved = Ideal([g.substitute(change) for g in I.generators], I.ring, I.degree_cap)
    moved.hilbert_witness = I.hilbert_witness
    return moved


@dataclass
class GinResult:
    """Outcome of a gin computation.  ``gin`` returns only results that are
    Borel-fixed for its order's variable ranking, so ``regularity`` is the
    largest generator degree and a Borel-fixedness check reads
    ``is_borel_fixed(result.gin, order)``;
    ``certified`` says that one trial reached the ceiling passed to
    :func:`gin`, which proves it is the gin; ``trial_ideals`` keeps the
    transformed ideals so callers can reuse their Groebner caches."""

    gin: MonomialIdeal
    trials_used: int
    agreed: bool
    regularity: int
    certified: bool = False
    trial_ideals: list = dc_field(default_factory=list, repr=False)


def gin(I, order, trials=2, seed=0, ceiling=None):
    """Generic initial ideal with a trial-agreement protocol.

    Runs ``trials`` independent random coordinate changes (trial t uses seed
    ``seed + t``).  If all initial ideals coincide the common one is returned
    with ``agreed=True``; otherwise one extra trial is run and a majority
    ideal is returned with ``agreed=False``; with no majority the computation
    fails loudly.

    ``ceiling`` is an optional monomial ideal C whose degree-d part, for
    every d up to its largest generator degree, is at least the initial
    space of every coordinate change of ``I`` (see the module docstring);
    for points, their tau-segment ideal when the segments form an ideal.  If
    the first trial's initial ideal equals C, it is the gin: the protocol
    stops there and returns ``trials_used=1``, ``agreed=True`` and
    ``certified=True``.  Otherwise the trials run as above, with
    ``certified=False``.

    A result that is not Borel-fixed, for the ranking that ``order`` gives
    the variables, also fails loudly: over
    F_p with p at most its largest generator degree it raises
    :class:`CharacteristicTooSmall`, since gins there are only p-Borel;
    over QQ, or over F_p with p above that degree, a gin is Borel-fixed, so
    the trials were not generic and it raises :class:`GinDisagreement`.
    A returned gin is therefore always Borel-fixed.  Every trial runs
    under the degree cap of ``I``.
    """
    if trials < 2:
        raise ValueError("the agreement protocol needs at least 2 trials")
    results = []
    handles = []

    def trial(t):
        J, handle = _one_trial(I, order, seed + t)
        results.append(J)
        handles.append(handle)

    trial(0)
    certified = ceiling is not None and results[0] == ceiling
    if not certified:
        for t in range(1, trials):
            trial(t)
        if not all(J == results[0] for J in results[1:]):
            trial(trials)
    winner = _majority(results)
    if winner is None:
        raise GinDisagreement(
            f"{len(results)} gin trials produced no majority initial ideal"
        )
    field = I.ring.field
    if not is_borel_fixed(winner, order):
        if field.is_prime_field and field.p <= winner.max_generator_degree():
            raise CharacteristicTooSmall(
                f"gin over F_{field.p} is only p-Borel: p = {field.p} does not exceed "
                f"its largest generator degree {winner.max_generator_degree()}"
            )
        name = f"F_{field.p}" if field.is_prime_field else "QQ"
        raise GinDisagreement(
            f"gin trials over {name} agreed on an ideal that is not Borel-fixed, "
            f"so their coordinate changes were not generic"
        )
    return GinResult(
        gin=winner,
        trials_used=len(results),
        agreed=all(J == winner for J in results),
        regularity=winner.max_generator_degree(),
        certified=certified,
        trial_ideals=[h for h, J in zip(handles, results) if J == winner],
    )


def _one_trial(I, order, trial_seed):
    """The initial ideal of one moved copy of I.  While the trials share no
    witness yet, the moved ideal's revlex basis comes first: the generic
    revlex initial ideal has the least regularity of any order, reg(I)
    (Bayer-Stillman 1987), so it is the cheapest witness to compute
    (Traverso 1996).  Under revlex itself this adds no run.  Under lex in
    4 or more variables the initial ideal is assembled from the partial
    elimination tower of the moved ideal (see the module docstring)."""
    moved = _apply_invertible(I, random_coordinate_change(I.ring, trial_seed))
    if not moved.hilbert_witness:
        moved.groebner_basis(Revlex())
    if order == Lex() and I.ring.nvars >= 4:
        return _tower_lex_initial_ideal(moved), moved
    return moved.initial_ideal(order), moved


def _tower_lex_initial_ideal(moved):
    """in_lex(moved) as the sum of x0^p * in_lex(K_p) for p up to the largest
    x0-degree in the moved ideal's elimination basis (revlex inner order),
    where the levels stop growing.  Each level is generated by its reduced
    revlex basis, which is short and of low degree, and its lex run is
    pruned by that basis's initial ideal, the level's Hilbert witness.  A
    level of at most one form has no S-pair, so it runs nothing."""
    from .partial_elim import partial_elim_ideals  # partial_elim imports this module

    basis = moved.groebner_basis(elimination_order(moved.ring.nvars, Revlex()))
    p_max = max((m[0] for g in basis for m in g.terms), default=0)
    tower = partial_elim_ideals(moved, p_max, Revlex())
    gens = []
    for p, level in enumerate(tower.levels):
        if len(level.generators) <= 1:  # one form is a Groebner basis under any order
            level_lex = [g.leading_monomial(Lex()) for g in level.generators]
        else:
            level_lex = level.initial_ideal(Lex()).gens
        gens.extend((p,) + m for m in level_lex)
    return MonomialIdeal(moved.ring, gens)


def _majority(results):
    for J in results:
        if sum(1 for K in results if K == J) * 2 > len(results):
            return J
    return None
