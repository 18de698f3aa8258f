"""Division, Buchberger's algorithm, initial ideals, and Hilbert functions.

The algorithm is plain Buchberger with the normal selection strategy and the
two classical pruning criteria (coprime leading terms and the chain
criterion, installed Gebauer-Moeller style).  Since all input is homogeneous
and the order is degree compatible, pairs are processed by increasing degree
and a degree cap aborts runaway runs soundly.

A third, Hilbert-driven criterion (Traverso, "Hilbert functions and the
Buchberger algorithm", 1996) runs when the caller knows the Hilbert function
of the ideal I: a *witness*, the monomial ideal of the leading monomials of
a reduced basis of I or of a linear change of I, under any order.  When the
pairs of degree d come up, every pair of lower degree is done, so the
current basis G is a Groebner basis of I up to degree d - 1, and in(G)_d
lies in in(I)_d.  Once the leading monomials of G cover as many degree-d
monomials as the witness, dim in(I)_d, the two are equal; then every
element of I_d, each degree-d S-polynomial included, reduces to zero, and
the pending degree-d pairs are dropped unreduced.  The witness must come
from a computed or installed basis, never from a closed formula that a
check is meant to test.

Reductions dominate the cost, so they run on dense per-degree rows indexed
by the ring's graded pieces, with a per-degree table of the first listed
divisor of each monomial; one engine serves both fields.  Over a prime
field a row holds numpy int64 residues (entries < 2**31, products safe in
int64) and a basis element is monic.  Over QQ a row holds Python ints in a
``dtype=object`` array: each input form is cleared of denominators, a basis
element is primitive with a positive leading coefficient L, and a step at
working coefficient c scales the row by L/k with k = gcd(c, L), then
subtracts (c/k)*x^delta*g: fraction-free pseudo-division (Collins 1967).
The scale a reduction returns collects the factors L/k, so a ``Fraction``
is built once per coefficient of a polynomial that leaves the engine.
Over QQ each new basis element also has its tail reduced.  Its leading
monomial, and so every pair and criterion, is the same as after top
reduction alone, but raw tails swell: for the lex gin of curve (2,4) at
seed 1, top-reduced remainders reach coefficients of 231k bits, against
about 10k bits in the reduced basis.

Each divisor table is built from the table of the degree below, scattered
through the ring's shifts by one variable (a lower-degree divisor of m
divides some m/x_j), plus the leading monomials of its own degree; a
sentinel above every basis index marks the monomials no leading monomial
divides, so the first listed divisor is the least entry, and the count
the Hilbert criterion compares is the number of entries below it.  The
Gebauer-Moeller update computes the lcm of a new leading monomial with
each older one once, for both criteria.  A basis element is held by its
support: positions, values, and rank columns (see ``rings.GradedPiece``)
less those of its leading monomial.  A step at x^delta * lt(g) adds the
rank columns there to g's and ranks only g's support, so no map the size
of a piece is built per delta; the ring caches only its unit shifts.

The engine takes its inputs as one batch: it ranks the terms of all
inputs of one degree with a single ``positions`` call.  The result
is finalised in place.  For each minimal leading monomial the first listed
element that has it is kept, and its tail is reduced against the whole
engine basis, the elements that are not minimal included, with the divisor
tables the run already built.  That is sound because the engine basis is a
Groebner basis of the ideal, and the normal form modulo a Groebner basis
does not depend on which divisor each step takes: lt + NF(tail) is
lt - NF(lt), the reduced basis element with that leading monomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

import numpy as np

from .monomial_ideals import MonomialIdeal, hilbert_data, hilbert_numerator, series_value
from .orders import Revlex
from .poly import Polynomial
from .rings import mono_divides, mono_lcm

DEFAULT_DEGREE_CAP = 60

# a dense divisor table's entry where no leading monomial divides
_NO_DIVISOR = np.iinfo(np.int64).max


class DegreeCapExceeded(Exception):
    """Raised when an S-polynomial would exceed the degree cap; carries the
    degree reached so callers can report or retry with a larger cap."""

    def __init__(self, degree, cap):
        super().__init__(f"S-polynomial of degree {degree} exceeds degree cap {cap}")
        self.degree = degree
        self.cap = cap


class ResourceLimitExceeded(Exception):
    """Raised by a resource guard: an input within the mathematics but
    beyond the size an exhaustive routine is allowed to attempt."""


class ReducedBasis(list):
    """A reduced Groebner basis as ``buchberger`` and
    ``reduce_groebner_basis`` return it, sorted by (degree, order), with the
    leading monomial of each element as the reduction engine held it, so an
    :class:`Ideal` reads its initial ideal without ranking any terms."""

    __slots__ = ("leading_monomials",)

    def __init__(self, basis=(), leading_monomials=()):
        super().__init__(basis)
        self.leading_monomials = tuple(leading_monomials)


# ----------------------------------------------------------------------
# the reduction engine


class _DenseEngine:
    """Homogeneous reduction arithmetic on order-sorted dense rows: int64
    residues over F_p, Python ints in object arrays over QQ."""

    def __init__(self, ring, order):
        self.ring = ring
        self.order = order
        self.p = p = ring.field.p if ring.field.is_prime_field else 0  # 0: exact integers
        self.dtype = np.int64 if p else object
        self._pieces = {}  # degree -> the ring's graded piece under ``order``
        self._divisors = {}  # degree -> divisor table of the whole basis
        self.basis = []  # (degree, support, values, rank columns less the lead's)
        self.lts = []  # leading exponent tuples

    def _piece(self, d):
        piece = self._pieces.get(d)
        if piece is None:
            piece = self._pieces[d] = self.ring.graded_piece(d, self.order)
        return piece

    def prepare(self, polys, degrees):
        """Nonzero forms of the given degrees -> (degree, row, scale)
        triples, in input order, each form being row/scale: over QQ the
        scale is the lcm of the form's denominators, over F_p it is 1.  The
        terms of all the forms of one degree are ranked by one
        ``positions`` call and scattered into the rows of one array."""
        out = [None] * len(polys)
        by_degree = {}
        for k, d in enumerate(degrees):
            by_degree.setdefault(d, []).append(k)
        for d, ks in by_degree.items():
            terms = [polys[k].terms for k in ks]
            scales = [1 if self.p else lcm(*(c.denominator for c in t.values())) for t in terms]
            rows = np.repeat(np.arange(len(ks)), [len(t) for t in terms])
            vectors = np.zeros((len(ks), self.ring.monomial_count(d)), dtype=self.dtype)
            vectors[rows, self._piece(d).positions([m for t in terms for m in t])] = [
                c if self.p else c.numerator * (s // c.denominator)
                for t, s in zip(terms, scales) for c in t.values()]
            for k, v, s in zip(ks, vectors, scales):
                out[k] = (d, v, s)
        return out

    def terms(self, d, positions, values, scale=1):
        """The term dict of the degree-d form values/scale at these positions."""
        mons = self._piece(d).monomials
        values = values.tolist()
        if not self.p:
            values = [Fraction(c, scale) for c in values]
        return dict(zip([mons[i] for i in positions.tolist()], values))

    def add_basis(self, d, v):
        """Append the row v, made monic over F_p and primitive with a
        positive lead over QQ; returns its basis index."""
        support = np.flatnonzero(v)
        lead = int(support[0])
        values = v[support]
        if self.p:
            values = values * pow(int(values[0]), -1, self.p) % self.p
        else:
            content = gcd(*values.tolist())
            values = values // (content if values[0] > 0 else -content)
        piece = self._piece(d)
        columns = piece.columns[:, support]
        self.basis.append((d, support, values, columns - columns[:, :1]))
        self.lts.append(piece.monomials[lead])
        idx = len(self.basis) - 1
        table = self._divisors.get(d)
        if table is not None:
            table[lead] = min(table[lead], idx)
        for e in [e for e in self._divisors if e > d]:  # derived from degree d
            del self._divisors[e]
        return idx

    def _divisor_table(self, d):
        """For each position of the degree-d piece, the first listed basis
        element whose leading monomial divides the monomial there, or
        ``_NO_DIVISOR``, which is above every index, so the first listed
        divisor is the least index.  A divisor of lower degree of m divides
        some m/x_j, so the table is the elementwise minimum of the table of
        degree d - 1 scattered through the ring's unit shifts, with the
        leading monomials of degree exactly d entered at their positions.
        Tables are cached per degree; ``add_basis`` keeps the cache exact."""
        tables = self._divisors
        if d in tables:
            return tables[d]
        low = min((gd for gd, *_ in self.basis), default=d)
        start = d
        while start > low and start - 1 not in tables:
            start -= 1
        for e in range(start, d + 1):
            table = np.full(self.ring.monomial_count(e), _NO_DIVISOR, dtype=np.int64)
            if e - 1 in tables:
                for shift in self.ring.variable_shifts(e - 1, self.order):
                    table[shift] = np.minimum(table[shift], tables[e - 1])
            gs = [g for g, (gd, *_) in enumerate(self.basis) if gd == e]
            if gs:
                np.minimum.at(table, [self.basis[g][1][0] for g in gs], gs)
            tables[e] = table
        return table

    def covered(self, d):
        """Number of degree-d monomials divisible by a leading monomial."""
        return int(np.count_nonzero(self._divisor_table(d) < _NO_DIVISOR))

    def reduce(self, d, v, full=True):
        """Reduce the row v against the basis, greatest monomial first,
        first listed divisor; v itself is left as it is.  ``full=False``
        stops once the leading monomial is irreducible.  Returns (row,
        scale), with row/scale the remainder of v, or None when it is zero;
        the scale is the product of the factors L/k of the QQ steps (see
        the module docstring), and 1 over F_p."""
        p = self.p
        table = self._divisor_table(d)
        piece = self._piece(d)
        columns, positions_at = piece.columns, piece.positions_at
        v = v % p if p else v.copy()
        scale = 1
        i = 0
        while True:
            ahead = v[i:] != 0
            if full:
                ahead &= table[i:] < _NO_DIVISOR
            k = int(ahead.argmax())
            if not ahead[k]:
                break
            i += k
            g = int(table[i])
            if g == _NO_DIVISOR:
                break  # only when not full: the leading monomial is irreducible
            _, _, values, shift = self.basis[g]
            at = positions_at(shift + columns[:, i:i + 1])  # g's support times x^delta
            c = v[i]
            if p:
                v[at] = (v[at] - int(c) * values) % p
            else:
                common = gcd(c, values[0])
                if common != values[0]:
                    v *= values[0] // common
                    scale *= values[0] // common
                v[at] -= c // common * values
        return (v, scale) if v.any() else None

    def tail_reduced(self, k):
        """Basis element k with its tail fully reduced, made monic, as a
        polynomial: lt + rem(tail)/L; a tail that no leading monomial
        divides is kept as it is."""
        d, support, values, _ = self.basis[k]
        lead = int(values[0])
        if not (self._divisor_table(d)[support[1:]] < _NO_DIVISOR).any():
            return Polynomial(self.ring, self.terms(d, support, values, lead))
        tail = np.zeros(self.ring.monomial_count(d), dtype=self.dtype)
        tail[support[1:]] = values[1:]
        rem, scale = self.reduce(d, tail) or (np.zeros_like(tail), 1)
        scale *= lead
        rem[support[0]] = scale
        support = np.flatnonzero(rem)
        return Polynomial(self.ring, self.terms(d, support, rem[support], scale))

    def spair(self, i, j):
        """S-polynomial row of two basis elements, (L_j/k)*x^di*g_i -
        (L_i/k)*x^dj*g_j with k = gcd(L_i, L_j); every lead is 1 over F_p."""
        lcm = mono_lcm(self.lts[i], self.lts[j])
        d = sum(lcm)
        piece = self._piece(d)
        # the rank columns of the lcm (see ``rings._rank_columns``)
        top = np.array([t * (d + 1) + T for t, T in enumerate(accumulate(reversed(lcm[1:])))],
                       dtype=np.int64).reshape(-1, 1)
        out = np.zeros(len(piece.monomials), dtype=self.dtype)
        _, _, vi, si = self.basis[i]
        _, _, vj, sj = self.basis[j]
        k = gcd(vi[0], vj[0])
        out[piece.positions_at(si + top)] += vj[0] // k * vi
        out[piece.positions_at(sj + top)] -= vi[0] // k * vj
        return d, out % self.p if self.p else out


def _ideal_dimension(J, d):
    """dim J_d of a monomial ideal J, from its Hilbert numerator."""
    return J.ring.monomial_count(d) - series_value(hilbert_numerator(J), J.ring.nvars, d)


# ----------------------------------------------------------------------
# Buchberger


def _gm_add(engine, pairs, d, v, order):
    """Add a reduced element, installing new pairs with Gebauer-Moeller
    bookkeeping of the coprime and chain criteria."""
    idx = engine.add_basis(d, v)
    lts = engine.lts
    t = lts[idx]
    lcms = [mono_lcm(m, t) for m in lts[:idx]]
    for key in list(pairs):
        i, j = key
        l = pairs[key]
        if lcms[i] != l and lcms[j] != l and mono_divides(t, l):
            del pairs[key]
    classes = {}
    for i, l in enumerate(lcms):
        classes.setdefault(l, []).append(i)
    kept = []
    dt = sum(t)
    for lcm in sorted(classes, key=lambda m: (sum(m), order.sort_key(m))):
        if any(mono_divides(k, lcm) for k in kept):
            continue
        kept.append(lcm)
        # a coprime pair (its lcm has the degree of the product) witnesses
        # that this lcm reduces to zero
        if any(sum(lts[i]) + dt == sum(lcm) for i in classes[lcm]):
            continue
        pairs[(min(classes[lcm]), idx)] = lcm


def _select(pairs, order):
    return min(
        pairs.items(), key=lambda kv: (sum(kv[1]), order.sort_key(kv[1]), kv[0])
    )


def _validate_input(gens, ring):
    """The nonzero generators and their degrees, each computed once."""
    polys, degrees = [], []
    for g in gens:
        if g.is_zero:
            continue
        if g.ring != ring:
            raise ValueError("generators belong to different ring contexts")
        d = g.homogeneous_degree()
        if d is None:
            raise ValueError("Groebner computation requires homogeneous generators")
        polys.append(g)
        degrees.append(d)
    return polys, degrees


def buchberger(gens, order, degree_cap=DEFAULT_DEGREE_CAP, *, witness=None):
    """Reduced Groebner basis of homogeneous generators.

    Raises :class:`DegreeCapExceeded` if any surviving S-polynomial would
    exceed ``degree_cap``.  The result is monic, interreduced, and sorted by
    (degree, order), so it is canonical for the ideal and order; it is a
    :class:`ReducedBasis`, which carries its leading monomials.

    ``witness``, when given, is the monomial ideal of the leading monomials
    of a reduced basis, under any order, of the same ideal or of a linear
    change of it.  Its Hilbert function prunes the pairs that must reduce to
    zero (see the module docstring); the result does not depend on it.
    """
    gens = list(gens)
    if not gens:
        return ReducedBasis()
    ring = gens[0].ring
    polys, degrees = _validate_input(gens, ring)
    if not polys:
        return ReducedBasis()
    if max(degrees) > degree_cap:
        raise ValueError("degree_cap is below a generator degree")
    engine = _DenseEngine(ring, order)
    pairs = {}
    for d, v, _ in engine.prepare(polys, degrees):
        _gm_add(engine, pairs, d, v, order)
    target = {}  # degree -> dim in(I)_d, read off the witness
    while pairs:
        (i, j), lcm = _select(pairs, order)
        d = sum(lcm)
        if d > degree_cap:
            raise DegreeCapExceeded(d, degree_cap)
        if witness is not None:
            if d not in target:
                target[d] = _ideal_dimension(witness, d)
            if engine.covered(d) == target[d]:  # in(G)_d = in(I)_d
                pairs = {ij: m for ij, m in pairs.items() if sum(m) > d}
                continue
        del pairs[(i, j)]
        sd, sv = engine.spair(i, j)
        # over QQ the tail is reduced as well (see the module docstring)
        red = engine.reduce(sd, sv, full=not engine.p)
        if red is not None:
            _gm_add(engine, pairs, sd, red[0], order)
    return _finalize(engine, order)


def _finalize(engine, order):
    """Minimalize and tail-reduce the engine basis; canonical output order.
    Per leading monomial that no other one properly divides, the first
    listed element with it is kept, and its tail is reduced against the
    whole engine basis, which is a Groebner basis, so the result is the
    reduced basis whichever divisor each step takes (see the module
    docstring).  Tail reduction keeps each leading monomial, so the
    engine's are the result's."""
    lts = engine.lts
    picked = []
    for i in sorted(range(len(lts)), key=lambda i: (sum(lts[i]), order.sort_key(lts[i]))):
        if not any(mono_divides(lts[j], lts[i]) for j in picked):
            picked.append(i)
    return ReducedBasis((engine.tail_reduced(i) for i in picked), (lts[i] for i in picked))


def reduce_groebner_basis(basis, order):
    """Turn a (possibly redundant) homogeneous Groebner basis into the
    reduced one, a :class:`ReducedBasis`, without running any S-pairs."""
    basis = list(basis)
    if not basis:
        return ReducedBasis()
    polys, degrees = _validate_input(basis, basis[0].ring)
    engine = _DenseEngine(basis[0].ring, order)
    for d, v, _ in engine.prepare(polys, degrees):
        engine.add_basis(d, v)
    return _finalize(engine, order)


def normal_form(f, basis, order):
    """Remainder of f on division by the homogeneous ``basis`` (greatest
    reducible monomial first, first listed divisor).  Zero input gives
    zero; the result has no monomial divisible by a leading monomial of the
    basis.  An inhomogeneous f is reduced one homogeneous component at a
    time, which gives the same remainder: under a degree-compatible order
    a step never leaves its component's degree.  ``f`` may also be a list
    of forms; the result is then the list of their remainders, all reduced
    against one engine, so the basis is ranked once."""
    forms = f if isinstance(f, list) else [f]
    basis = list(basis)
    if any(g.is_zero for g in basis):
        raise ValueError("division by a zero polynomial")
    if not basis:
        return f
    ring = basis[0].ring
    if any(h.ring != ring for h in forms):
        raise ValueError("generators belong to different ring contexts")
    polys, degrees = _validate_input(basis, ring)
    components = []  # (form index, degree, homogeneous component)
    for k, h in enumerate(forms):
        by_degree = {}
        for m, c in h.terms.items():
            by_degree.setdefault(sum(m), {})[m] = c
        components += [(k, d, Polynomial(ring, terms)) for d, terms in by_degree.items()]
    engine = _DenseEngine(ring, order)
    prepared = engine.prepare([*polys, *(c for *_, c in components)],
                              [*degrees, *(d for _, d, _ in components)])
    for d, v, _ in prepared[:len(polys)]:
        engine.add_basis(d, v)
    remainders = [{} for _ in forms]
    for (k, *_), (d, v, s) in zip(components, prepared[len(polys):]):
        red = engine.reduce(d, v)
        if red is not None:
            row, scale = red
            support = np.flatnonzero(row)
            remainders[k].update(engine.terms(d, support, row[support], s * scale))
    remainders = [Polynomial(ring, terms) for terms in remainders]
    return remainders if isinstance(f, list) else remainders[0]


# ----------------------------------------------------------------------
# ideals


class Ideal:
    """A homogeneous ideal: generator list plus per-order caches of the
    reduced Groebner basis and of its initial ideal, one
    :class:`MonomialIdeal` per order, so its memoised Hilbert numerator is
    computed once per order.  Each cache insertion is a single atomic dict
    store, the initial ideal's before the basis's, so concurrent readers are
    safe; computations themselves run single-threaded.  Only
    :meth:`set_groebner_basis` caches, and only a :class:`ReducedBasis`.

    ``hilbert_witness`` is a list that holds at most one
    :class:`MonomialIdeal`: the leading monomials of the first reduced basis
    cached for the ideal, under whichever order came first; it is that
    order's cached initial ideal.
    ``apply_change`` hands the same list to the image, because a linear
    change keeps the Hilbert function; so the first basis of an ideal or of
    any of its images prunes the Buchberger runs of all the others, and the
    witness's Hilbert numerator is computed once for all of them.  The
    witness is appended in one atomic step, so a reader never sees part of
    it.

    ``degree_cap`` bounds every Buchberger run on the ideal, and every ideal
    derived from it (linear images, gin trials, projections, partial
    elimination levels) carries the same cap.

    ``towers`` keeps, per inner order, the longest partial elimination tower
    harvested from the ideal (see ``partial_elim.partial_elim_ideals``), so
    a lex gin trial's tower serves the pipeline that reads the same levels
    again."""

    __slots__ = ("ring", "generators", "degree_cap", "gb_cache", "initial_ideals",
                 "hilbert_witness", "towers")

    def __init__(self, generators, ring=None, degree_cap=DEFAULT_DEGREE_CAP):
        generators = tuple(generators)
        if ring is None:
            if not generators:
                raise ValueError("zero ideal needs an explicit ring")
            ring = generators[0].ring
        for g in generators:
            if g.is_zero:
                raise ValueError("ideal generators must be nonzero")
            if g.ring != ring:
                raise ValueError("generators belong to different ring contexts")
            degree = g.homogeneous_degree()
            if degree is None:
                raise ValueError("ideal generators must be homogeneous")
            if degree > degree_cap:
                raise ValueError(f"degree cap {degree_cap} is below generator degree {degree}")
        self.ring = ring
        self.generators = generators
        self.degree_cap = degree_cap
        self.gb_cache = {}
        self.initial_ideals = {}
        self.hilbert_witness = []
        self.towers = {}

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    @property
    def is_zero(self):
        return not self.generators

    def groebner_basis(self, order):
        hit = self.gb_cache.get(order)
        if hit is None:
            witness = self.hilbert_witness[0] if self.hilbert_witness else None
            hit = self.set_groebner_basis(
                order, buchberger(self.generators, order, self.degree_cap, witness=witness))
        return hit

    def set_groebner_basis(self, order, basis):
        """Cache the ideal's reduced basis under ``order``, as
        :func:`buchberger` or :func:`reduce_groebner_basis` returns it, with
        its initial ideal (the witness if there is none yet); returns the
        cached tuple.  Anything but a :class:`ReducedBasis` is a TypeError."""
        if not isinstance(basis, ReducedBasis):
            raise TypeError(f"expected a ReducedBasis, got {type(basis).__name__}")
        initial = MonomialIdeal(self.ring, basis.leading_monomials)
        self.initial_ideals[order] = initial
        self.gb_cache[order] = basis = tuple(basis)
        if not self.hilbert_witness:
            self.hilbert_witness.append(initial)
        return basis

    def initial_ideal(self, order):
        self.groebner_basis(order)
        return self.initial_ideals[order]

    def hilbert_data(self, order=None, bound=10):
        order = order if order is not None else Revlex()
        return hilbert_data(self.initial_ideal(order), bound)

    def hilbert_function(self, order=None, bound=10):
        return self.hilbert_data(order, bound).hf

    def contains(self, f, order=None):
        order = order if order is not None else Revlex()
        return normal_form(f, self.groebner_basis(order), order).is_zero

    def equals(self, other, order=None):
        if self.ring != other.ring:
            raise ValueError("ideals live in different rings")
        order = order if order is not None else Revlex()
        return self.groebner_basis(order) == other.groebner_basis(order)
