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

Reductions dominate the cost, so over a prime field they run on dense
per-degree coefficient vectors (numpy int64, entries < 2**31, products safe
in int64), with a per-degree table of the first listed divisor of each
monomial; the structural algorithm is identical to the sparse path used for
rational coefficients and inhomogeneous input.  Each divisor table is built
from the table of the degree below, scattered through the ring's shifts by
one variable (a lower-degree divisor of m divides some m/x_j), plus the
leading monomials of its own degree; a sentinel above every basis index
marks the monomials no leading monomial divides, so the first listed
divisor is the least entry.  The Gebauer-Moeller update computes the lcm of
a new leading monomial with each older one once, for both criteria.  A
basis element is held by its support: positions, values, and rank columns
(see ``rings.GradedPiece``) less those of its leading monomial.  A step at
x^delta * lt(g) adds the rank columns there to g's and ranks only g's
support, so no map the size of a piece is built per delta; the ring caches
only its unit shifts.  A dense run hands its basis to the sparse engine if
it reaches a degree whose piece exceeds ``_DENSE_PIECE_LIMIT``.
The sparse engine runs on Python ints for both fields: over QQ it is
fraction-free, with primitive basis elements and pseudo-division steps, and
builds a ``Fraction`` only for the coefficients of a polynomial it returns.
Over QQ each new basis element also has its tail reduced.  Its leading
monomial, and so every pair and criterion, is the same as after top
reduction alone, but raw tails swell: for the lex gin of curve (2,4) at
seed 1, top-reduced remainders reach coefficients of 231k bits, against
about 10k bits in the reduced basis.

Both engines take their inputs as one batch: the dense one ranks the terms
of all inputs of one degree with a single ``positions`` call.  The result
is finalised in place.  For each minimal leading monomial the first listed
element that has it is kept, and its tail is reduced against the whole
engine basis, the elements that are not minimal included, with the divisor
tables the run already built.  That is sound because the engine basis is a
Groebner basis of the ideal, and the normal form modulo a Groebner basis
does not depend on which divisor each step takes: lt + NF(tail) is
lt - NF(lt), the reduced basis element with that leading monomial.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

import numpy as np

from .monomial_ideals import MonomialIdeal, hilbert_data, hilbert_numerator, series_value
from .orders import Revlex
from .poly import Polynomial
from .rings import mono_div, mono_divides, mono_lcm, mono_mul

DEFAULT_DEGREE_CAP = 60

# dense vectors are only worth it while a graded piece fits comfortably in memory
_DENSE_PIECE_LIMIT = 400_000

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
# reduction engines


class _DenseEngine:
    """Homogeneous reduction arithmetic on order-sorted dense vectors."""

    def __init__(self, ring, order):
        self.ring = ring
        self.order = order
        self.p = ring.field.p
        self._pieces = {}  # degree -> the ring's graded piece under ``order``
        self._divisors = {}  # degree -> divisor table of the whole basis
        self.basis = []  # (degree, support, monic values, rank columns less the lead's)
        self.lts = []  # leading exponent tuples

    def _piece(self, d):
        piece = self._pieces.get(d)
        if piece is None:
            piece = self._pieces[d] = self.ring.graded_piece(d, self.order)
        return piece

    def prepare(self, polys, degrees):
        """Nonzero forms of the given degrees -> (degree, vector) pairs, in
        input order.  The terms of all the forms of one degree are ranked
        by one ``positions`` call and scattered into the rows of one array."""
        out = [None] * len(polys)
        by_degree = {}
        for k, d in enumerate(degrees):
            by_degree.setdefault(d, []).append(k)
        for d, ks in by_degree.items():
            terms = [polys[k].terms for k in ks]
            rows = np.repeat(np.arange(len(ks)), [len(t) for t in terms])
            vectors = np.zeros((len(ks), self.ring.monomial_count(d)), dtype=np.int64)
            vectors[rows, self._piece(d).positions([m for t in terms for m in t])] = [
                c for t in terms for c in t.values()]
            for k, v in zip(ks, vectors):
                out[k] = (d, v)
        return out

    def to_polynomial(self, d, v):
        support = np.flatnonzero(v)
        return self._polynomial(d, support, v[support])

    def _polynomial(self, d, positions, values):
        """The degree-d polynomial with these values at these positions."""
        mons = self._piece(d).monomials
        return Polynomial(self.ring, dict(zip([mons[i] for i in positions.tolist()],
                                              values.tolist())))

    def add_basis(self, d, v):
        support = np.flatnonzero(v)
        lead = int(support[0])
        inv = pow(int(v[lead]), -1, self.p)
        piece = self._piece(d)
        columns = piece.columns[:, support]
        self.basis.append((d, support, v[support] * inv % self.p, columns - columns[:, :1]))
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
        """Reduce v against the basis, greatest monomial first, first listed
        divisor.  ``full=False`` stops once the leading monomial is
        irreducible.  Returns None when the result is zero."""
        p = self.p
        table = self._divisor_table(d)
        piece = self._piece(d)
        columns, positions_at = piece.columns, piece.positions_at
        v = v % p
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
            v[at] = (v[at] - int(v[i]) * values) % p
        return v if v.any() else None

    def tail_reduced(self, k):
        """Basis element k with its tail fully reduced, as a polynomial; a
        tail that no leading monomial divides is returned as it is."""
        d, support, values, _ = self.basis[k]
        if not (self._divisor_table(d)[support[1:]] < _NO_DIVISOR).any():
            return self._polynomial(d, support, values)
        tail = np.zeros(self.ring.monomial_count(d), dtype=np.int64)
        tail[support[1:]] = values[1:]
        out = self.reduce(d, tail, full=True)
        if out is None:
            out = np.zeros_like(tail)
        out[support[0]] = 1
        return self.to_polynomial(d, out)

    def spair(self, i, j):
        """S-polynomial vector of two (monic) basis elements."""
        lcm = mono_lcm(self.lts[i], self.lts[j])
        d = sum(lcm)
        piece = self._piece(d)
        # the rank columns of the lcm (see ``rings._rank_columns``)
        top = np.array([t * (d + 1) + T for t, T in enumerate(accumulate(reversed(lcm[1:])))],
                       dtype=np.int64).reshape(-1, 1)
        out = np.zeros(len(piece.monomials), dtype=np.int64)
        _, _, vi, si = self.basis[i]
        _, _, vj, sj = self.basis[j]
        out[piece.positions_at(si + top)] += vi
        out[piece.positions_at(sj + top)] -= vj
        return d, out % self.p

    def to_sparse(self):
        """A sparse engine holding the same basis in the same order, so pair
        keys (basis indices) stay valid."""
        sparse = _SparseEngine(self.ring, self.order)
        for d, support, values, _ in self.basis:
            mons = self._piece(d).monomials
            sparse.add_basis(d, ({mons[i]: c for i, c in zip(support.tolist(), values.tolist())}, 1))
        return sparse


class _SparseEngine:
    """Exact dict-based reduction; handles any field and inhomogeneous input.

    Coefficients stay Python ints inside the engine.  A vector is a pair
    (terms, scale) of an int term dict and a positive int; its value is
    terms/scale.  Over F_p the scale is 1 and a basis element is monic, with
    residues in [0, p).  Over QQ a basis element is primitive: denominators
    cleared, content divided out, leading coefficient L > 0.  A reduction
    step at working coefficient c against an element with leading
    coefficient L multiplies the working terms, and the remainder terms
    already moved out, by L/k with k = gcd(c, L), then subtracts
    (c/k)*x^delta*g: fraction-free pseudo-division (Collins 1967).  Over F_p,
    where L = 1, this is the monic step reduced mod p.  The scale collects
    the factors L/k; it is divided out, one ``Fraction`` per term, only when
    a polynomial leaves the engine."""

    def __init__(self, ring, order):
        self.ring = ring
        self.order = order
        self.p = ring.field.p if ring.field.is_prime_field else 0  # 0: no modulus
        self.key = order.sort_key
        self.basis = []  # (degree, int term dict): monic over F_p, primitive over QQ
        self.lts = []
        self._lead_ideal = None  # MonomialIdeal of ``lts``, built when needed

    def prepare(self, polys, degrees):
        """Nonzero polynomials -> (degree, vector) pairs, in input order; an
        inhomogeneous one (degree None) takes its total degree."""
        out = []
        for f, d in zip(polys, degrees):
            scale = lcm(*(c.denominator for c in f.terms.values()))
            terms = {m: c.numerator * (scale // c.denominator) for m, c in f.terms.items()}
            out.append((f.total_degree() if d is None else d, (terms, scale)))
        return out

    def to_polynomial(self, d, v):
        terms, scale = v
        if self.p:
            return Polynomial(self.ring, dict(terms))
        return Polynomial(self.ring, {m: Fraction(c, scale) for m, c in terms.items()})

    def add_basis(self, d, v):
        terms = v[0]  # the scale does not matter: the element is normalised
        lt = min(terms, key=self.key)
        if self.p:
            inv = pow(terms[lt], -1, self.p)
            terms = {m: c * inv % self.p for m, c in terms.items()}
        else:
            content = gcd(*terms.values())
            if terms[lt] < 0:
                content = -content
            terms = {m: c // content for m, c in terms.items()}
        self.basis.append((d, terms))
        self.lts.append(lt)
        self._lead_ideal = None
        return len(self.basis) - 1

    def covered(self, d):
        """Number of degree-d monomials divisible by a leading monomial, from
        the Hilbert numerator of the leading monomials."""
        if self._lead_ideal is None:
            self._lead_ideal = MonomialIdeal(self.ring, self.lts)
        return _ideal_dimension(self._lead_ideal, d)

    def _divisor(self, m):
        for g, lt in enumerate(self.lts):
            if mono_divides(lt, m):
                return g
        return None

    def reduce(self, d, v, full=True):
        """Reduce v against the basis, greatest monomial first, first listed
        divisor.  ``full=False`` stops once the leading monomial is
        irreducible.  Returns None when the result is zero."""
        p = self.p
        work, scale = dict(v[0]), v[1]
        out = {}
        heap = [(self.key(m), m) for m in work]
        heapq.heapify(heap)
        while heap:
            _, m = heapq.heappop(heap)
            c = work.pop(m, 0)
            if not c:
                continue
            g = self._divisor(m)
            if g is None:
                out[m] = c
                if not full:
                    out.update(work)
                    break
                continue
            lt = self.lts[g]
            gterms = self.basis[g][1]
            lead = gterms[lt]
            if lead != 1:
                k = gcd(c, lead)
                c //= k
                if lead != k:
                    factor = lead // k
                    scale *= factor
                    for mm in work:
                        work[mm] *= factor
                    for mm in out:
                        out[mm] *= factor
            delta = mono_div(m, lt)
            for mg, cg in gterms.items():
                if mg == lt:
                    continue
                mm = mono_mul(mg, delta)
                old = work.get(mm)
                acc = -c * cg if old is None else old - c * cg
                if p:
                    acc %= p
                if acc:
                    work[mm] = acc
                    if old is None:
                        heapq.heappush(heap, (self.key(mm), mm))
                elif old is not None:
                    del work[mm]
        return (out, scale) if out else None

    def tail_reduced(self, k):
        """Basis element k with its tail fully reduced, made monic, as a
        polynomial: lt + rem(tail)/L; a tail that no leading monomial
        divides is kept as it is."""
        d, terms = self.basis[k]
        lt = self.lts[k]
        tail = {m: c for m, c in terms.items() if m != lt}
        reducible = any(self._divisor(m) is not None for m in tail)
        red = self.reduce(d, (tail, 1), full=True) if reducible else (tail, 1)
        rem, scale = red or ({}, 1)
        scale *= terms[lt]
        rem[lt] = scale
        return self.to_polynomial(d, (rem, scale))

    def spair(self, i, j):
        """S-polynomial vector of two basis elements, (L_j/k)*x^di*g_i -
        (L_i/k)*x^dj*g_j with k = gcd(L_i, L_j)."""
        p = self.p
        lcm_ij = mono_lcm(self.lts[i], self.lts[j])
        lead_i, lead_j = self.basis[i][1][self.lts[i]], self.basis[j][1][self.lts[j]]
        k = gcd(lead_i, lead_j)
        terms = {}
        for src, factor in ((i, lead_j // k), (j, -(lead_i // k))):
            delta = mono_div(lcm_ij, self.lts[src])
            for m, c in self.basis[src][1].items():
                mm = mono_mul(m, delta)
                acc = terms.get(mm, 0) + factor * c
                if p:
                    acc %= p
                if acc:
                    terms[mm] = acc
                else:
                    terms.pop(mm, None)
        return sum(lcm_ij), (terms, 1)


def _ideal_dimension(J, d):
    """dim J_d of a monomial ideal J, from its Hilbert numerator."""
    return J.ring.monomial_count(d) - series_value(hilbert_numerator(J), J.ring.nvars, d)


def _make_engine(ring, order, degrees):
    """The dense engine over a prime field when every input is homogeneous
    (``degrees`` holds each input's ``homogeneous_degree``) and the piece
    of the largest input degree fits the limit; the sparse one otherwise.
    ``buchberger`` hands a dense basis over to the sparse engine once a pair
    needs a larger piece, so the degree cap plays no part."""
    if (
        ring.field.is_prime_field
        and None not in degrees
        and ring.monomial_count(max(degrees)) <= _DENSE_PIECE_LIMIT
    ):
        return _DenseEngine(ring, order)
    return _SparseEngine(ring, order)


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
    engine = _make_engine(ring, order, degrees)
    pairs = {}
    for d, v in engine.prepare(polys, degrees):
        _gm_add(engine, pairs, d, v, order)
    target = {}  # degree -> dim in(I)_d, read off the witness
    while pairs:
        (i, j), lcm = _select(pairs, order)
        d = sum(lcm)
        if d > degree_cap:
            raise DegreeCapExceeded(d, degree_cap)
        if isinstance(engine, _DenseEngine) and ring.monomial_count(d) > _DENSE_PIECE_LIMIT:
            engine = engine.to_sparse()
        if witness is not None:
            if d not in target:
                target[d] = _ideal_dimension(witness, d)
            if engine.covered(d) == target[d]:  # in(G)_d = in(I)_d
                pairs = {ij: m for ij, m in pairs.items() if sum(m) > d}
                continue
        del pairs[(i, j)]
        sd, sv = engine.spair(i, j)
        # over QQ the tail is reduced as well (see the module docstring)
        red = engine.reduce(sd, sv, full=not ring.field.is_prime_field)
        if red is not None:
            _gm_add(engine, pairs, sd, red, order)
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
    """Turn a (possibly redundant) Groebner basis into the reduced one, a
    :class:`ReducedBasis`, without running any S-pairs."""
    basis = [g for g in basis if not g.is_zero]
    if not basis:
        return ReducedBasis()
    degrees = [g.homogeneous_degree() for g in basis]
    engine = _make_engine(basis[0].ring, order, degrees)
    for d, v in engine.prepare(basis, degrees):
        engine.add_basis(d, v)
    return _finalize(engine, order)


def normal_form(f, basis, order):
    """Remainder of f on division by ``basis`` (greatest reducible monomial
    first, first listed divisor).  Zero input gives zero; the result has no
    monomial divisible by a leading monomial of the basis."""
    if f.is_zero:
        return f
    basis = list(basis)
    if any(g.is_zero for g in basis):
        raise ValueError("division by a zero polynomial")
    if not basis:
        return f
    polys = [*basis, f]  # ranked together: one positions call per degree
    degrees = [g.homogeneous_degree() for g in polys]
    engine = _make_engine(f.ring, order, degrees)
    *prepared, (fd, fv) = engine.prepare(polys, degrees)
    for d, v in prepared:
        engine.add_basis(d, v)
    red = engine.reduce(fd, fv, full=True)
    if red is None:
        return Polynomial.zero(f.ring)
    return engine.to_polynomial(fd, red)


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
