"""Independent test oracles based on per-degree (Macaulay matrix) linear
algebra.  These deliberately avoid the Groebner code paths they are used to
verify.  Also a hypothesis strategy for the small homogeneous generator
lists the property tests draw."""

from hypothesis import assume, strategies as st

from ginlab import linalg
from ginlab.poly import Polynomial
from ginlab.rings import RingContext


def graded_piece_rows(generators, ring, d, column_order):
    """Coefficient rows spanning I_d, as multiples m * g of the generators."""
    columns = sorted(ring.monomials_of_degree(d), key=column_order.sort_key)
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for g in generators:
        gdeg = g.homogeneous_degree()
        if gdeg is None or gdeg > d:
            continue
        for m in ring.monomials_of_degree(d - gdeg):
            shifted = g.term_mul(m)
            row = [ring.field.zero] * len(columns)
            for mm, c in shifted.terms.items():
                row[index[mm]] = c
            rows.append(row)
    return rows, columns


def _rank(field, rows):
    return len(linalg.rref(field, rows)[1])


def macaulay_dimension(I, d, column_order):
    """dim I_d by row rank (independent of any Groebner basis)."""
    rows, _ = graded_piece_rows(I.generators, I.ring, d, column_order)
    return _rank(I.ring.field, rows)


def macaulay_contains(I, f, column_order):
    """f in I_d membership by rank comparison."""
    d = f.homogeneous_degree()
    rows, columns = graded_piece_rows(I.generators, I.ring, d, column_order)
    index = {m: i for i, m in enumerate(columns)}
    frow = [I.ring.field.zero] * len(columns)
    for m, c in f.terms.items():
        frow[index[m]] = c
    return _rank(I.ring.field, rows + [frow]) == _rank(I.ring.field, rows)


@st.composite
def homogeneous_generators(draw, fields, max_vars=3, max_degree=3, max_gens=3):
    """Nonzero homogeneous forms of a few terms each, with small integer
    coefficients, in a ring of 2..max_vars variables over one of ``fields``."""
    ring = RingContext(draw(st.integers(2, max_vars)), draw(st.sampled_from(fields)))
    gens = []
    for _ in range(draw(st.integers(1, max_gens))):
        mons = ring.monomials_of_degree(draw(st.integers(1, max_degree)))
        terms = draw(st.lists(
            st.tuples(st.sampled_from(mons), st.integers(-5, 5)), min_size=1, max_size=4
        ))
        f = Polynomial.from_terms(ring, terms)
        if f:
            gens.append(f)
    assume(gens)
    return gens
