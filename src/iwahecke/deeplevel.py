"""
Evaluators for the explicit deep-level central functions on GL_2 over a
truncated local field model F_q((t)), and for the pro-p Iwahori Drinfeld
formula on GL_n.

The GL_2 family phi_n (n >= 1) lives at principal congruence level
K_n = 1 + t^n M_2(O).  With l(g) = val det(1 - g) and k(g) the largest k
with g in t^k M_2(O), the function is supported on {val det g = 1,
tr g in O, g in B_{1-n}} and there takes the values

    -1 - q                   if tr(g) in t*O,
    1 - q^(2 l(g))           if tr(g) is a unit and l(g) <  n + k(g),
    1 + q^(2(n + k(g)) - 1)  if tr(g) is a unit and l(g) >= n + k(g).

The normalized member z_n = (q-1)/[K:K_n] * phi_n is central and the family
is compatible with change of level:

    sum over K_n/K_{n+1} cosets of z_{n+1}(g k)  =  z_n(g),

which :func:`level_compatibility_check` verifies pointwise.  The finite
sum runs over q^4 cosets, and each question of the formula is asked
once, of what it depends on.  Support condition 1 is asked once per
determinant: det(g k) answers it as det g does, so det g decides it for
every coset, and off the support the sum is 0 = 0.  The entry questions
are asked once per column: g k has one of q^2 first columns and one of
q^2 second columns, one `series.product_grid` of g against the columns
of k, and each column's `val_ge` answers and valuations are read once.
Only tr(g k) and det(1 - g k) are read per coset.  The formula reads the
trace below order 1 only, so it is one sum per distinct pair of column
entries a, d cut at precision 1; det(1 - g k) is a cell of one two-term
grid over a first-column and a second-column table.  So the coset loop
does no series arithmetic, and the integer values phi_{n+1}(g k) are
summed exactly.  scholze_phi, the coset sum and its right-hand side
z_n(g), read at the identity coset, share one body of the formula, and
k_invariant reads k(g) as that body does.

Every evaluator is precision-honest: when the tracked precision of the input
cannot decide a case split, IndeterminatePrecisionError is raised rather
than a value guessed.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import inf

from .series import (Matrix2, TruncatedSeries, _check_elements,
                     product_grid)

__all__ = [
    "IndeterminatePrecisionError", "DiagonalTorusPoint",
    "ell_invariant", "k_invariant", "scholze_phi", "scholze_z",
    "gl2_level_index", "level_compatibility_check", "kn_coset_reps",
    "random_kn_element", "build_reference_corpus",
    "load_corpus", "save_corpus", "matrix_to_text", "matrix_from_text",
    "matrix_column_text",
    "drinfeld_propp_value",
]


class IndeterminatePrecisionError(ValueError):
    """The tracked precision of the input cannot decide the computation."""


# -- the two elementary invariants ----------------------------------------------


def ell_invariant(g: Matrix2):
    """val det(1 - g); 'inf' (with exactness certificate) when 1 - g is
    exactly singular.  Raises when precision cannot resolve the valuation."""
    d = _det_one_minus([g.a], [g.c], [-g.b], [g.d])[0][0]
    v = d.valuation()
    if v is None:
        raise IndeterminatePrecisionError(
            f"det(1-g) = 0 up to O(t^{d.prec}) but the input is not exact")
    return v


def k_invariant(g: Matrix2) -> int:
    """The unique k with g in t^k M_2(O) \\ t^(k+1) M_2(O) (min entry val)."""
    return _k(_column(g.a, g.c, 0), _column(g.b, g.d, 0))


def _column(x, y, lo) -> tuple:
    """What phi_n and k(g) read of one column (x, y) of g, at lo = 1 - n:
    x.val_ge(lo), y.val_ge(lo), the least known valuation of the two and
    the least precision p of an unknown zero O(t^p) among them (inf where
    there is none).  k(g) reads only the last two."""
    least = zero = inf
    for e in (x, y):
        if e.val is not None:
            least = min(least, e.val)
        elif e.prec is not None:
            zero = min(zero, e.prec)
    return x.val_ge(lo), y.val_ge(lo), least, zero


def _k(first, second) -> int:
    """k(g), the least valuation of the entries, from the `_column` facts
    of g's two columns.  With no known-nonzero entry, g is the zero matrix
    only if no entry is an unknown zero.  Otherwise k, the least known
    valuation, stands only if every entry answers `val_ge(k)`; an unknown
    zero O(t^p) with p < k cannot."""
    k = min(first[2], second[2])
    zero = min(first[3], second[3])
    if k == inf:
        if zero != inf:
            raise IndeterminatePrecisionError("all entries vanish at precision")
        raise ValueError("k(g) is undefined for the zero matrix")
    if zero < k:
        raise IndeterminatePrecisionError(
            "an unresolved entry could have smaller valuation")
    return k


def _det_one_minus(ga, gc, minus_gb, gd) -> list:
    """det(1 - g) = (1 - a)(1 - d) + c (-b) for g = [[a, b], [c, d]], at
    every pair of a first column (a, c) from ga, gc and a second column
    (b, d) from minus_gb, gd: one `product_grid`, cell (i, j) for the
    columns i and j.  The determinant is a product, never 1 - tr g +
    det g: for a = d = 1 + O(t^2), b = c = 0 the product keeps O(t^4)
    where that identity keeps only O(t^2)."""
    one = TruncatedSeries.one(ga[0].field)
    return product_grid([one - x for x in ga], [one - x for x in gd],
                        gc, minus_gb)


# -- the GL_2 family -----------------------------------------------------------


def _check_level(n) -> None:
    """ValueError unless the level n is an int >= 1: a float such as 2.0
    or a bool is no level, even where its arithmetic would run."""
    if type(n) is not int:
        raise ValueError(f"level n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("level n must be >= 1")


def scholze_phi(n: int, g: Matrix2) -> int:
    """phi_n(g) by the three-case formula; 0 off the support."""
    _check_level(n)
    if not _det_support(g.det()):
        return 0
    return _phi(n, g.field.q, _column(g.a, g.c, 1 - n),
                _column(g.b, g.d, 1 - n), g.trace(),
                lambda: _det_one_minus([g.a], [g.c], [-g.b], [g.d])[0][0])


def _det_support(det) -> bool:
    """Support condition 1 of phi_n, val det g = 1, read from det = det g.
    Entries may have negative valuation, so "below order 1" means every
    order, not just 0."""
    ge1 = det.val_ge(1)
    if ge1 is None:
        raise IndeterminatePrecisionError("det(g) valuation unresolved")
    if not ge1:
        return False
    d1 = det.coeff_at(1)
    if d1 is None:
        raise IndeterminatePrecisionError("det(g) unresolved at order 1")
    return d1 != 0


def _phi(n: int, q: int, first, second, tr, det_one_minus) -> int:
    """phi_n at a g on support condition 1 (see `_det_support`), from the
    `_column` facts of its first column (a, c) and second column (b, d)
    at lo = 1 - n, tr = tr g, and `det_one_minus()`, which gives
    det(1 - g) and is called only when the case split reaches it."""
    # support condition 2: tr(g) integral
    tr_int = tr.val_ge(0)
    if tr_int is None:
        raise IndeterminatePrecisionError("tr(g) valuation unresolved")
    if not tr_int:
        return 0

    # support condition 3: g in B_{1-n}, asked of a, b, c, d in turn
    for ok in (first[0], second[0], first[1], second[1]):
        if ok is None:
            raise IndeterminatePrecisionError("entry valuation unresolved")
        if not ok:
            return 0

    k = _k(first, second)

    t0 = tr.coeff_at(0)
    if t0 is None:
        raise IndeterminatePrecisionError("tr(g) unresolved at order 0")
    if t0 == 0:
        return -1 - q

    # unit trace: compare l(g) with n + k(g); when l(g) < n + k(g), val_ge
    # has pinned l(g) as the series' .val
    dom = det_one_minus()
    ge = dom.val_ge(n + k)
    if ge is None:
        raise IndeterminatePrecisionError(
            f"val det(1-g) unresolved below {n + k}")
    if ge:
        return 1 + q ** (2 * (n + k) - 1)
    return 1 - q ** (2 * dom.val)


def gl2_level_index(n: int, q: int) -> int:
    """[K : K_n] = q^(4(n-1)) (q^2-1)(q^2-q)."""
    _check_level(n)
    return q ** (4 * (n - 1)) * (q * q - 1) * (q * q - q)


def scholze_z(n: int, g: Matrix2) -> Fraction:
    """z_n = (q-1)/[K:K_n] * phi_n, as an exact rational."""
    return _z_n(n, g.field.q, scholze_phi(n, g))


def _z_n(n: int, q: int, phi: int) -> Fraction:
    """(q-1)/[K:K_n] * phi: z_n from a value phi of phi_n, or from a sum
    of such values.  The one normalization of z_n, for `scholze_z`, the
    coset sum and the CLI's rows."""
    return Fraction(q - 1, gl2_level_index(n, q)) * phi


def kn_coset_reps(field, n: int):
    """Representatives 1 + t^n * lift(M), M over M_2(F_q), of K_n/K_{n+1},
    as an iterator; the level n is checked at the call."""
    _check_level(n)
    one_plus, mono = _kn_entries(field, n)
    return (Matrix2(one_plus[m11], mono[m12], mono[m21], one_plus[m22])
            for m11, m12, m21, m22
            in itertools.product(field.elements(), repeat=4))


def _kn_entries(field, n: int):
    """The entries 1 + c t^n and c t^n of the representatives of
    K_n/K_{n+1}, as two lists indexed by the field element c."""
    elts = field.elements()
    return ([TruncatedSeries(field, 0, (1,) + (0,) * (n - 1) + (c,))
             for c in elts],
            [TruncatedSeries.monomial(field, n, c) for c in elts])


def level_compatibility_check(n: int, g: Matrix2) -> bool:
    """Does sum over K_n/K_{n+1} of z_{n+1}(g k) equal z_n(g) at this g?

    Each question of the formula is asked once, of what it depends on.

    Per determinant: support condition 1 is decided once, from det g.
    For every completion g' of g, det(g' k) = det g' det k with det k in
    1 + t^n O, n >= 1, so the two agree through order 1 when
    val det g' >= 1 and have the same valuation otherwise; condition 1
    reads nothing else, so what det g decides there holds at every
    coset.  Off the support every phi_{n+1}(g k) and phi_n(g) is 0 and
    the answer is True; no grid is formed.  A det(g k) formed from
    truncated entries can decide less than det g, so for a truncated g
    the sum can be decided where a product per coset is not.

    Per column: for k = 1 + t^n M the product is g k = g + t^n (g M).
    Its first column depends only on the first column (m11, m21) of M,
    its second only on (m12, m22), so the entries a, b, c, d of g k come
    from one `product_grid` of g against the q^2 first and q^2 second
    columns of k.  The `_column` facts of each of those 2 q^2 columns,
    the two val_ge(-n) answers of condition 3 and what k(g k) reads, are
    read once.

    Per coset: the formula asks tr(g k) two questions, val_ge(0) and
    coeff_at(0).  For a series s known below P both read only the
    coefficients of s below min(P, 1) and whether P <= 0, and the cut
    s.truncate(1), known below min(P, 1), has the same coefficients
    there and the same answer, so it answers both as s does, None
    included.  A sum cut at 1 is the sum of its terms cut at 1, so
    tr(g k) is read from the column entries a and d cut at precision 1:
    the q^2 entries a take few distinct cuts, and so do the d, since a
    t^n M term reaches below order 1 only from an entry of g of
    valuation below 1 - n.  The trace is one sum per pair of distinct
    cuts (`_cut_classes`), and a coset reads the sum of its pair.
    det(1 - g k) is one two-term `product_grid` over a first-column and
    a second-column table,

        det(1 - g k) = (1-a)(1-d) + c (-b),

    formed when some coset first reaches it (a product, never
    1 - tr + det; see `_det_one_minus`).  A coset reads only its own
    cells, and the loop does no series arithmetic.  The cosets are
    visited in `kn_coset_reps` order, so the first undecided one raises,
    and the integer phi_{n+1} values are summed.

    The right-hand side z_n(g) is phi_n at the identity coset, index 0
    of both column tables, after the loop: its cells are a, b, c, d and
    det(1 - g) in value and in precision, its trace is tr g cut at
    precision 1, which answers phi_n's two questions as tr g does, and
    its column facts are read at lo = 1 - n.
    """
    _check_level(n)
    if not _det_support(g.det()):
        return True
    field = g.field
    q = field.q
    a, b, c, d = g.entries
    one_plus, mono = _kn_entries(field, n)
    cols = list(itertools.product(field.elements(), repeat=2))
    # g times the first columns (1 + x t^n, y t^n) of k, then times its
    # second columns (x t^n, 1 + y t^n): the columns of g k
    ks = [(one_plus[x], mono[y]) for x, y in cols] + \
        [(mono[x], one_plus[y]) for x, y in cols]
    top, bottom = product_grid([a, c], [u for u, _ in ks],
                               [b, d], [v for _, v in ks])
    ga, gb = top[:len(cols)], top[len(cols):]
    gc, gd = bottom[:len(cols)], bottom[len(cols):]
    firsts = [_column(x, y, -n) for x, y in zip(ga, gc)]
    seconds = [_column(x, y, -n) for x, y in zip(gb, gd)]
    # tr(g k) = a + d, read below order 1 only: one sum per pair of cuts
    cut_a, at_a = _cut_classes(ga)
    cut_d, at_d = _cut_classes(gd)
    trace = [[x + y for y in cut_d] for x in cut_a]

    @functools.cache  # formed once, when the first coset needs it
    def one_minus_grid():
        return _det_one_minus(ga, gc, [-x for x in gb], gd)

    def det_one_minus():  # at the coset (i, j) of the loop
        return one_minus_grid()[i][j]

    total = 0
    for m11, m12, m21, m22 in itertools.product(field.elements(), repeat=4):
        i, j = m11 * q + m21, m12 * q + m22  # the columns of g k
        total += _phi(n + 1, q, firsts[i], seconds[j],
                      trace[at_a[i]][at_d[j]], det_one_minus)
    # z_n(g) at the identity coset, whose cells are g's own series
    i = j = 0
    phi = _phi(n, q, _column(a, c, 1 - n), _column(b, d, 1 - n),
               trace[at_a[i]][at_d[j]], det_one_minus)
    return _z_n(n + 1, q, total) == _z_n(n, q, phi)


def _cut_classes(entries) -> tuple:
    """The distinct cuts e.truncate(1) of `entries`, the parts a trace
    question reads, in order of first occurrence, and the index of each
    entry's cut among them."""
    index = {}
    at = [index.setdefault(e.truncate(1), len(index)) for e in entries]
    return list(index), at


def random_kn_element(field, n: int, rng, depth: int = 8) -> Matrix2:
    """A random element of K_n = 1 + t^n M_2(O), with exact entries."""
    _check_level(n)

    def entry():
        coeffs = [rng.randrange(field.q) for _ in range(depth)]
        return TruncatedSeries(field, n, coeffs)
    one = TruncatedSeries.one(field)
    return Matrix2(one + entry(), entry(), entry(), one + entry())


# -- corpus ---------------------------------------------------------------------


def build_reference_corpus(field, count: int = 200, seed: int = 20130405):
    """A deterministic list of exact test matrices for the phi_n evaluators.

    Roughly half the corpus is built on the support of some phi_n (val det
    = 1, integral trace, various k(g) and both trace cases), the rest is
    generic; everything is conjugated around by units of M_2(O) to avoid
    privileging triangular shapes.
    """
    import random
    rng = random.Random(seed)
    q = field.q
    mats = []

    def runit():
        return rng.randrange(1, q)

    def rpoly(val, deg):
        return TruncatedSeries(field, val,
                               [rng.randrange(q) for _ in range(deg)])

    def z():
        return TruncatedSeries.zero(field)

    def mono(k, c=1):
        return TruncatedSeries.monomial(field, k, c)

    builders = [
        # diag(t*u1, u2): l = inf-ish case, k = 0
        lambda: Matrix2(mono(1, runit()), z(), z(), mono(0, runit())),
        # antidiag: trace 0 in t*O
        lambda: Matrix2(z(), mono(1, runit()), mono(0, runit()), z()),
        # upper triangular with val det 1
        lambda: Matrix2(mono(0, runit()), rpoly(0, 3), z(), mono(1, runit())),
        # k(g) = -1 shapes, g in B_{-1} with val det 1
        lambda: Matrix2(mono(1, runit()), mono(-1, runit()), z(),
                        mono(0, runit())),
        lambda: Matrix2(mono(0, runit()), mono(-1, runit()),
                        mono(2, runit()), mono(1, runit())),
        # unit trace with finite small l(g): 1 + t^j unit on the diagonal
        lambda: Matrix2(mono(0, 1) + mono(rng.randrange(1, 4), runit()), z(),
                        z(), mono(1, runit())),
        # scalar t * unit
        lambda: Matrix2(mono(1, runit()), z(), z(), mono(1, runit())),
        # generic (usually off support)
        lambda: Matrix2(rpoly(rng.randrange(-1, 2), 4),
                        rpoly(rng.randrange(-1, 2), 4),
                        rpoly(rng.randrange(-1, 2), 4),
                        rpoly(rng.randrange(-1, 2), 4)),
    ]

    while len(mats) < count:
        g = builders[len(mats) % len(builders)]()
        if rng.random() < 0.5:
            u = random_kn_element(field, 1, rng, depth=4)
            g = u * g
        if rng.random() < 0.5:
            g = g * random_kn_element(field, 1, rng, depth=4)
        mats.append(g)
    return mats


def matrix_to_text(g: Matrix2) -> str:
    if not all(e.exact for e in g.entries):
        raise ValueError("corpus entries must be exact")
    return matrix_column_text(g)


def matrix_column_text(g: Matrix2) -> str:
    """Display form tolerating inexact entries (a `~prec` suffix)."""
    parts = []
    for e in g.entries:
        if e.val is None:
            body = "z"
        else:
            body = f"{e.val}:" + ",".join(str(c) for c in e.coeffs)
        if not e.exact:
            body += f"~{e.prec}"
        parts.append(body)
    return " | ".join(parts)


def matrix_from_text(line: str, field, precision=None) -> Matrix2:
    chunks = [c.strip() for c in line.split("|")]
    if len(chunks) != 4:
        raise ValueError(f"expected 4 entries, got {len(chunks)}")
    entries = []
    for ch in chunks:
        if ch == "z":
            s = TruncatedSeries.zero(field)
        else:
            val_s, _, coeff_s = ch.partition(":")
            coeffs = [int(c) for c in coeff_s.split(",")] if coeff_s else []
            if any(not 0 <= c < field.q for c in coeffs):
                raise ValueError(f"coefficient out of range in {ch!r}")
            s = TruncatedSeries(field, int(val_s), coeffs)
        if precision is not None:
            s = s.truncate(precision)
        entries.append(s)
    return Matrix2(*entries)


def save_corpus(path, mats):
    with open(path, "w", encoding="utf-8") as fh:
        for g in mats:
            fh.write(matrix_to_text(g) + "\n")


def load_corpus(path, field, precision=None):
    out = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                out.append(matrix_from_text(line, field, precision))
    return out


# -- pro-p Iwahori Drinfeld formula ----------------------------------------------


class DiagonalTorusPoint:
    """A point of the diagonal torus T(F_{p^r}): n nonzero field elements.

    An immutable value: the entries, from any iterable, are kept as a
    tuple, equality and hash are on (field, entries), and assigning an
    attribute raises AttributeError.
    """

    def __init__(self, field, entries):
        entries = tuple(entries)  # a list would be unhashable and mutable
        _check_elements(field, entries)
        if 0 in entries:
            raise ValueError("torus point entries must be nonzero")
        self.__dict__.update(field=field, entries=entries)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of a DiagonalTorusPoint")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete field {name!r} of a DiagonalTorusPoint")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.entries) == (other.field, other.entries)

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return (f"DiagonalTorusPoint(field={self.field!r}, "
                f"entries={self.entries!r})")

    def norms(self) -> tuple:
        """Componentwise norm down to the prime field F_p."""
        return tuple(self.field.norm_to_prime(e) for e in self.entries)


def drinfeld_propp_value(t: DiagonalTorusPoint, w: AffineWeylElement
                         ) -> Fraction:
    """The pro-p Iwahori test function of GL_n, mu = (1, 0^(n-1)), at the
    double coset indexed by (t, w); an exact rational.  n is the rank of
    t, and q = p^r the size of its field.

    The value vanishes off Adm(mu) and unless N_r(t) lies in T_S(F_p), the
    diagonal subtorus with free coordinates exactly at the critical set
    S = S(w): every norm off S is 1.
    """
    from .affine import _gl_size
    n = len(t.entries)
    W = w.group
    if _gl_size(W.rd) != n:
        raise ValueError(
            f"w must lie in the affine Weyl group of GL({n}), the torus "
            f"point's rank, not of {W.rd.family} (rank {W.rd.rank})")
    p, q = t.field.p, t.field.q

    critical = W.critical_indices(w)
    if not critical:  # w outside Adm((1, 0^{n-1}))
        return Fraction(0)
    if any(x != 1 for j, x in enumerate(t.norms(), 1) if j not in critical):
        return Fraction(0)
    s = len(critical)
    return Fraction((-1) ** n * (p - 1) ** (n - s), (1 - q) ** (n + 1 - s))
