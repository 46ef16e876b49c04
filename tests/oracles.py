"""
Independent test-side oracles.

These deliberately avoid the production code paths they check: shortest
words come from breadth-first search over generator products, Bruhat order
from brute-force subword enumeration, admissible sets from the subword
closure of the maximal translations or by deleting one letter at a time
from evaluated words (as are Bruhat intervals below an element), parahoric
subgroups W_J by breadth-first search over products x * s_j and
W_J Adm(mu) W_J as the set of products a x b; truncated-series arithmetic goes one
coefficient at a time through the field's tables, and the change-of-level
coset sum through full 2x2 products.  The Kottwitz grading reads
Omega = X_* / (coroot lattice) off a Smith normal form of the coroot
matrix instead of its Hermite normal form.  The Bernstein isomorphism sums
one theta_la per coweight of the support instead of one z_mu per orbit.
The least dominant cover of `hecke._dominant_cover` comes from a search
of a box of pairings, each tested for membership in the pairing lattice
through a Smith normal form instead of an HNF reduction.
Hecke folds go one letter at a time in Laurent-polynomial arithmetic
instead of over a whole word on packed integer coefficients; centrality
compares whole products T_s h and h T_s instead of one packed commutator
per generator, and a product of two elements is one T_x b per term of a,
its Omega part by element products, instead of one packing of b.
The CLI's element records are built as plain objects, one term at a time,
for `json.dumps` to write, instead of from the CLI's one record template.
"""

from fractions import Fraction
from itertools import combinations, product
from math import prod

from iwahecke.cli import poly_json
from iwahecke.deeplevel import scholze_z
from iwahecke.rootdata import weyl_orbit
from iwahecke.series import Matrix2, TruncatedSeries


def all_elements_up_to_length(W, max_len, omega_grades=(0,)):
    """Every element s_{i1}...s_{ik} * omega with k <= max_len and omega in
    the listed Kottwitz grades (for infinite Omega only a window is taken)."""
    omegas = []
    rank = W.rd.rank
    for g in omega_grades:
        vec = tuple(g if i == 0 else 0 for i in range(rank))
        omegas.append(W.omega_of(vec).element)
    seen = {}
    frontier = {W.identity: 0}
    seen.update(frontier)
    for _ in range(max_len):
        new = {}
        for x in frontier:
            for lab in W.gen_labels:
                y = x * W.simple_reflection(lab)
                if y not in seen:
                    new[y] = seen[x] + 1
        seen.update(new)
        frontier = new
    out = {}
    for x, wlen in seen.items():
        for om in omegas:
            y = x * om
            if y not in out:
                out[y] = wlen
    return out


def shortest_word_length(W, x, cap=12):
    """Minimal k with x = s_{i1}..s_{ik} * omega, by BFS; None if > cap."""
    target_kappa = W.kottwitz_image(x)
    om = target_kappa.element
    frontier = {W.identity}
    seen = set(frontier)
    for k in range(cap + 1):
        for y in frontier:
            if y * om == x:
                return k
        new = set()
        for y in frontier:
            for lab in W.gen_labels:
                z = y * W.simple_reflection(lab)
                if z not in seen:
                    seen.add(z)
                    new.add(z)
        frontier = new
    return None


def bruhat_leq_subwords(W, x, y):
    """x <= y by enumerating all subwords of a reduced word of y."""
    word, om = W.reduced_word(y)
    om_el = om.element
    elements = set()
    for k in range(len(word) + 1):
        for picks in combinations(range(len(word)), k):
            sub = tuple(word[i] for i in picks)
            elements.add(W.from_word(sub) * om_el)
    return x in elements


def admissible_set_subwords(W, mu):
    """Adm(mu) as the union of subword sets of the maximal translations."""
    out = set()
    for la in weyl_orbit(W.rd, mu):
        t = W.translation(la)
        word, om = W.reduced_word(t)
        om_el = om.element
        for k in range(len(word) + 1):
            for picks in combinations(range(len(word)), k):
                sub = tuple(word[i] for i in picks)
                out.add(W.from_word(sub) * om_el)
    return out


def admissible_set_by_deletion(W, mu):
    """Adm(mu) as the closure of the maximal translations under deleting one
    letter of a reduced word, each candidate evaluated from its shortened
    word and multiplied by the Omega part."""
    return interval_below_by_deletion(
        W, [W.translation(la) for la in weyl_orbit(W.rd, mu)])


def interval_below_by_deletion(W, tops):
    """{x : x <= y for some y in tops}: the closure of tops under deleting
    one letter of a reduced word, each candidate evaluated from its
    shortened word and multiplied by the Omega part."""
    seen = set(tops)
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for z in _deletions(W, x):
                if z not in seen:
                    seen.add(z)
                    new.append(z)
        frontier = new
    return seen


def intervals_below_by_deletion(W, ys):
    """{y: interval_below_by_deletion(W, [y])} for every y in ys: the
    interval below y is y and the intervals below its deletions, each
    interval formed once."""
    memo = {}

    def below(y):
        got = memo.get(y)
        if got is None:
            got = memo[y] = frozenset([y]).union(
                *[below(z) for z in _deletions(W, y)])
        return got

    return {y: below(y) for y in ys}


def _deletions(W, x):
    """The elements that deleting one letter of the reduced word of x
    gives, each evaluated from its shortened word times the Omega part."""
    word, om = W.reduced_word(x)
    base = om.element
    return {W.from_word(word[:i] + word[i + 1:]) * base
            for i in range(len(word))}


def parahoric_subgroup_by_products(W, labels):
    """W_J by breadth-first search over element products x * s_j from the
    identity, sorted as `HeckeAlgebra.parahoric_subgroup` sorts it; the
    same errors, an unknown label first, then a J that takes a whole
    component of the affine diagram."""
    from iwahecke.rootdata import RootDatumError
    labels = sorted(set(labels))
    gens = [W.simple_reflection(lab) for lab in labels]
    m = W.rd.n_simple
    for c, comp in enumerate(W.rd.components):
        nodes = {i + 1 for i in comp} | {0 if c == 0 else m + c}
        if nodes <= set(labels):
            raise RootDatumError(
                f"J contains the whole affine diagram component {sorted(nodes)}")
    seen = {W.identity}
    frontier = [W.identity]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = x * s
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return sorted(seen, key=W.sort_key)


def parahoric_admissible_set_by_products(W, labels, mu):
    """W_J Adm(mu) W_J as the set of products a x b over a, b in W_J and x
    in Adm(mu)."""
    wj = parahoric_subgroup_by_products(W, labels)
    return {a * x * b for x in W.admissible_set(mu) for a in wj for b in wj}


def dominant_minuscule_in_box(rd, lo=-1, hi=1):
    """All dominant minuscule coweights with coordinates in [lo, hi]."""
    from iwahecke.rootdata import is_minuscule
    out = []
    for mu in product(range(hi, lo - 1, -1), repeat=rd.rank):
        if rd.is_dominant(mu) and is_minuscule(rd, mu):
            out.append(mu)
    return sorted(set(out))


def bernstein_iso_by_theta(f, W):
    """sum_la f(la) theta_la in the Hecke algebra of W, coweight by coweight."""
    from iwahecke.hecke import HeckeElement
    from iwahecke.laurent import accumulate
    H = W.hecke()
    out = {}
    for la in sorted(f.terms):
        c = f.terms[la]
        for x, p in H.theta(la).terms.items():
            accumulate(out, x, c * p)
    return HeckeElement(H, out)


def right_descent(k, t, w, g):
    """ell(x s_g) < ell(x) for x = (t, w) and kernel `k`: the left descent
    test of x^{-1}, so independent of the kernel's right tables."""
    return k.left_descent(g, *k.inv(t, w))


def fold_by_letters(H, h, slots, left, inverse):
    """The Hecke fold of h by one word, `H._fold(h, left, inverse,
    [(slots, None, ONE)])`, one letter at a time in Laurent-polynomial arithmetic, each image element built by the
    kernel's generator products and carrying its length."""
    from iwahecke.affine import AffineWeylElement
    from iwahecke.hecke import HeckeElement
    from iwahecke.laurent import QM1, LaurentPoly, accumulate
    W = H.W
    k = W.kernel
    q, qinv = LaurentPoly.q(), LaurentPoly.q(-1)
    far, near = (qinv, qinv - 1) if inverse else (q, QM1)
    for slot in slots:
        out = {}
        for y, c in h.terms.items():
            if left:
                st, sw = k.lmul_gen(slot, y.trans, y.fin)
                down = k.left_descent(slot, y.trans, y.fin)
            else:
                st, sw = k.rmul_gen(y.trans, y.fin, slot)
                down = right_descent(k, y.trans, y.fin, slot)
            sy = AffineWeylElement._of_length(
                W, st, sw, y.length() - 1 if down else y.length() + 1)
            if down == inverse:
                accumulate(out, sy, c)
            else:
                accumulate(out, y, near * c)
                accumulate(out, sy, far * c)
        h = HeckeElement(H, out)
    return h


def is_central_by_products(H, h):
    """`H.is_central(h)` by the definition, whole products compared: T_s h
    against h T_s through `lmul_gen` and `rmul_gen` for every affine simple
    reflection, and T_om h against h T_om through `lmul_omega` and
    `rmul_omega` for every generator of Omega, which `is_central` leaves
    out as implied."""
    for label in H.W.gen_labels:
        if H.lmul_gen(label, h) != H.rmul_gen(h, label):
            return False
    for om in H.omega_generators():
        if H.lmul_omega(om, h) != H.rmul_omega(h, om):
            return False
    return True


def multiply_by_t_times(H, a, b):
    """`H.multiply(a, b)` as sum_x a_x (T_x b), one T_x b per term of a:
    with x = s_1...s_k om reduced, T_om b from element products om * y,
    then T_{s_1}...T_{s_k} folded on it one letter at a time; the
    coefficients multiplied and summed in Laurent-polynomial arithmetic."""
    from iwahecke.affine import AffineWeylElement
    from iwahecke.hecke import HeckeElement
    from iwahecke.laurent import accumulate
    W = H.W
    out = {}
    for x, c in a.terms.items():
        word, om = W.reduced_word(x)
        moved = {}
        for y, p in b.terms.items():
            z = om.element * y
            moved[AffineWeylElement._of_length(W, z.trans, z.fin,
                                               y.length())] = p
        tb = fold_by_letters(H, HeckeElement(H, moved),
                             list(reversed(word)),
                             True, False)
        for y, p in tb.terms.items():
            accumulate(out, y, c * p)
    return HeckeElement(H, out)


def random_element(W, rng, coord_span=2):
    """A random affine Weyl element with small translation part."""
    trans = tuple(rng.randint(-coord_span, coord_span)
                  for _ in range(W.rd.rank))
    fin = rng.randrange(W.weyl.size)
    return W.element(trans, fin)


def random_hecke_element(H, rng, size=3, coord_span=2):
    """A random Hecke element with small support and small coefficients."""
    from iwahecke.laurent import LaurentPoly
    terms = {}
    for _ in range(size):
        x = random_element(H.W, rng, coord_span)
        c = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) or 1})
        terms[x] = terms.get(x, LaurentPoly()) + c
    return H.from_terms(terms)


# -- truncated series, one coefficient at a time ------------------------------


def _min_prec(a, b):
    return b if a is None else a if b is None else min(a, b)


def series_add(a, b):
    """a + b by `coeff_at` and `field.add`, coefficient by coefficient."""
    f = a.field
    prec = _min_prec(a.prec, b.prec)
    if a.val is None and b.val is None:
        return TruncatedSeries(f, 0, (), prec)
    lo = min(s.val for s in (a, b) if s.val is not None)
    hi = max(s.val + len(s.coeffs) for s in (a, b) if s.val is not None)
    out = [f.add(a.coeff_at(k) or 0, b.coeff_at(k) or 0)
           for k in range(lo, hi)]
    return TruncatedSeries(f, lo, out, prec)


def series_neg(a):
    return TruncatedSeries(a.field, a.val or 0,
                           [a.field.neg(c) for c in a.coeffs], a.prec)


def series_sub(a, b):
    return series_add(a, series_neg(b))


def series_scale(a, c):
    f = a.field
    if c == 0:
        return TruncatedSeries(f, 0, ())
    return TruncatedSeries(f, a.val or 0, [f.mul(c, x) for x in a.coeffs],
                           a.prec)


def series_mul(a, b):
    """a * b by schoolbook `field.add`/`field.mul`; the product is known
    below min(val a + prec b, val b + prec a), an unknown zero O(t^k)
    counting k as its valuation, and an exact zero annihilates."""
    f = a.field
    if a.valuation() == "inf" or b.valuation() == "inf":
        return TruncatedSeries(f, 0, ())

    def eff_val(s):
        return s.val if s.val is not None else (s.prec or 0)
    cands = [eff_val(x) + y.prec for x, y in ((a, b), (b, a))
             if y.prec is not None]
    prec = min(cands) if cands else None
    if a.val is None or b.val is None:
        return TruncatedSeries(f, 0, (), prec)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return TruncatedSeries(f, a.val + b.val, out, prec)


def level_compatibility_by_products(n, g):
    """sum over K_n/K_{n+1} of z_{n+1}(g k) == z_n(g), each representative
    built as identity + t^n M and each g k a full 2x2 product."""
    f = g.field
    total = Fraction(0)
    for quad in product(f.elements(), repeat=4):
        m = Matrix2(*(TruncatedSeries.monomial(f, n, c) if c
                      else TruncatedSeries.zero(f) for c in quad))
        total += scholze_z(n + 1, g * (Matrix2.identity(f) + m))
    return total == scholze_z(n, g)


def random_kn_element_by_sum(field, n, rng, depth=8):
    """1 + t^n M drawn as random_kn_element draws it, formed as a matrix sum."""
    def entry():
        coeffs = [rng.randrange(field.q) for _ in range(depth)]
        return TruncatedSeries(field, n, coeffs)
    return Matrix2.identity(field) + Matrix2(entry(), entry(), entry(), entry())


def smith_normal_form(rows, n_cols):
    """Smith normal form D = U*A*V of the integer matrix A (list of rows).

    Returns (diag, V): diag lists the nonzero diagonal entries of D (at
    most min(#rows, n_cols) of them) and V is the unimodular column
    transform (n_cols x n_cols).  The quotient Z^n_cols / rowspan(A) is read
    off from V: the class of x is determined by (x * V) mod diag, with the
    columns past len(diag) free.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = n_cols
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op(j1, j2, f):
        # col_{j2} -= f * col_{j1}
        for i in range(m):
            a[i][j2] -= f * a[i][j1]
        for i in range(n):
            v[i][j2] -= f * v[i][j1]

    def col_swap(j1, j2):
        for i in range(m):
            a[i][j1], a[i][j2] = a[i][j2], a[i][j1]
        for i in range(n):
            v[i][j1], v[i][j2] = v[i][j2], v[i][j1]

    def row_op(i1, i2, f):
        for j in range(n):
            a[i2][j] -= f * a[i1][j]

    def smallest_pivot(t):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None
                                or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        return piv

    diag = []
    t = 0
    while t < min(m, n):
        piv = smallest_pivot(t)
        if piv is None:
            break
        while True:
            a[t], a[piv[0]] = a[piv[0]], a[t]
            col_swap(t, piv[1])
            for i in range(t + 1, m):
                if a[i][t]:
                    row_op(t, i, a[i][t] // a[t][t])
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(t, j, a[t][j] // a[t][t])
            if all(a[i][t] == 0 for i in range(t + 1, m)) and \
               all(a[t][j] == 0 for j in range(t + 1, n)):
                break
            # a smaller pivot appeared: move it to (t, t) and eliminate again
            piv = smallest_pivot(t)
        if a[t][t] < 0:
            for i in range(m):
                a[i][t] = -a[i][t]
            for i in range(n):
                v[i][t] = -v[i][t]
        diag.append(a[t][t])
        t += 1
    return diag, [tuple(r) for r in v]


def smith_omega_grading(rd):
    """(free_cyclic, grade) for Omega = X_* / (coroot lattice), from the
    Smith form of the coroot matrix: with no torsion and one free column j,
    the grade of v is <v, V[:, j]>, signed so that V[:, j]'s first nonzero
    entry is positive; with no free column it is 0; otherwise None."""
    diag, v = smith_normal_form(rd.simple_coroots, rd.rank)
    torsion = any(d > 1 for d in diag)
    free_cols = range(len(diag), rd.rank)
    if torsion or len(free_cols) > 1:
        return False, lambda vec: None
    if not free_cols:
        return True, lambda vec: 0
    col = [row[free_cols[0]] for row in v]
    sign = 1 if next(x for x in col if x) > 0 else -1
    return True, lambda vec: sign * sum(x * y for x, y in zip(vec, col))


def least_dominant_cover(rd, need):
    """(least <lam2, 2 rho>, its y) over coweights lam2 with y_i =
    <lam2, a_i> >= need[i]; of several y at that height, the
    lexicographically least.

    y runs over need + [0, N)^m, N = |Z^m / L| for the lattice L of
    pairings (<lam, a_i>)_i: N kills Z^m / L, so a step s_i >= N could drop
    N e_i and stay in L at lower height.  Membership in L is read off the
    Smith form of the rows (<e_j, a_1>, ..., <e_j, a_m>), and the height is
    sum_i k_i y_i with 2 rho = sum_i k_i a_i."""
    m = rd.n_simple
    diag, v = smith_normal_form(list(zip(*rd.simple_roots)), m)
    assert len(diag) == m  # the simple roots are independent
    k = [sum(c[i] for c in rd.pos_root_coords) for i in range(m)]
    best = None
    for s in product(range(prod(diag)), repeat=m):
        y = tuple(a + b for a, b in zip(need, s))
        yv = [sum(y[i] * v[i][t] for i in range(m)) for t in range(m)]
        if all(x % d == 0 for x, d in zip(yv, diag)):
            cand = (sum(a * b for a, b in zip(k, y)), y)
            if best is None or cand < best:
                best = cand
    return best


def element_record(W, x):
    """The CLI's record of the element x of W, as a plain object."""
    om = W.kottwitz_image(x)
    return {
        "element": {"translation": list(x.trans),
                    "finite_word": [i + 1 for i in W.weyl.word[x.fin]]},
        "length": x.length(),
        "kappa": om.grade if om.grade is not None else list(om.rep),
    }


def hecke_json(h, q_value=None):
    """The CLI's term records of the Hecke element h, as plain objects."""
    W = h.algebra.W
    return [dict(element_record(W, x), coeff=poly_json(c, q_value))
            for x, c in h.items_sorted()]
