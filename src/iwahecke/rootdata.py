"""
Based root data of split reductive groups.

A root datum lives on a cocharacter lattice Z^rank.  Simple roots (and all
positive roots) are stored as *character* vectors: the natural pairing of a
coweight la with a character a is the dot product of their coordinate
tuples.  Simple coroots are coweight vectors.  The finite Weyl group acts on
coweights by s_i(la) = la - <la, a_i> a_i^vee.

Builtin families:

* ``GL(n)``  lattice Z^n, type A_{n-1} roots e_i - e_{i+1};
* ``SL(n)``  lattice = coroot lattice of A_{n-1} (rank n-1) in the coroot
  basis;
* ``Sp(n)``  n = 2k, lattice Z^k, type C_k;
* ``GSp(n)`` n = 2k, lattice Z^{k+1} with last coordinate the similitude
  valuation.

Custom data come from a small key/value config file, see
:func:`load_root_datum`.  Builtin, custom and Levi data alike are built by
the one constructor ``RootDatum(family, rank, simple_roots,
simple_coroots)``, which validates the four defining fields and reads
every root-system fact off one closure of the positive roots; only the
coroot lattice's Hermite basis and the Omega grade form stay lazy:

>>> RootDatum("pgl2", 1, [(1,)], [(2,)]).pos_coroots
((2,),)

Dominance convention everywhere: la is dominant iff <la, a_i> >= 0 for all
simple roots a_i (upper-triangular Borel for GL(n)).

Positive roots are listed by height, with their integer coordinates in the
simple roots, both read off the closure of the simple roots under the
simple reflections, and so are the Dynkin components with their highest
roots:

>>> sp4 = build_root_datum("Sp", 4)
>>> sp4.simple_roots
((1, -1), (0, 2))
>>> sp4.pos_roots
((0, 2), (1, -1), (1, 1), (2, 0))
>>> sp4.pos_root_coords
((0, 1), (1, 0), (1, 1), (2, 1))
>>> sp4.components, sp4.highest_roots   # (root, coroot) per simple factor
(((0, 1),), (((2, 0), (1, 0)),))

The Kottwitz quotient Omega = X_* / (coroot lattice) is Z for GL(n), graded
by the coordinate sum, and trivial for Sp(n):

>>> build_root_datum("GL", 3).omega_grade((2, 1, 1))
4
>>> sp4.omega_grade((3, 2))
0
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, prod

from .intlinalg import dot, hermite_basis, reduce_mod_lattice

__all__ = [
    "RootDatum", "RootDatumError", "build_root_datum", "load_root_datum",
    "levi_sub_datum", "weyl_orbit", "is_minuscule",
]

# closure cap: a builtin family with more roots is refused before its
# closure runs; a config that exceeds it is refused by the closure
_MAX_ROOTS = 10_000
# rank cap, checked before anything of length rank is built: Linux caps
# one argument at 128 KiB, so a --mu for a rank near 65,536 cannot even be
# passed, and a config rank of 10^11 would otherwise ask for 800 GB
_MAX_RANK = 10_000


class RootDatumError(ValueError):
    pass


class RootDatum:
    """Immutable based root datum, built from its four defining fields.

    ``RootDatum(family, rank, simple_roots, simple_coroots)`` validates the
    rank (an int in 0..10,000) and the simple (co)roots (lengths, a
    generalized Cartan matrix, independent simple roots) and closes them
    under the simple reflections, over the positive roots alone.  Every root-system field is read off that closure
    in one pass by height and stored: ``pos_roots`` with their
    ``pos_coroots`` and ``pos_root_coords``, ``two_rho``,
    ``root_reflections``, the Dynkin ``components`` with their
    ``highest_roots`` (root, coroot), and the ``cartan_matrix``
    C[i][j] = <a_i^vee, a_j>.  ``coroot_hnf`` and ``_grade_form``, which
    no cold group context reads, stay lazy.

    Equality and hash are structural (rank + simple roots + simple
    coroots); the family string is a display name only.  Assigning an
    attribute raises AttributeError: a datum keys the shared group contexts,
    so its value never changes.  The cached properties write to the
    instance dict directly.
    """

    def __init__(self, family: str, rank: int, simple_roots, simple_coroots):
        if not isinstance(rank, int) or not 0 <= rank <= _MAX_RANK:
            raise RootDatumError(
                f"rank must be an int in 0..{_MAX_RANK}, got {rank!r}")
        # roots are character vectors, coroots coweight vectors
        simple_roots = tuple(tuple(a) for a in simple_roots)
        simple_coroots = tuple(tuple(av) for av in simple_coroots)
        if len(simple_roots) != len(simple_coroots):
            raise RootDatumError("need equally many simple roots and coroots")
        for v in simple_roots + simple_coroots:
            if len(v) != rank:
                raise RootDatumError("root/coroot length differs from rank")

        cartan = tuple(tuple(dot(av, a) for a in simple_roots)
                       for av in simple_coroots)
        for i, row in enumerate(cartan):
            if row[i] != 2:
                raise RootDatumError(f"<a_{i}^vee, a_{i}> = {row[i]} != 2")
            for j, c in enumerate(row):
                if i != j:
                    if c > 0:
                        raise RootDatumError("positive off-diagonal Cartan entry")
                    if (c == 0) != (cartan[j][i] == 0):
                        raise RootDatumError(
                            "asymmetric zero pattern in Cartan matrix")
        # independent simple roots make the closure's coordinates unique
        if len(hermite_basis(simple_roots)) < len(simple_roots):
            raise RootDatumError("simple roots are linearly dependent")

        # positive roots by height, then root vector.  Read from the top,
        # a root whose support lies in no earlier support starts a new
        # Dynkin component and is its highest root, whose support is the
        # whole component
        pairs, reflections = _close_roots(simple_roots, simple_coroots)
        pos = sorted((sum(coords), a, av, coords)
                     for a, (av, coords) in pairs.items())
        covered, tops = set(), []
        for _, a, av, coords in reversed(pos):
            support = tuple(i for i, x in enumerate(coords) if x)
            if support[0] not in covered:
                covered.update(support)
                tops.append((support, (a, av)))
        tops.sort()
        pos_roots = tuple(p[1] for p in pos)
        two_rho = tuple(sum(col) for col in zip(*pos_roots)) if pos_roots \
            else (0,) * rank
        # pos_root_coords are the positive roots' coordinates in the simple
        # roots; root_reflections maps every positive root to
        # (s_1(root), ..., s_m(root)), outside the equality key
        self.__dict__.update(
            family=family, rank=rank, simple_roots=simple_roots,
            simple_coroots=simple_coroots, cartan_matrix=cartan,
            pos_roots=pos_roots, pos_coroots=tuple(p[2] for p in pos),
            two_rho=two_rho, pos_root_coords=tuple(p[3] for p in pos),
            root_reflections=reflections,
            components=tuple(t[0] for t in tops),
            highest_roots=tuple(t[1] for t in tops))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a RootDatum")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a RootDatum")

    def _key(self):
        return (self.rank, self.simple_roots, self.simple_coroots)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- basic pairings ------------------------------------------------------

    @property
    def n_simple(self) -> int:
        return len(self.simple_roots)

    def reflect(self, i: int, la) -> tuple:
        """Apply the simple reflection s_i (0-based) to a coweight."""
        _check_rank(self, la)
        c = dot(la, self.simple_roots[i])
        if not c:
            return tuple(la)
        av = self.simple_coroots[i]
        return tuple(x - c * y for x, y in zip(la, av))

    def is_dominant(self, la) -> bool:
        _check_rank(self, la)
        return all(dot(la, a) >= 0 for a in self.simple_roots)

    def dominant_rep(self, la) -> tuple:
        la = tuple(la)
        _check_rank(self, la)
        while True:
            for i, a in enumerate(self.simple_roots):
                if dot(la, a) < 0:
                    la = self.reflect(i, la)
                    break
            else:
                return la

    # -- lazy structure (computed once, cached on the instance) -------------

    @cached_property
    def coroot_hnf(self):
        """HNF basis of the coroot lattice, for Kottwitz reduction."""
        return tuple(hermite_basis(self.simple_coroots))

    def kappa_reduce(self, vec) -> tuple:
        """Canonical representative of a coweight modulo the coroot lattice."""
        _check_rank(self, vec)
        return reduce_mod_lattice(vec, self.coroot_hnf)

    @cached_property
    def _grade_form(self):
        """Covector f with grade = <v, f> when Omega = X_* / coroots is 0 or
        Z, else None.

        With one non-pivot column c in the coroot HNF B, f_c is the product
        of the pivots and B f = 0 fixes the rest bottom-up; f is then the
        vector of maximal minors of B, so every division is exact and Omega
        is torsion-free iff gcd(f) = 1.  The sign makes f's first nonzero
        entry positive.
        """
        hnf = self.coroot_hnf
        pivots = [next(j for j, x in enumerate(row) if x) for row in hnf]
        det = prod(row[p] for row, p in zip(hnf, pivots))
        free = [j for j in range(self.rank) if j not in pivots]
        if not free:
            return (0,) * self.rank if det == 1 else None
        if len(free) > 1:
            return None
        f = [0] * self.rank
        f[free[0]] = det
        for row, p in reversed(tuple(zip(hnf, pivots))):
            f[p] = -dot(row, f) // row[p]
        if gcd(*f) != 1:
            return None
        sign = 1 if next(x for x in f if x) > 0 else -1
        return tuple(sign * x for x in f)

    @property
    def omega_is_free_cyclic(self) -> bool:
        """True iff X_* / coroot lattice is 0 or Z (then grades are ints)."""
        return self._grade_form is not None

    def omega_grade(self, vec):
        """Integer grade of a coweight class when Omega is 0 or Z (else None)."""
        _check_rank(self, vec)
        f = self._grade_form
        return None if f is None else dot(vec, f)

    # -- affine Weyl group handle --------------------------------------------

    def affine_weyl(self):
        from .affine import shared_group
        return shared_group(self)

    def __repr__(self):
        return f"RootDatum({self.family}, rank={self.rank})"


# -- construction -------------------------------------------------------------


def _close_roots(simple_roots, simple_coroots):
    """(root -> (coroot, simple-root coordinates), root -> reflections)
    over the positive roots, closing the simple roots under the simple
    reflections.

    s_i(a) = a - <a_i^vee, a> a_i subtracts <a_i^vee, a> from coordinate i
    alone, so s_i permutes the positive roots other than a_i and sends a_i
    to -a_i (Humphreys, Lie algebras, 10.2 Lemma B); no root has mixed
    signs, of finite type or not (Kac, Infinite dimensional Lie algebras,
    Lemma 3.7).  Past `_MAX_ROOTS` roots of both signs the closure is
    refused: it cannot tell an infinite closure from a large finite one.
    Every positive root is on the frontier once, so the closure meets every
    (root, simple reflection) pair once and records s_i(a) as entry i of
    the root's reflections: `a` itself, no new tuple, when
    <a_i^vee, a> = 0, and None for s_i(a_i) = -a_i.  These are the one
    source of the Weyl group's action on the roots
    (:class:`iwahecke.weyl.IndexedWeyl` reads its root permutations from
    them, the negative roots by s_i(-a) = -s_i(a))."""
    m = len(simple_roots)
    simple = tuple(zip(range(m), simple_roots, simple_coroots))
    pairs = {a: (av, tuple(int(j == i) for j in range(m)))
             for i, a, av in simple}
    reflections = {}
    frontier = list(pairs)
    while frontier:
        new = []
        for a in frontier:
            av, coords = pairs[a]
            images = []
            for i, ai, avi in simple:
                c = dot(avi, a)
                ra = tuple([x - c * y for x, y in zip(a, ai)]) if c else a
                if a == ai:
                    ra = None
                elif ra not in pairs:
                    d = dot(av, ai)
                    rav = tuple([x - d * y for x, y in zip(av, avi)])
                    rc = coords[:i] + (coords[i] - c,) + coords[i + 1:]
                    pairs[ra] = (rav, rc)
                    new.append(ra)
                    # both signs count toward the bound on roots
                    if 2 * len(pairs) > _MAX_ROOTS:
                        raise RootDatumError(
                            f"root closure exceeds {_MAX_ROOTS} roots: the "
                            "Cartan matrix is not of finite type, or its "
                            "root system is larger than the package allows")
                images.append(ra)
            reflections[a] = tuple(images)
        frontier = new
    return pairs, reflections


def _check_root_count(name, count):
    if count > _MAX_ROOTS:
        raise RootDatumError(
            f"{name} has {count} roots, more than the {_MAX_ROOTS} the root "
            "closure allows")


def build_root_datum(family: str, n: int) -> RootDatum:
    """Standard based root datum of GL(n), SL(n), Sp(n) or GSp(n).

    For Sp and GSp, `n` is the matrix size and must be even (type C_{n/2}).
    A datum with more than 10,000 roots is refused before it is built:

    >>> try:
    ...     build_root_datum("GL", 101)
    ... except RootDatumError as exc:
    ...     print(exc)
    GL(101) has 10100 roots, more than the 10000 the root closure allows
    """
    family = family.upper()
    if family == "GL":
        if n < 1:
            raise RootDatumError("GL(n) needs n >= 1")
        _check_root_count(f"GL({n})", n * (n - 1))
        e = lambda i: tuple(1 if j == i else 0 for j in range(n))
        diff = [tuple(a - b for a, b in zip(e(i), e(i + 1)))
                for i in range(n - 1)]
        return RootDatum(f"GL({n})", n, diff, diff)

    if family == "SL":
        if n < 2:
            raise RootDatumError("SL(n) needs n >= 2")
        _check_root_count(f"SL({n})", n * (n - 1))
        rank = n - 1
        cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                   for j in range(rank)] for i in range(rank)]
        roots = [tuple(cartan[i][j] for i in range(rank)) for j in range(rank)]
        coroots = [tuple(1 if i == j else 0 for i in range(rank))
                   for j in range(rank)]
        return RootDatum(f"SL({n})", rank, roots, coroots)

    if family in ("SP", "GSP"):
        name = "Sp" if family == "SP" else "GSp"
        if n < 2 or n % 2:
            raise RootDatumError(f"{name}(n) needs even n >= 2")
        k = n // 2
        name = f"{name}({n})"
        _check_root_count(name, 2 * k * k)
        rank = k if family == "SP" else k + 1
        pad = () if family == "SP" else (0,)

        def e(i):
            return tuple(1 if j == i else 0 for j in range(k))

        roots, coroots = [], []
        for i in range(k - 1):
            d = tuple(a - b for a, b in zip(e(i), e(i + 1)))
            roots.append(d + pad)
            coroots.append(d + pad)
        long_root = tuple(2 if j == k - 1 else 0 for j in range(k))
        roots.append(long_root + ((-1,) if family == "GSP" else ()))
        coroots.append(e(k - 1) + pad)
        return RootDatum(name, rank, roots, coroots)

    raise RootDatumError(f"unsupported family {family!r}")


def load_root_datum(path) -> RootDatum:
    """Load a custom root datum from a key/value config file.

    Format (``#`` comments allowed)::

        name pgl2
        rank 1
        simple_roots
        1
        end
        simple_coroots
        2
        end

    ``simple_roots`` rows are character vectors, ``simple_coroots`` rows are
    coweight vectors, both of length ``rank``, a nonnegative int.  Each key
    and block appears at most once.  The :class:`RootDatum` constructor
    validates the datum (a rank of at most 10,000, a generalized Cartan
    matrix whose root closure stays under the cap) as it loads.
    """
    name, rank = None, None
    blocks = {"simple_roots": [], "simple_coroots": []}
    current = None
    seen = set()  # keys and blocks: each may appear once
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if current is not None:
                if line == "end":
                    current = None
                else:
                    try:
                        blocks[current].append(tuple(int(t) for t in line.split()))
                    except ValueError:
                        raise RootDatumError(f"bad matrix row {line!r}") from None
                continue
            key, _, value = line.partition(" ")
            if line not in blocks and key not in ("name", "rank"):
                raise RootDatumError(f"unknown config key {key!r}")
            if key in seen:
                raise RootDatumError(f"repeated config key {key!r}")
            seen.add(key)
            if line in blocks:
                current = line
            elif key == "name":
                name = value.strip()
            else:
                try:
                    rank = int(value)
                except ValueError:
                    rank = None
                if rank is None or rank < 0:
                    raise RootDatumError(f"bad rank {value!r}")
    if current is not None:
        raise RootDatumError(f"unterminated block {current!r}")
    if rank is None:
        raise RootDatumError("config is missing 'rank'")
    return RootDatum(name or "custom", rank, blocks["simple_roots"],
                     blocks["simple_coroots"])


def levi_sub_datum(rd: RootDatum, labels) -> RootDatum:
    """The standard Levi subgroup datum for a subset of simple roots.

    `labels` are 1-based simple-root labels (matching reflection labels
    s_1..s_m).  The cocharacter lattice is unchanged; only the root system
    shrinks.  Labels that cover every simple root give `rd` itself, so
    L = G shares G's context under G's own name.
    """
    labels = sorted(set(labels))
    for lab in labels:
        if not 1 <= lab <= rd.n_simple:
            raise RootDatumError(f"not a simple root label: {lab}")
    if len(labels) == rd.n_simple:
        return rd
    idx = [lab - 1 for lab in labels]
    return RootDatum(
        f"{rd.family}|levi{labels}", rd.rank,
        [rd.simple_roots[i] for i in idx],
        [rd.simple_coroots[i] for i in idx])


# -- the module-level operations ----------------------------------------------


def _check_rank(rd: RootDatum, la):
    if len(la) != rd.rank:
        raise RootDatumError("coweight length differs from rank")


def _same_datum(rd: RootDatum, *others) -> bool:
    """True when every datum in `others` is `rd`, the same object or an equal
    value; else the one ValueError of every operation on two operands."""
    for other in others:
        if other is not rd and other != rd:
            raise ValueError("operands on different root data")
    return True


def weyl_orbit(rd: RootDatum, mu) -> frozenset:
    """Full orbit of a coweight under the finite Weyl group."""
    mu = tuple(mu)
    _check_rank(rd, mu)
    seen = {mu}
    frontier = [mu]
    while frontier:
        new = []
        for la in frontier:
            for i in range(rd.n_simple):
                r = rd.reflect(i, la)
                if r not in seen:
                    seen.add(r)
                    new.append(r)
        frontier = new
    return frozenset(seen)


def is_minuscule(rd: RootDatum, mu) -> bool:
    """True iff the dominant mu pairs to 0 or 1 with every positive root."""
    if not rd.is_dominant(mu):
        raise RootDatumError(f"{mu} is not dominant")
    return all(dot(mu, a) in (0, 1) for a in rd.pos_roots)
