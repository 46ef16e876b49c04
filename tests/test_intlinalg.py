import random
from fractions import Fraction

from iwahecke.intlinalg import (dot, hermite_basis, reduce_mod_lattice,
                                solve_underdetermined)


def test_hermite_gl_coroot_lattice():
    rows = [(1, -1, 0), (0, 1, -1)]
    h = hermite_basis(rows)
    assert len(h) == 2
    # reduction sends everything to (0, 0, coordinate sum)
    rng = random.Random(0)
    for _ in range(40):
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        r = reduce_mod_lattice(v, h)
        assert r == (0, 0, sum(v))


def test_hermite_full_lattice():
    h = hermite_basis([(2, 0), (0, 1), (1, 0)])
    assert reduce_mod_lattice((7, -3), h) == (0, 0)


def test_reduction_is_well_defined_on_classes():
    rows = [(1, -1), (1, 1)]  # index-2 sublattice of Z^2
    h = hermite_basis(rows)
    rng = random.Random(1)
    for _ in range(30):
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        shift = tuple(a + 3 * rows[0][i] - 2 * rows[1][i]
                      for i, a in enumerate(v))
        assert reduce_mod_lattice(v, h) == reduce_mod_lattice(shift, h)


def test_solve_underdetermined():
    rows = [[1, -1, 0], [0, 1, -1]]
    x = solve_underdetermined(rows, (1, 0))
    assert x is not None
    assert [sum(Fraction(r[j]) * x[j] for j in range(3)) for r in rows] == [1, 0]
    assert solve_underdetermined([[0, 0]], (1,)) is None
    assert solve_underdetermined([], ()) == ()


def test_dot():
    assert dot((1, 2, 3), (4, 5, 6)) == 32


def test_solve_underdetermined_matches_fraction_elimination():
    # random m x n systems, m <= n, against Gauss-Jordan on Fractions; a
    # third get a last row that repeats a combination of the others with
    # its target moved off, so they have no solution, and zero rows and
    # columns come up too
    from oracles import solve_by_fractions
    rng = random.Random(7)
    inconsistent = 0
    for trial in range(600):
        m = rng.randint(1, 4)
        n = rng.randint(m, 5)
        rows = [[rng.choice((0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(n)]
                for _ in range(m)]
        target = [rng.randint(-5, 5) for _ in range(m)]
        if m > 1 and trial % 3 == 0:
            f = [rng.randint(-2, 2) for _ in range(m - 1)]
            rows[-1] = [sum(c * r[j] for c, r in zip(f, rows)) for j in range(n)]
            target[-1] = sum(c * t for c, t in zip(f, target)) + rng.choice((0, 1))
        want = solve_by_fractions(rows, target)
        assert solve_underdetermined(rows, target) == want, (rows, target)
        inconsistent += want is None
    assert inconsistent > 50
