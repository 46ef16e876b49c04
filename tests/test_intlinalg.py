import random

from iwahecke.intlinalg import dot, hermite_basis, reduce_mod_lattice


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


def test_dot():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
