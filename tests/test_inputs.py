"""
Input outside the domain.  Every CLI flag is swept over a list of
malformed, zero, negative and empty values, each run ending in a
documented exit code; `tests/test_cli.py`'s REFUSALS pins the exact error
line of each refusal the CLI documents.  Library functions called outside
their domain raise a `ValueError`, which the CLI maps to exit 3.
"""

import itertools

import pytest

from iwahecke.center import monomial_symmetric
from iwahecke.cli import main
from iwahecke.deeplevel import (DiagonalTorusPoint, drinfeld_propp_value,
                                gl2_level_index, level_compatibility_check,
                                matrix_to_text, scholze_phi)
from iwahecke.ffield import GF
from iwahecke.laurent import LaurentPoly
from iwahecke.rootdata import RootDatum, RootDatumError, build_root_datum
from iwahecke.series import Matrix2
from iwahecke.transfer import base_change

# one valid request per subcommand, each flag that takes a value with its
# value in it, or left out of it where it has none
REQUESTS = (
    "adm --group=GL:3 --mu=1,0,0 --out --format",
    "zmu --group=GL:3 --mu=1,0,0 --q --out --format --method --levi --r",
    "transfer --group=GL:3 --mu=1,0,0 --q --out --format",
    "scholze --n=1 --q=2 --count=3 --pairs=1 --corpus --precision --out "
    "--format",
)
VALUES = ("", "x", "0", "-1", "1,", ",", "0,0,0", "-1,0,0", "1.5", " ")


def _sweep():
    for request in REQUESTS:
        command, *flags = request.split()
        flags = dict(flag.partition("=")[::2] for flag in flags)
        for flag, value in itertools.product(flags, VALUES):
            # the = form, as a value may start with a minus sign
            yield [command] + [f"{f}={value if f == flag else given}"
                               for f, given in flags.items()
                               if given or f == flag]


# every flag of every request given every value in turn
SWEEP = list(_sweep())


def test_every_flag_swept_over_malformed_values(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)  # where --out=0 and the like write
    for argv in SWEEP:
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc in (0, 2, 3, 4) and "Traceback" not in err, argv
        assert sum("error:" in line for line in err.splitlines()) <= 1, \
            argv
        assert rc not in (2, 3) or out == "", argv
    assert len(SWEEP) == 250


F2 = GF(2)
ONE = Matrix2.identity(F2)
W = build_root_datum("GL", 2).affine_weyl()
H = W.hecke()

# (id, the error, its message, the call)
REFUSED = [
    ("GF(2^13)", ValueError, "out of supported range", lambda: GF(2, 13)),
    ("GF(1)", ValueError, "1 is not prime", lambda: GF(1)),
    ("base change r=0", RootDatumError, "base change degree must be >= 1",
     lambda: base_change(monomial_symmetric(W.rd, (1, 0)), 0)),
    ("subs_v_power(0)", ValueError, "r must be >= 1",
     lambda: LaurentPoly.v(1).subs_v_power(0)),
    ("scholze_phi n=0", ValueError, "level n must be >= 1",
     lambda: scholze_phi(0, ONE)),
    ("gl2_level_index n=0", ValueError, "level n must be >= 1",
     lambda: gl2_level_index(0, 2)),
    ("level_compatibility_check n=0", ValueError, "level n must be >= 1",
     lambda: level_compatibility_check(0, ONE)),
    ("matrix_to_text truncated", ValueError, "corpus entries must be exact",
     lambda: matrix_to_text(ONE.truncate(3))),
    ("drinfeld_propp_value rank-1 torus point", ValueError,
     r"GL\(1\), the torus point's rank, not of GL\(2\) \(rank 2\)",
     lambda: drinfeld_propp_value(DiagonalTorusPoint(F2, (1,)), W.identity)),
    ("lmul_omega s1", ValueError, "does not have length zero",
     lambda: H.lmul_omega(W.simple_reflection(1),
                          H.from_terms({W.identity: 1}))),
    ("RootDatum rank -3", RootDatumError,
     r"rank must be an int in 0\.\.10000, got -3",
     lambda: RootDatum("x", -3, [], [])),
]


@pytest.mark.parametrize("error,message,call", [row[1:] for row in REFUSED],
                         ids=[row[0] for row in REFUSED])
def test_library_refusal(error, message, call):
    with pytest.raises(error, match=message):
        call()


def test_library_edge_values():
    F4 = GF(2, 2)
    assert F4.pow(2, -1) == F4.inv(2) == 3  # a negative power inverts first
    # 2 v^-2 + 1 at q = 2: a value in Z[q, 1/q] that is an integer is an int
    value = LaurentPoly({-2: 2, 0: 1}).eval_q(2)
    assert value == 2 and type(value) is int
