import doctest

import iwahecke
import iwahecke.affine
import iwahecke.laurent
import iwahecke.rootdata
import iwahecke.series
import iwahecke.weyl


def test_module_doctests():
    for mod in (iwahecke, iwahecke.laurent, iwahecke.affine, iwahecke.rootdata,
                iwahecke.series, iwahecke.weyl):
        result = doctest.testmod(mod, verbose=False)
        assert result.failed == 0, mod.__name__
        assert result.attempted > 0, mod.__name__
