from fractions import Fraction

import mpmath
import pytest
from mpmath.ctx_mp_python import PythonMPContext

from hzeta import PrecisionContext


@pytest.fixture(scope="session")
def ctx20():
    return PrecisionContext(target_digits=20)


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(target_digits=30)


@pytest.fixture()
def precision_writes(monkeypatch):
    """Every assignment to mpmath's ``prec`` or ``dps``, as (name, value)."""
    writes = []
    for name in ("prec", "dps"):
        prop = getattr(PythonMPContext, name)

        def setter(ctx, n, _set=prop.fset, _name=name):
            writes.append((_name, n))
            _set(ctx, n)

        monkeypatch.setattr(PythonMPContext, name, property(prop.fget, setter))
    return writes


@pytest.fixture()
def hidps():
    """Run a block at 60 decimal digits (for parsing reference strings)."""
    with mpmath.mp.workdps(60):
        yield


def frac(p, q=1):
    return Fraction(p, q)
