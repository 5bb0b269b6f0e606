import copy
import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction as F

import mpmath

import weightjac
from weightjac import analytic, binforms, cmlattice, hodgecalc, jacobians, quadfield

GAUSS = quadfield.FieldTag(-1)
ORDER = cmlattice.Order(GAUSS, 6)
CLASS = jacobians.CurveClass(ORDER, binforms.Form(5, -4, 8))
LATTICE = cmlattice.canonicalize(
    quadfield.QuadElem(GAUSS, F(3), F(0)), quadfield.QuadElem(GAUSS, F(1), F(2))
)

# one instance of every dataclass in the package
SAMPLES = [
    analytic.PrecComplex(mpmath.mpf(1), mpmath.mpf(-2), 64),
    analytic.ClassPolynomial(-4, (1, -1728), 128),
    binforms.Form(2, 1, 3),
    binforms.class_group(-144),
    GAUSS,
    quadfield.QuadElem(GAUSS, F(1, 2), F(-3)),
    ORDER,
    LATTICE,
    cmlattice.LatticeTuple((LATTICE, LATTICE)),
    hodgecalc.SyntheticHodge(2, (1, 0, 1), 2),
    CLASS,
    jacobians.ProductAV((CLASS, CLASS)),
    jacobians.is_two_maximal([LATTICE, LATTICE]),
    jacobians.surface_decompose(CLASS, jacobians.CurveClass.principal(cmlattice.Order(GAUSS, 2))),
    jacobians.n_decompose(jacobians.ProductAV((CLASS, CLASS, CLASS))),
]


def package_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(weightjac.__path__, "weightjac."):
        if info.name == "weightjac.__main__":
            continue
        module = importlib.import_module(info.name)
        found |= {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == info.name
        }
    return found


def test_every_dataclass_has_a_sample():
    assert {type(x) for x in SAMPLES} == package_dataclasses()


def test_value_classes_are_frozen_and_slotted():
    for x in SAMPLES:
        cls = type(x)
        assert cls.__dataclass_params__.frozen, cls
        assert "__slots__" in vars(cls), cls
        assert not hasattr(x, "__dict__"), cls


def test_value_classes_survive_pickle_and_deepcopy():
    for x in SAMPLES:
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x and y is not x, x
            assert repr(y) == repr(x)
