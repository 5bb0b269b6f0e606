"""Higher-weight Jacobians of products of CM elliptic curves.

Exact class-group and lattice arithmetic over imaginary quadratic fields,
canonical decompositions of 2-maximal abelian varieties, the synthetic Hodge
calculus for Jacobian discrepancies, and high-precision j-invariants with
Hilbert class polynomials.

Importing the package loads none of its modules: a public name, or a
submodule, is imported on first access (PEP 562), so a command-line call pays
only for the modules it uses.
"""

# submodule -> the public names it owns
_EXPORTS = {
    "binforms": (
        "ClassGroup", "Form", "class_group", "compose", "element_order",
        "enumerate_reduced", "power", "principal_form", "reduce",
    ),
    "cmlattice": (
        "CMLattice", "LatticeTuple", "Order", "canonicalize", "conjugate_lattice",
        "form_to_lattice", "ideal_class", "image_lattice_L", "is_homothetic",
        "lattice_product",
    ),
    "hodgecalc": (
        "SyntheticHodge", "abelian_product_hodge", "blowup", "direct_sum", "discrepancy",
        "has_jacobian", "projective_bundle", "split_h0", "torsion_dim",
    ),
    "jacobians": (
        "CurveClass", "Decomposition", "ProductAV", "SurfaceReport", "brauer_jacobian_pair",
        "field_contains", "is_fixed_point", "is_isomorphic", "is_two_maximal",
        "jacobian_orbit", "kummer_jacobian", "m_jacobian", "m_jacobian_lattice_route",
        "n_decompose", "phi", "product_definable_over_jacobian_field",
        "same_field_of_definition", "surface_decompose",
    ),
    "analytic": (
        "ClassPolynomial", "PrecComplex", "hilbert_class_polynomial", "j_is_real",
        "j_of_lattice", "verify_appendix",
    ),
    "quadfield": ("FieldTag", "QuadElem"),
    "errors": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows up in -X importtime
    __import__(f"{__name__}.{module}")
    value = globals()[module] if module == name else getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_EXPORTS})
