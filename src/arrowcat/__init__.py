"""arrowcat: finite categories as arrow-only data.

A category is a finite set of morphism names with a partial composition
table; identities, domains, and codomains are computed, never declared.
The package validates such data, converts to and from the conventional
objects-and-arrows presentation, and computes skeletons, equivalences,
finite limits, and adjunctions, all exposed over the catspec text format
and the ``arrowcat`` command-line tool.

Importing the package loads none of its modules: each public name, and
each submodule, is imported on first access (PEP 562), so a command pays
only for the layers it runs.
"""
__version__ = "0.1.0"

# The public names, by home module.
_EXPORTS = {
    "adjunction": "AdjunctionCandidate AdjunctionReport AdmissibilityReport check_adjunction galois_oracle "
                  "galois_violations is_admissible poset_adjunction poset_functor",
    "catspec": "CatspecDocument CatspecError Diagnostic Span parse serialize",
    "core": "CompositionProfile ObjlessCategory infer_identities validate_objectless",
    "equivalence": "EquivalenceWitness SkeletonResult are_equivalent brute_force_equivalence "
                   "find_category_isomorphism is_isomorphism is_natural_isomorphism is_skeletal "
                   "iso_classes skeleton",
    "errors": "ArrowCatError CapacityError GeneratorError InapplicableScopeError InvalidCategoryError "
              "MalformedNameError NameNotFoundError NotAnIdentityError NotMonotoneError WiringError",
    "functors": "FunctorMap NatTransf functor_cod functor_compose functor_dom functor_identity "
                "identity_nat validate_functor validate_nat",
    "generators": "Poset disjoint_union gen_cyclic gen_discrete gen_finset gen_monoid gen_poset "
                  "gen_random gen_walking_iso",
    "limits": "LimitCone LimitsReport binary_product equalizer generalized_elements "
              "preserves_finite_limits terminal_objects",
    "report": "ValidationReport Violation",
    "standard": "StdCategory equal_up_to_renaming to_objectless to_standard validate_standard",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "_search"}

__all__ = list(_HOME)


def _load(module: str):
    """A submodule, imported as an import statement would, so ``-X importtime`` lists it;
    with a non-empty ``fromlist``, ``__import__`` returns the submodule, not the package."""
    return __import__(f"{__name__}.{module}", fromlist=["__name__"])


def __getattr__(name: str):
    if name in _HOME:
        value = globals()[name] = getattr(_load(_HOME[name]), name)  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return _load(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
