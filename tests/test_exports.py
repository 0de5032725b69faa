"""The package exports exactly what its modules list in ``__all__``, and
their annotations resolve."""

import inspect
import typing

import girthbound
from girthbound import bounds, constructions, graphcore, meanineq, search

MODULES = (bounds, constructions, graphcore, meanineq, search)

# The names the package exported when it listed them by hand.
LISTED_BY_HAND = {
    "BipartiteGraph", "BoundReport", "BudgetExhausted", "CubicDiagnostics", "GirthReport",
    "Graph", "IneqVerdict", "NonnegMatrix", "SearchCertificate", "balanced_approx",
    "balanced_approx_at_cube", "bound_report", "certify_bound", "check", "complete_bipartite",
    "contract", "count_paths3", "count_paths3_enumerate", "cubic_discriminant", "cubic_max_e",
    "eval_cubic", "eval_reiman", "expand", "from_edges", "girth", "girth6_coarse_bound",
    "girth8_coarse_bound", "grid_incidence", "growth_delta", "max_size", "pg2_incidence", "phi",
    "prune_min_degree", "psi", "reiman_max_e", "size_cap", "unbalanced6", "unbalanced8",
    "unbalanced_cap", "verify_weak_gq", "wq_incidence",
}


def test_all_concatenates_the_modules_lists():
    assert girthbound.__all__ == [name for m in MODULES for name in m.__all__]


def test_no_name_is_exported_twice():
    assert len(set(girthbound.__all__)) == len(girthbound.__all__)


def test_each_name_is_its_modules_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(girthbound, name) is getattr(m, name), (m.__name__, name)


def test_names_listed_by_hand_are_still_exported():
    assert len(LISTED_BY_HAND) == 41
    assert LISTED_BY_HAND <= set(girthbound.__all__)


def public_callables():
    """(qualified name, function) for every public function of the five
    modules and every public method, property or classmethod of their
    public classes."""
    for m in MODULES:
        for name in m.__all__:
            obj = getattr(m, name)
            if inspect.isfunction(obj):
                yield f"{m.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    func = getattr(member, "fget", None) or getattr(member, "__func__", member)
                    if inspect.isfunction(func):
                        yield f"{m.__name__}.{name}.{attr}", func


def test_every_annotation_resolves():
    # The modules postpone annotations, so a name that is imported only
    # inside a function would fail here, not at import.
    checked = []
    for name, func in public_callables():
        typing.get_type_hints(func)
        checked.append(name)
    assert "girthbound.bounds.balanced_approx_at_cube" in checked
    assert "girthbound.meanineq.NonnegMatrix.row_sums" in checked
    assert len(checked) > 40
