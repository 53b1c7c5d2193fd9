"""The documented library surface: the README's example runs, and the
package exports exactly the names it documents."""

import importlib
import inspect
import re
from pathlib import Path

import morseideals

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTS = {
    "BettiTable",
    "Matching",
    "MatchingReport",
    "MinimalSearchResult",
    "Monomial",
    "MonomialIdeal",
    "MorseComplex",
    "PossibleEdge",
    "SearchWorkerError",
    "SimpleGraph",
    "TaylorComplex",
    "VariableContext",
    "betti_numbers",
    "bm_matching",
    "bridge_friendly_list",
    "bridge_minimal_search",
    "build_taylor",
    "cell_members",
    "critical_cells",
    "critical_family",
    "cycle_edge_ideal",
    "divides",
    "edge_ideal",
    "format_ideal",
    "homology_ranks",
    "is_bridge_friendly",
    "is_minimal",
    "lyubeznik_matching",
    "minimize_generators",
    "morse_differential",
    "parse_graph",
    "parse_ideal",
    "parse_monomial",
    "possible_edges_with_positions",
    "random_squarefree_ideal",
    "ranks",
    "trimmed_matching",
    "validate_matching",
    "verify_complex",
}

# helpers that only tests use; they live in tests/conftest.py
MOVED = (
    ("homology", "exact_rank"),
    ("morse", "transfer"),
    ("morse", "complex_to_json"),
    ("taylor", "cardinality"),
    ("taylor", "cell_of"),
    ("taylor", "incidence_sign"),
)


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_package_exports():
    exported = {
        name
        for name, value in vars(morseideals).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == EXPORTS


def test_test_only_helpers_left_the_package():
    for module_name, name in MOVED:
        assert not hasattr(morseideals, name), name
        module = importlib.import_module(f"morseideals.{module_name}")
        assert not hasattr(module, name), f"{module_name}.{name}"


def test_monomial_has_no_test_only_arithmetic():
    # exponent sums, squarefreeness and products read ``exponents`` directly
    for name in ("__mul__", "degree", "is_squarefree"):
        assert not hasattr(morseideals.Monomial, name), name


def test_matching_has_no_source_table():
    # a facet that is no target is a source exactly when it is touched
    assert not hasattr(morseideals.Matching, "source_cells")
