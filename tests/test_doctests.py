"""Run the doctest examples embedded in the library's docstrings.

Modules are auto-discovered by walking the ``repro`` package and
collecting every module whose docstrings carry ``>>>`` examples, so a
new (or newly documented) module can never silently skip collection —
which is exactly how the stale ``percentile`` example in
``repro.fleet.service.telemetry`` went unnoticed while the function
was off by one.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

# The hand-maintained list this file used to carry.  Discovery must
# always find at least these; the superset assertion below keeps the
# migration honest.
LEGACY_MODULES = frozenset(
    {
        "repro.utils.bitvector",
        "repro.utils.intervals",
        "repro.utils.tables",
        "repro.mem.address",
        "repro.mem.layout",
        "repro.mem.tint",
        "repro.cache.geometry",
        "repro.cache.replacement",
        "repro.cache.scratchpad",
        "repro.layout.partition",
        "repro.workloads.suite",
    }
)


def _discover_modules_with_doctests() -> list[str]:
    """Every ``repro.*`` module carrying at least one ``>>>`` example."""
    finder = doctest.DocTestFinder(exclude_empty=True)
    names = ["repro"]
    for _, name, _ in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        # Executable entry points (``python -m`` shims) emit
        # deprecation warnings on import; they carry no doctests.
        if name.endswith("__main__"):
            continue
        names.append(name)
    discovered = []
    for name in names:
        module = importlib.import_module(name)
        tests = finder.find(module, module=module)
        if any(test.examples for test in tests):
            discovered.append(name)
    return discovered


MODULES_WITH_DOCTESTS = _discover_modules_with_doctests()


def test_discovery_is_superset_of_legacy_list():
    missing = LEGACY_MODULES - set(MODULES_WITH_DOCTESTS)
    assert not missing, (
        f"auto-discovery lost modules the old hand list had: "
        f"{sorted(missing)}"
    )


def test_discovery_collects_service_telemetry():
    # The module whose stale percentile doctest never ran under the
    # hand-maintained list.
    assert "repro.fleet.service.telemetry" in MODULES_WITH_DOCTESTS


@pytest.mark.parametrize("module_name", MODULES_WITH_DOCTESTS)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures"
    assert results.attempted > 0, f"no doctests found in {module_name}"
