"""Contract tests for the public API surface.

These keep the package honest as it grows: every name in ``__all__``
must resolve, every public module/class/function must carry a docstring,
and the headline entry points must be reachable from the top level.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

#: The checked-in snapshot of the public surface. Intentional API
#: changes must update this file (one name per line, sorted), which
#: makes every addition or removal an explicit, reviewable diff.
MANIFEST = Path(__file__).parent / "public_api_manifest.txt"


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name!r}"

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_all_matches_checked_in_manifest(self):
        manifest = MANIFEST.read_text().split()
        assert manifest == sorted(manifest), "manifest must be sorted"
        assert sorted(repro.__all__) == manifest, (
            "repro.__all__ drifted from tests/public_api_manifest.txt; "
            "if the change is intentional, update the manifest"
        )

    def test_headline_entry_points(self):
        # The objects a user needs for the quickstart, reachable top-level.
        for name in (
            "Workspace",
            "MiningSpec",
            "SubgroupDiscovery",
            "load_dataset",
            "BackgroundModel",
            "SearchConfig",
            "MiningSession",
            "find_optimal_location",
        ):
            assert callable(getattr(repro, name))

    def test_registries_reachable_top_level(self):
        from repro.registry import Registry

        for name in ("DATASETS", "MEASURES"):
            assert isinstance(getattr(repro, name), Registry)

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)


def _walk_public_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        modules.append(importlib.import_module(info.name))
    return modules


ALL_MODULES = _walk_public_modules()


class TestDocumentation:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_has_docstring(self, module):
        assert module.__doc__, f"{module.__name__} lacks a module docstring"

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_callables_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not inspect.getdoc(obj):
                undocumented.append(name)
            elif inspect.isclass(obj):
                for method_name, method in vars(obj).items():
                    if method_name.startswith("_") or not inspect.isfunction(method):
                        continue
                    if not inspect.getdoc(method):
                        undocumented.append(f"{name}.{method_name}")
        assert not undocumented, (
            f"{module.__name__}: undocumented public API: {undocumented}"
        )
