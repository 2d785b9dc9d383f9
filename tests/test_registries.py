"""Tests for the string-keyed registries behind MiningSpec."""

import pytest

import repro
from repro.errors import DataError, ReproError
from repro.registry import DATASETS, MEASURES, Registry


class TestRegistryMechanics:
    def test_register_and_get(self):
        registry = Registry("widget")
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry
        assert len(registry) == 1

    def test_decorator_form(self):
        registry = Registry("widget")

        @registry.registered("fn")
        def fn():
            return 42

        assert registry.get("fn") is fn

    def test_register_without_value_is_an_immediate_error(self):
        registry = Registry("widget")
        with pytest.raises(ReproError, match="needs a value"):
            registry.register("forgotten")
        with pytest.raises(ReproError, match="needs a value"):
            registry.register("explicit-none", None)
        assert "forgotten" not in registry

    def test_unknown_key_names_registry_and_lists_keys(self):
        registry = Registry("widget")
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(ReproError, match="unknown widget 'gamma'"):
            registry.get("gamma")
        with pytest.raises(ReproError, match="available: alpha, beta"):
            registry.get("gamma")

    def test_duplicate_key_raises(self):
        registry = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(ReproError, match="already registered"):
            registry.register("a", 2)

    def test_empty_key_rejected(self):
        with pytest.raises(ReproError, match="non-empty string"):
            Registry("widget").register("", 1)

    def test_custom_error_class(self):
        registry = Registry("thing", error=DataError)
        with pytest.raises(DataError):
            registry.get("nope")

    def test_keys_sorted_and_iterable(self):
        registry = Registry("widget")
        registry.register("b", 2)
        registry.register("a", 1)
        assert registry.keys() == ["a", "b"]
        assert list(registry) == ["a", "b"]


class TestBuiltinsRegisteredAtImport:
    """``import repro`` must always see the full vocabulary.

    These guard ``__init__`` drift: a new dataset or measure that is not
    registered here is invisible to every MiningSpec.
    """

    def test_datasets(self):
        assert DATASETS.keys() == ["crime", "mammals", "socio", "synthetic", "water"]

    def test_measures(self):
        assert MEASURES.keys() == [
            "dispersion_corrected", "mean_shift", "si", "wracc",
        ]

    def test_top_level_reexports_are_the_same_objects(self):
        assert repro.DATASETS is DATASETS
        assert repro.MEASURES is MEASURES

    def test_registered_values_resolve(self):
        from repro.baselines.quality import MeanShiftQuality
        from repro.datasets.synthetic import make_synthetic

        assert DATASETS.get("synthetic") is make_synthetic
        assert MEASURES.get("mean_shift") is MeanShiftQuality

    def test_typed_errors(self):
        with pytest.raises(DataError):
            DATASETS.get("nope")
        with pytest.raises(ReproError, match="unknown interestingness measure"):
            MEASURES.get("nope")


class TestDatasetRegistryDelegation:
    def test_load_dataset_goes_through_the_registry(self):
        registered = DATASETS.get("synthetic")
        dataset = registered(0)
        assert repro.load_dataset("synthetic", seed=0).n_rows == dataset.n_rows

    def test_extension_is_visible_everywhere(self):
        def make_aliased(seed=0, **kwargs):
            return repro.make_synthetic(seed, **kwargs)

        DATASETS.register("aliased-test", make_aliased)
        try:
            assert "aliased-test" in repro.available_datasets()
            loaded = repro.load_dataset("aliased-test", seed=1)
            assert loaded.n_rows == repro.make_synthetic(1).n_rows
        finally:
            DATASETS._entries.pop("aliased-test")
