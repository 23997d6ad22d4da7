"""Unit tests for the pre-store primitive and patch configuration."""

import pytest

from repro.core.prestore import (
    CYCLES_PER_PRESTORE,
    PatchConfig,
    PatchSite,
    PrestoreMode,
    PrestoreOp,
)
from repro.errors import ConfigurationError


class TestPrestoreOps:
    def test_cheap_by_design(self):
        """Section 5: a pre-store costs ~1 cycle to issue."""
        assert CYCLES_PER_PRESTORE == 1

    def test_mode_to_op_mapping(self):
        assert PrestoreMode.CLEAN.op is PrestoreOp.CLEAN
        assert PrestoreMode.DEMOTE.op is PrestoreOp.DEMOTE
        assert PrestoreMode.NONE.op is None
        assert PrestoreMode.SKIP.op is None  # skipping rewrites the stores

    def test_string_forms(self):
        assert str(PrestoreOp.CLEAN) == "clean"
        assert str(PrestoreMode.SKIP) == "skip"


class TestPatchConfig:
    def test_baseline_is_all_none(self):
        config = PatchConfig.baseline()
        assert config.mode("anything") is PrestoreMode.NONE
        assert config.enabled_sites() == {}

    def test_uniform(self):
        sites = [PatchSite(name="a.site", function="a"), PatchSite(name="b.site", function="b")]
        config = PatchConfig.uniform(PrestoreMode.CLEAN, sites)
        assert config.mode("a.site") is PrestoreMode.CLEAN
        assert config.enabled_sites() == {s.name: PrestoreMode.CLEAN for s in sites}
        assert config.mode("undeclared.site") is PrestoreMode.NONE

    def test_per_site_override(self):
        config = PatchConfig({"a": PrestoreMode.CLEAN, "b": PrestoreMode.NONE})
        assert config.mode("a") is PrestoreMode.CLEAN
        assert config.mode("b") is PrestoreMode.NONE
        assert config.mode("c") is PrestoreMode.NONE
        assert config.enabled_sites() == {"a": PrestoreMode.CLEAN}

    def test_type_validation(self):
        with pytest.raises(ConfigurationError):
            PatchConfig({"a": "clean"})
        with pytest.raises(ConfigurationError):
            PatchConfig(default="clean")

    def test_describe_resolves_sites(self):
        site = PatchSite(name="a", function="craft", file="x.c", line=12)
        config = PatchConfig({"a": PrestoreMode.SKIP})
        text = config.describe([site])
        assert "a: skip" in text and "x.c:12" in text


class TestPatchSite:
    def test_str(self):
        site = PatchSite(name="mg.psinv", function="psinv", file="mg.f90", line=614)
        assert "mg.f90:614" in str(site)
        assert "psinv" in str(site)
