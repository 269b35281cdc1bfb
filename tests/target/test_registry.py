"""Target registry: specs, lookup, round-trips, capability queries."""

import dataclasses

import pytest

from repro.errors import TargetError
from repro.target import (
    FAMILY_ARM,
    TargetSpec,
    arm_targets,
    get_target,
    list_targets,
    riscv_targets,
    target_names,
)
from repro.target import names
from repro.soc.memmap import L2_SIZE, TCDM_SIZE


class TestRegistry:
    def test_lists_at_least_seven_targets(self):
        assert len(target_names()) >= 7

    def test_canonical_names_present(self):
        expected = {
            names.RI5CY, names.XPULPV2, names.XPULPNN,
            "xpulpnn-cluster2", "xpulpnn-cluster4", "xpulpnn-cluster8",
            names.STM32L4, names.STM32H7,
        }
        assert expected <= set(target_names())

    def test_arm_baselines_registered(self):
        arm = {spec.name for spec in arm_targets()}
        assert arm == {names.STM32L4, names.STM32H7}
        assert all(spec.family == FAMILY_ARM for spec in arm_targets())

    def test_riscv_targets_share_l2(self):
        for spec in riscv_targets():
            assert spec.l2_bytes == L2_SIZE

    def test_cluster_targets_have_tcdm(self):
        for cores in (2, 4, 8):
            spec = get_target(f"xpulpnn-cluster{cores}")
            assert spec.cluster and spec.cores == cores
            assert spec.tcdm_bytes == TCDM_SIZE

    def test_lookup_is_case_insensitive(self):
        assert get_target("XPULPNN") is get_target(names.XPULPNN)
        assert get_target("STM32L4").display == names.STM32L4_DISPLAY

    def test_parametric_cluster_names_resolve(self):
        spec = get_target("xpulpnn-cluster16")
        assert spec.cores == 16 and spec.cluster
        # ... without appearing in the canonical listing
        assert "xpulpnn-cluster16" not in target_names()

    def test_spec_passthrough(self):
        spec = get_target(names.RI5CY)
        assert get_target(spec) is spec

    def test_unknown_target_message_lists_known_names(self):
        with pytest.raises(TargetError, match="gpu"):
            get_target("gpu")
        with pytest.raises(TargetError, match="xpulpnn-cluster8"):
            get_target("gpu")

    def test_non_string_rejected(self):
        with pytest.raises(TargetError, match="TargetSpec"):
            get_target(42)


class TestSpec:
    def test_round_trip_every_registered_target(self):
        for spec in list_targets():
            assert TargetSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        payload = get_target(names.RI5CY).to_dict()
        payload["sparkle"] = True
        with pytest.raises(TargetError, match="sparkle"):
            TargetSpec.from_dict(payload)

    def test_specs_are_frozen(self):
        spec = get_target(names.XPULPNN)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.cores = 2

    def test_capability_queries(self):
        ext = get_target(names.XPULPNN)
        base = get_target(names.RI5CY)
        # prefix, exact mnemonic, and extension-set forms
        assert ext.has("pv.qnt") and ext.has("pv.qnt.n")
        assert ext.has(names.XPULPNN) and ext.subbyte_simd and ext.hw_quant
        assert not base.has("pv.qnt") and not base.subbyte_simd
        assert base.has(names.XPULPV2) and base.has("pv.sdotsp.b")
        assert not get_target(names.STM32L4).has("pv.qnt")

    def test_quant_for(self):
        ext = get_target(names.XPULPNN)
        base = get_target(names.RI5CY)
        assert ext.quant_for(8) == "shift" == base.quant_for(8)
        assert ext.quant_for(4) == "hw"
        assert base.quant_for(4) == "sw"

    def test_mem_bytes_floors_at_l2(self):
        spec = get_target(names.XPULPNN)
        assert spec.mem_bytes(0) == L2_SIZE
        assert spec.mem_bytes(2 * L2_SIZE) == 2 * L2_SIZE

    def test_validation(self):
        spec = get_target(names.XPULPNN)
        with pytest.raises(TargetError, match="family"):
            dataclasses.replace(spec, family="mips")
        with pytest.raises(TargetError, match="quant"):
            dataclasses.replace(spec, quant="fp")
        with pytest.raises(TargetError, match="cluster"):
            dataclasses.replace(spec, cores=4)
