"""Unit tests for the configuration schema validation."""

import pytest

from repro.config import (
    BranchPredictorConfig,
    CacheGeometry,
    CoreConfig,
    MemoryControllerConfig,
    NiuConfig,
    NocConfig,
    NocTopology,
    SharedCacheConfig,
    SystemConfig,
)


class TestCacheGeometry:
    def test_capacity_below_block_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(capacity_bytes=32, block_bytes=64)

    def test_negative_mshrs_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(capacity_bytes=1024, mshr_entries=-1)


class TestBranchPredictorConfig:
    def test_defaults_valid(self):
        bp = BranchPredictorConfig()
        assert bp.btb_entries > 0

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            BranchPredictorConfig(btb_entries=0)


class TestCoreConfig:
    def test_inorder_defaults_valid(self):
        core = CoreConfig()
        assert not core.is_ooo

    def test_ooo_requires_rob(self):
        with pytest.raises(ValueError, match="rob_entries"):
            CoreConfig(is_ooo=True, phys_int_regs=64,
                       issue_window_entries=16)

    def test_ooo_requires_window(self):
        with pytest.raises(ValueError, match="issue_window_entries"):
            CoreConfig(is_ooo=True, phys_int_regs=64, rob_entries=32)

    def test_ooo_requires_physical_registers(self):
        with pytest.raises(ValueError, match="physical"):
            CoreConfig(is_ooo=True, rob_entries=32,
                       issue_window_entries=16, phys_int_regs=16)

    def test_valid_ooo(self):
        core = CoreConfig(is_ooo=True, rob_entries=64,
                          issue_window_entries=32, phys_int_regs=128)
        assert core.register_tag_bits == 7

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=0)


class TestNocConfig:
    def test_defaults(self):
        assert NocConfig().topology is NocTopology.MESH_2D

    def test_narrow_flits_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(flit_bits=4)

    def test_separate_clock_requires_rate(self):
        with pytest.raises(ValueError):
            NocConfig(has_separate_clock=True, clock_hz=0)

    def test_negative_external_ports_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(external_ports=-1)


class TestSharedCacheConfig:
    def test_defaults_valid(self):
        assert SharedCacheConfig().instances == 1

    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError):
            SharedCacheConfig(instances=0)


class TestMemoryControllerConfig:
    def test_zero_channels_allowed(self):
        assert MemoryControllerConfig(channels=0).channels == 0

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            MemoryControllerConfig(peak_transfer_rate_mts=0)


class TestSystemConfig:
    def _base(self, **kwargs):
        defaults = dict(
            name="test", node_nm=65, clock_hz=2e9, n_cores=4,
            core=CoreConfig(),
        )
        defaults.update(kwargs)
        return SystemConfig(**defaults)

    def test_cycle_time(self):
        assert self._base(clock_hz=2e9).cycle_time == pytest.approx(0.5e-9)

    def test_zero_clock_rejected(self):
        with pytest.raises(ValueError):
            self._base(clock_hz=0)

    def test_bad_io_fraction_rejected(self):
        with pytest.raises(ValueError):
            self._base(io_area_fraction=0.95)

    def test_bad_whitespace_rejected(self):
        with pytest.raises(ValueError):
            self._base(whitespace_fraction=-0.1)

    @pytest.mark.parametrize("field", [
        "clock_hz", "temperature_k", "vdd_v", "io_area_fraction",
        "io_peak_power_w", "whitespace_fraction",
        "noc.clock_hz", "niu.bandwidth_gbps",
        "memory_controller.peak_transfer_rate_mts",
    ])
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
    ])
    def test_non_finite_float_rejected_by_name(self, field, value):
        nested = {
            "noc": NocConfig, "niu": NiuConfig,
            "memory_controller": MemoryControllerConfig,
        }
        owner, _, name = field.rpartition(".")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            if owner:
                self._base(**{owner: nested[owner](**{name: value})})
            else:
                self._base(**{field: value})
