"""Mix profiles: determinism, dedup structure, size rotation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.loadgen.mixes import default_load_config, get_mix, mix_names
from repro.service.spec import spec_artifact_key


class TestRegistry:
    def test_names(self):
        assert mix_names() == sorted(
            ["dedup-heavy", "cache-cold", "mixed-sizes"]
        )

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job mix"):
            get_mix("nope")


class TestDeterminism:
    @pytest.mark.parametrize("name", mix_names())
    def test_same_inputs_same_wire_doc(self, name, load_config):
        mix = get_mix(name)
        for index in (0, 3, 7):
            first = mix.build(index, load_config).to_wire()
            second = mix.build(index, load_config).to_wire()
            assert json.dumps(first, sort_keys=True) == json.dumps(
                second, sort_keys=True
            )


class TestProfiles:
    def test_dedup_heavy_cycles_a_small_pool(self, load_config):
        mix = get_mix("dedup-heavy")
        keys = {
            spec_artifact_key(mix.build(i, load_config))
            for i in range(12)
        }
        assert len(keys) == 4  # the working set, not 12 distinct jobs

    def test_cache_cold_never_repeats(self, load_config):
        mix = get_mix("cache-cold")
        keys = {
            spec_artifact_key(mix.build(i, load_config))
            for i in range(10)
        }
        assert len(keys) == 10

    def test_mixed_sizes_rotates_spin_counts(self, load_config):
        mix = get_mix("mixed-sizes")
        spins = [
            mix.build(i, load_config).ising["model"]["n_spins"]
            for i in range(6)
        ]
        assert spins == [16, 24, 40, 16, 24, 40]
        # distinct seeds: distinct artifact keys even at equal size
        assert spec_artifact_key(
            mix.build(0, load_config)
        ) != spec_artifact_key(mix.build(3, load_config))

    def test_mix_seeds_do_not_collide_across_profiles(self, load_config):
        # each profile offsets seeds into its own band, so two mixes
        # running in one sweep never accidentally dedup to each other
        cold = get_mix("cache-cold").build(0, load_config)
        dedup = get_mix("dedup-heavy").build(0, load_config)
        assert spec_artifact_key(cold) != spec_artifact_key(dedup)
