"""Tests for :class:`repro.config.RunConfig`, the one validated run config."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import RunConfig
from repro.congest.clique import CongestedCliqueNetwork
from repro.congest.network import CongestNetwork
from repro.graphs.generators import path_graph
from repro.mpc.compile_congest import MPCCongestNetwork
from repro.mpc.parallel import WORKERS_ENV_VAR, resolve_workers
from repro.sweep.grids import named_grid


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, option",
        [
            ({"model": "quantum"}, "model"),
            ({"engine": "v9"}, "engine"),
            ({"engine": "activity"}, "engine"),
            ({"alpha": 0}, "alpha"),
            ({"alpha": -0.5}, "alpha"),
            ({"alpha": 2.5}, "alpha"),
            ({"model": "mpc", "compress": 0}, "compress"),
            ({"model": "mpc", "compress": "fast"}, "compress"),
            ({"model": "mpc", "compress": 2.0}, "compress"),
            ({"model": "mpc", "workers": 0}, "workers"),
            ({"model": "mpc", "faults": "bogus@1"}, "faults"),
            ({"model": "mpc", "faults": 3}, "faults"),
            # Model/option pairings.
            ({"compress": 2}, "compress"),
            ({"model": "clique-det", "compress": "auto"}, "compress"),
            ({"workers": 1}, "workers"),
            ({"model": "centralized", "workers": 2}, "workers"),
            ({"faults": "crash@1"}, "faults"),
            ({"model": "clique-rand", "faults": "crash@1"}, "faults"),
            ({"model": "mpc", "engine": "v2"}, "engine"),
            ({"model": "centralized", "engine": "v1"}, "engine"),
        ],
    )
    def test_invalid_raises_value_error_naming_option(self, kwargs, option):
        with pytest.raises(ValueError, match=option):
            RunConfig(**kwargs)

    def test_mpc_only_options_name_the_model(self):
        with pytest.raises(ValueError, match="requires --model mpc"):
            RunConfig("congest", compress=4)

    def test_bad_workers_env_is_rejected_for_mpc(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            RunConfig("mpc")


class TestResolution:
    def test_engine_canonicalized_for_congest_models(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "v1")
        assert RunConfig().engine == "v1"
        assert RunConfig("clique-det", engine=" V2-Dict ").engine == "v2-dict"

    def test_engineless_models_keep_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "v1")
        assert RunConfig("mpc").engine is None
        assert RunConfig("centralized").engine is None

    def test_workers_env_default_only_for_mpc(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert RunConfig("mpc").workers == 3
        assert RunConfig("mpc", workers=2).workers == 2
        assert RunConfig("congest").workers is None

    def test_frozen(self):
        config = RunConfig("mpc", alpha=0.9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.alpha = 0.5  # type: ignore[misc]


class TestNetwork:
    @pytest.mark.parametrize(
        "model, kind",
        [
            ("congest", CongestNetwork),
            ("clique-det", CongestedCliqueNetwork),
            ("clique-rand", CongestedCliqueNetwork),
            ("mpc", MPCCongestNetwork),
        ],
    )
    def test_network_matches_model(self, model, kind):
        network = RunConfig(model).network(path_graph(6), seed=3)
        assert type(network) is kind
        assert network.seed == 3

    def test_mpc_network_keeps_an_equal_config(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        config = RunConfig("mpc", alpha=0.9, compress="auto", faults="crash@1")
        network = config.network(path_graph(6))
        assert network.config == config
        assert network.workers == 1
        assert network.fault_injector is not None

    def test_centralized_has_no_network(self):
        with pytest.raises(ValueError, match="centralized"):
            RunConfig("centralized").network(path_graph(4))


# The values the sweep cell decoders (``_compress_of``, ``_workers_of``,
# ``_faults_of`` and each task's ``float(cell.param("alpha", ...))``)
# returned for every cell of the MPC named grids, in grid order:
# (compress, workers, faults, alpha).  ``workers=None`` meant "resolve
# REPRO_MPC_WORKERS", which RunConfig now does once.
_DECODED = {
    "mpc-smoke": [
        (1, None, None, 0.9),
        (1, None, None, 0.85),
        (1, None, None, 0.9),
        (1, None, None, 0.8),
        (1, None, None, 0.6),
        (1, None, None, 0.9),
    ],
    "mpc-chaos": [
        (1, 2, "crash@1", 0.9),
        (1, 2, "straggle@1:0.01,crash@3", 0.85),
        (1, 2, "crash@2,crash@4,max_recoveries=1", 0.9),
        (1, 2, "crash@2", 0.8),
    ],
    "mpc-compression-quick": [
        (1, None, None, 0.9),
        (2, None, None, 0.9),
        (4, None, None, 0.9),
        ("auto", None, None, 0.9),
        (1, None, None, 1.0),
        (2, None, None, 1.0),
        (4, None, None, 1.0),
        ("auto", None, None, 1.0),
    ],
}


class TestFromCell:
    @pytest.mark.parametrize("grid", sorted(_DECODED))
    def test_matches_the_deleted_decoders(self, grid, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        cells = named_grid(grid).cells
        assert len(cells) == len(_DECODED[grid])
        for cell, (compress, workers, faults, alpha) in zip(
            cells, _DECODED[grid]
        ):
            config = RunConfig.from_cell(cell)
            assert config.model == "mpc"
            assert config.compress == compress
            assert config.workers == resolve_workers(workers)
            assert config.faults == faults
            assert config.alpha == alpha
            assert type(config.alpha) is float

    def test_congest_cells_get_the_congest_model(self):
        cell = named_grid("smoke").cells[0]
        config = RunConfig.from_cell(cell)
        assert config.model == "congest"
        assert config.compress == 1 and config.faults is None
