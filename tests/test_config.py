import pytest

from rapidpp import ConfigError, CtmcModel, PeriodicIntensity, PoissonBase, RenewalGammaBase
from rapidpp.config import (
    MAX_KMAX,
    config_sha256,
    load_config_file,
    parse_experiment_config,
    parse_model,
    parse_service,
    resolved_config_dict,
)
from rapidpp.expansions import ErlangService, ExponentialService, UniformService

MMPP = {"type": "mmpp", "generator": [[-1, 1], [1, -1]], "rates": [0, 2], "initial_state": 0}


class TestParseModel:
    def test_mmpp(self):
        model = parse_model(MMPP)
        assert isinstance(model, CtmcModel)
        assert model.initial_state == 0

    def test_periodic(self):
        model = parse_model({"type": "periodic", "breakpoints": [0, 0.5], "values": [2, 0]})
        assert isinstance(model, PeriodicIntensity)
        assert model.average_rate == 1.0

    def test_constant_and_renewal(self):
        assert isinstance(parse_model({"type": "constant", "rate": 1.0}), PoissonBase)
        assert isinstance(
            parse_model({"type": "renewal_gamma", "shape": 2, "rate": 2}), RenewalGammaBase
        )

    def test_unknown_type_names_the_field(self):
        with pytest.raises(ConfigError) as err:
            parse_model({"type": "weird"})
        assert "model.type" in str(err.value)

    def test_bad_entry_names_the_cell(self):
        doc = {"type": "mmpp", "generator": [[-1, "x"], [1, -1]], "rates": [0, 2]}
        with pytest.raises(ConfigError) as err:
            parse_model(doc)
        assert "model.generator[0][1]" in str(err.value)

    def test_reducible_generator_reported(self):
        doc = {"type": "mmpp", "generator": [[-1, 1], [0, 0]], "rates": [0, 2]}
        with pytest.raises(ConfigError) as err:
            parse_model(doc)
        assert "strongly connected" in str(err.value)


class TestParseService:
    def test_all_kinds(self):
        assert isinstance(parse_service({"type": "exponential", "rate": 1.0}), ExponentialService)
        assert isinstance(parse_service({"type": "erlang", "shape": 2, "rate": 2.0}), ErlangService)
        assert isinstance(parse_service({"type": "uniform", "a": 0.0, "b": 2.0}), UniformService)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            parse_service({"type": "uniform", "a": 2.0, "b": 1.0})
        with pytest.raises(ConfigError):
            parse_service({"type": "erlang", "shape": 0, "rate": 1.0})


class TestExperimentConfig:
    def test_defaults_fill_in(self):
        cfg = parse_experiment_config({"model": MMPP, "eps": 0.2})
        assert cfg.reps == 100_000 and cfg.master_seed == 0 and cfg.workers == 1
        assert cfg.kind == "counts" and cfg.t == 1.0

    def test_queue_without_service_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_experiment_config({"model": MMPP, "kind": "queue", "eps": 0.2})
        assert "service" in str(err.value)

    def test_periodic_with_service_rejected(self):
        doc = {
            "model": {"type": "periodic", "breakpoints": [0, 0.5], "values": [2, 0]},
            "service": {"type": "exponential", "rate": 1.0},
        }
        with pytest.raises(ConfigError):
            parse_experiment_config(doc)

    def test_eps_and_grid_are_exclusive(self):
        with pytest.raises(ConfigError):
            parse_experiment_config({"model": MMPP, "eps": 0.1, "eps_grid": [0.4, 0.2]})

    def test_grid_must_decrease(self):
        with pytest.raises(ConfigError):
            parse_experiment_config({"model": MMPP, "eps_grid": [0.2, 0.4]})

    def test_kmax_is_capped(self):
        assert parse_experiment_config({"model": MMPP, "kmax": MAX_KMAX}).kmax == MAX_KMAX
        with pytest.raises(ConfigError) as err:
            parse_experiment_config({"model": MMPP, "kmax": MAX_KMAX + 1})
        assert err.value.path == "kmax"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_experiment_config({"model": MMPP, "eps": 0.2, "repz": 5})

    def test_resolved_config_excludes_execution_fields(self):
        cfg = parse_experiment_config(
            {"model": MMPP, "eps": 0.2, "workers": 8, "out": "x.csv"}
        )
        doc = resolved_config_dict(cfg)
        assert "workers" not in doc and "out" not in doc
        cfg1 = parse_experiment_config({"model": MMPP, "eps": 0.2, "workers": 1})
        assert config_sha256(cfg) == config_sha256(cfg1)


class TestLoadConfigFile:
    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{broken\n")
        with pytest.raises(ConfigError) as err:
            load_config_file(str(path))
        assert "line 1" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config_file("/nonexistent/config.json")
