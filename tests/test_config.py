import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidpp import ConfigError, CtmcModel, PeriodicIntensity, PoissonBase, RenewalGammaBase
from rapidpp.cli import main
from rapidpp.config import (
    MAX_KMAX,
    _number,
    _vector,
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


# Each bad entry as JSON text, and the message that names it.
BAD_ENTRIES = {
    "true": "expected a number, got True",
    '"1"': "expected a number, got '1'",
    "null": "expected a number, got None",
    "NaN": "expected a finite number",
    "Infinity": "expected a finite number",
    "1e400": "expected a finite number",
    "1" + "0" * 400: "expected a finite number",
    "[1]": "expected a number, got [1]",
}


class TestBadEntries:
    @pytest.mark.parametrize("entry", list(BAD_ENTRIES), ids=lambda e: e[:8])
    @pytest.mark.parametrize(
        "field, path", [("generator", "model.generator[1][2]"), ("rates", "model.rates[2]")]
    )
    def test_message_path_and_exit_code(self, tmp_path, capsys, entry, field, path):
        generator = "[[-2, 1, 1], [1, -2, 1], [1, 1, -2]]"
        rates = "[0, 1, 2]"
        if field == "generator":
            generator = generator.replace("[1, -2, 1]", f"[1, -2, {entry}]")
        else:
            rates = f"[0, 1, {entry}]"
        cfg = tmp_path / "cfg.json"
        model = f'{{"type": "mmpp", "generator": {generator}, "rates": {rates}}}'
        cfg.write_text(f'{{"model": {model}}}')
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: {BAD_ENTRIES[entry]}\n"

    @given(
        st.lists(
            st.one_of(st.integers(-(10**400), 10**400), st.floats(), st.booleans()), max_size=12
        )
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_vector_matches_the_entry_by_entry_check(self, row):
        try:
            expected = [_number(x, f"v[{i}]") for i, x in enumerate(row)]
        except ConfigError as exc:
            with pytest.raises(ConfigError) as info:
                _vector(row, "v")
            assert (str(info.value), info.value.path) == (str(exc), exc.path)
        else:
            got = _vector(row, "v")
            assert all(type(x) is float for x in got)
            assert [x.hex() for x in got] == [x.hex() for x in expected]


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

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="^top-level document must be an object$"):
            parse_experiment_config([1])

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
