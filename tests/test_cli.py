import json
import math

import numpy as np
import pytest

from rapidpp.cli import main

MMPP = {"type": "mmpp", "generator": [[-1, 1], [1, -1]], "rates": [0, 2], "initial_state": 0}
PERIODIC = {"type": "periodic", "breakpoints": [0, 0.5], "values": [2, 0]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#") or not line:
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return header, np.array(rows)


class TestAnalyze:
    def test_worked_example_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0, "tv_limit": True})
        assert main(["analyze", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda_star"] == pytest.approx(1.0, abs=1e-12)
        assert doc["sigma2"] == pytest.approx(1.0, abs=1e-10)
        assert doc["g"] == pytest.approx([-0.5, 0.5], abs=1e-10)
        assert doc["tv_limit"] == pytest.approx(1 - math.exp(-0.5), abs=1e-9)
        assert "config_sha256" in doc and doc["config"]["t"] == 1.0

    def test_constant_rates_give_zero_analags(self, tmp_path, capsys):
        model = dict(MMPP, rates=[2, 2])
        cfg = write_config(tmp_path, {"model": model, "tv_limit": True})
        assert main(["analyze", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sigma2"] == 0.0
        assert doc["g"] == [0.0, 0.0]
        assert doc["tv_limit"] == 0.0

    def test_eta2_present_with_service(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"model": MMPP, "t": 1.0, "service": {"type": "exponential", "rate": 1.0}},
        )
        assert main(["analyze", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eta2"] == pytest.approx(0.5 - 0.5 * math.exp(-2), abs=1e-9)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["analyze", "--config", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_non_mmpp_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"type": "constant", "rate": 1.0}})
        assert main(["analyze", "--config", cfg]) == 2


class TestExpand:
    def test_zero_eps_columns_match(self, tmp_path):
        out = str(tmp_path / "out.csv")
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0, "eps": 0.0})
        assert main(["expand", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        np.testing.assert_array_equal(rows[:, 1], rows[:, 2])

    def test_zero_eps_periodic_columns_match(self, tmp_path):
        out = str(tmp_path / "out.csv")
        doc = {"model": PERIODIC, "t": 1.0, "eps": 0.0}
        cfg = write_config(tmp_path, doc)
        assert main(["expand", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        np.testing.assert_array_equal(rows[:, 1], rows[:, 2])

    def test_worked_example_row(self, tmp_path):
        out = str(tmp_path / "out.csv")
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0, "eps": 0.1})
        assert main(["expand", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        assert rows[0, 1] == pytest.approx(0.3678794411714423, abs=1e-12)
        assert rows[0, 2] == pytest.approx(0.4046673852885866, abs=1e-12)

    def test_columns_sum_to_one(self, tmp_path):
        out = str(tmp_path / "out.csv")
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0, "eps": 0.1})
        main(["expand", "--config", cfg, "--out", out])
        _, rows = read_csv(out)
        with open(out) as fh:
            trunc = float(fh.read().split("truncation_mass: ")[1].splitlines()[0])
        for col in (1, 2):
            assert abs(rows[:, col].sum() - 1.0) <= 1e-10 + trunc

    def test_periodic_expansion(self, tmp_path):
        out = str(tmp_path / "out.csv")
        doc = {
            "model": {"type": "periodic", "breakpoints": [0, 0.5], "values": [2, 0]},
            "t": 1.0,
            "eps": 0.4,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["expand", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        assert rows[0, 2] == pytest.approx(0.8 * math.exp(-1), abs=1e-12)

    def test_queue_expansion(self, tmp_path):
        out = str(tmp_path / "out.csv")
        doc = {
            "model": MMPP,
            "service": {"type": "exponential", "rate": 1.0},
            "kind": "queue",
            "t": 1.0,
            "eps": 0.1,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["expand", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        assert rows[0, 2] == pytest.approx(0.5527277777897868, abs=1e-12)

    def test_missing_eps_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0})
        assert main(["expand", "--config", cfg]) == 2


class TestSimulate:
    def test_constant_sanity_and_determinism(self, tmp_path):
        doc = {
            "model": {"type": "constant", "rate": 1.0},
            "t": 1.0,
            "reps": 30_000,
            "master_seed": 4,
        }
        cfg = write_config(tmp_path, doc)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--out", out1]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        _, rows = read_csv(out1)
        k0 = rows[0]
        assert k0[2] <= math.exp(-1) <= k0[3]

    def test_seed_override_changes_output(self, tmp_path):
        doc = {"model": {"type": "constant", "rate": 1.0}, "reps": 20_000}
        cfg = write_config(tmp_path, doc)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["simulate", "--config", cfg, "--out", out1, "--seed", "1"])
        main(["simulate", "--config", cfg, "--out", out2, "--seed", "2"])
        assert open(out1).read() != open(out2).read()

    def test_queue_kind_without_service_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MMPP, "eps": 0.2, "reps": 100})
        assert main(["simulate", "--config", cfg, "--kind", "queue"]) == 2
        assert "service" in capsys.readouterr().err

    def test_zero_eps_cannot_be_simulated(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MMPP, "eps": 0.0, "reps": 100})
        assert main(["simulate", "--config", cfg]) == 2
        assert "eps" in capsys.readouterr().err

    def test_mmpp_queue_requires_eps(self, tmp_path, capsys):
        doc = {
            "model": MMPP,
            "service": {"type": "exponential", "rate": 1.0},
            "kind": "queue",
            "reps": 100,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 2
        assert "eps" in capsys.readouterr().err

    def test_periodic_without_eps_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": PERIODIC, "reps": 100})
        assert main(["simulate", "--config", cfg]) == 2
        assert "eps" in capsys.readouterr().err

    def test_queue_kind_runs(self, tmp_path):
        doc = {
            "model": MMPP,
            "service": {"type": "exponential", "rate": 1.0},
            "eps": 0.25,
            "t": 1.0,
            "reps": 20_000,
            "master_seed": 9,
        }
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "q.csv")
        assert main(["simulate", "--config", cfg, "--out", out, "--kind", "queue"]) == 0
        header, rows = read_csv(out)
        assert header == ["k", "p_hat", "ci_low", "ci_high", "p_poisson", "p_corrected"]
        assert abs(rows[:, 1].sum() - 1.0) < 0.01

    def test_periodic_and_renewal_models_run(self, tmp_path):
        for model in (
            {"type": "periodic", "breakpoints": [0, 0.5], "values": [2, 0]},
            {"type": "renewal_gamma", "shape": 2, "rate": 2},
        ):
            cfg = write_config(tmp_path, {"model": model, "eps": 0.25, "reps": 5_000})
            out = str(tmp_path / "m.csv")
            assert main(["simulate", "--config", cfg, "--out", out]) == 0


class TestValidate:
    def test_constant_rates_residuals_near_zero(self, tmp_path):
        model = dict(MMPP, rates=[1, 1])
        doc = {"model": model, "eps_grid": [0.5, 0.2], "t": 1.0, "reps": 20_000, "master_seed": 2}
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "report.json")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["config_sha256"]
        for entry in report["entries"]:
            assert entry["zeroth_order_residual"] < 3.5 * entry["zeroth_order_se"] + 1e-12

    def test_missing_grid_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MMPP, "eps": 0.2})
        assert main(["validate", "--config", cfg]) == 2


class TestTvLimit:
    def test_exact_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0})
        assert main(["tv-limit", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tv_limit_exact"] == pytest.approx(1 - math.exp(-0.5), abs=1e-9)
        assert "tv_limit_mc" not in doc

    def test_mc_included_when_reps_given(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0, "reps": 50_000})
        assert main(["tv-limit", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        mc = doc["tv_limit_mc"]
        assert abs(mc["estimate"] - doc["tv_limit_exact"]) < 3 * mc["se"]

    def test_too_few_mc_reps_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0})
        assert main(["tv-limit", "--config", cfg, "--reps", "99"]) == 2
        assert "reps" in capsys.readouterr().err

    def test_enumeration_guard_exits_4(self, tmp_path, capsys):
        q = np.full((7, 7), 1.0)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        model = {"type": "mmpp", "generator": q.tolist(), "rates": list(range(7))}
        cfg = write_config(tmp_path, {"model": model, "t": 1.0})
        assert main(["tv-limit", "--config", cfg]) == 4
        assert "guard" in capsys.readouterr().err
