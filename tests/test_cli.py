import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rapidpp
from rapidpp import ExperimentSpec, cli, poisson_pmf
from rapidpp.cli import main

from gof import chi_square_gof

MMPP = {"type": "mmpp", "generator": [[-1, 1], [1, -1]], "rates": [0, 2], "initial_state": 0}
PERIODIC = {"type": "periodic", "breakpoints": [0, 0.5], "values": [2, 0]}
RENEWAL = {"type": "renewal_gamma", "shape": 2, "rate": 2}
CONSTANT = {"type": "constant", "rate": 1.0}


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

    def test_eta2_short_service_long_horizon(self, tmp_path, capsys):
        # sigma2 = 1, so eta2 = integral of e^{-100 s} over [0, 1000] = 0.01
        cfg = write_config(
            tmp_path,
            {"model": MMPP, "t": 1000.0, "service": {"type": "exponential", "rate": 50.0}},
        )
        assert main(["analyze", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eta2"] == pytest.approx(0.01, rel=0, abs=1e-12)

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

    def test_queue_expansion_short_service_long_horizon(self, tmp_path):
        # m = 0.05, S(t) = 0 and eta2 = 0.03125, so at k = 1
        # p_corrected = 0.05 e^-0.05 (1 + 0.1 * (-19.5) * 0.03125)
        out = str(tmp_path / "out.csv")
        doc = {
            "model": MMPP,
            "service": {"type": "erlang", "shape": 2, "rate": 40.0},
            "kind": "queue",
            "t": 1000.0,
            "eps": 0.1,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["expand", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        assert np.all(rows[:, 2] != rows[:, 1])
        expected = 0.05 * math.exp(-0.05) * (1 - 0.1 * 19.5 * 0.03125)
        assert rows[1, 2] == pytest.approx(expected, rel=1e-12)
        assert rows[1, 2] == pytest.approx(0.04466, abs=1e-5)

    def test_missing_eps_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0})
        assert main(["expand", "--config", cfg]) == 2

    def test_constant_without_eps_runs_at_any_eps(self, tmp_path):
        # a constant rate has no speed parameter, so eps is neither needed nor used
        constant = {"type": "constant", "rate": 1.5}
        bare = write_config(tmp_path, {"model": constant, "t": 1.0}, "bare.json")
        given = write_config(tmp_path, {"model": constant, "t": 1.0, "eps": 0.2}, "given.json")
        out_bare, out_given = str(tmp_path / "bare.csv"), str(tmp_path / "given.csv")
        assert main(["expand", "--config", bare, "--out", out_bare]) == 0
        assert main(["expand", "--config", given, "--out", out_given]) == 0
        header, rows = read_csv(out_bare)
        assert header == ["k", "p_poisson", "p_corrected"]
        np.testing.assert_array_equal(rows, read_csv(out_given)[1])


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

    def test_overflowing_last_entry_exits_2_before_any_chunk(self, tmp_path, capsys, monkeypatch):
        chunks = []
        sample = ExperimentSpec.sample_counts

        def counting(spec, size, rng):
            chunks.append(spec.eps)
            return sample(spec, size, rng)

        monkeypatch.setattr(ExperimentSpec, "sample_counts", counting)
        doc = {"model": MMPP, "t": 1.0, "eps_grid": [0.5, 1e-320], "reps": 100}
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 2
        assert "eps_grid: " in capsys.readouterr().err
        assert chunks == []


    @pytest.mark.parametrize("reps", [1, 2])
    def test_queue_with_too_few_reps_exits_2(self, tmp_path, capsys, reps):
        # a residual se needs reps − 2 > 0; one rep used to report an se of 0
        doc = {"model": MMPP, "kind": "queue", "service": {"type": "erlang", "shape": 2, "rate": 2},
               "t": 1.0, "eps_grid": [0.2], "reps": reps}
        out = tmp_path / "report.json"
        assert main(["validate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert "config error: reps: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"model": PERIODIC},
            {"model": CONSTANT},
            {"model": RENEWAL},
            {"model": CONSTANT, "kind": "queue", "service": {"type": "exponential", "rate": 1.0}},
        ],
        ids=["periodic", "constant", "renewal", "constant-queue"],
    )
    def test_every_model_type_is_studied(self, tmp_path, doc):
        doc = {**doc, "t": 1.0, "eps_grid": [0.5, 0.2], "reps": 2_000, "master_seed": 3}
        out = tmp_path / "report.json"
        assert main(["validate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [entry["eps"] for entry in report["entries"]] == [0.5, 0.2]

    def test_periodic_first_order_is_no_worse(self, tmp_path):
        # t/eps is not a whole number of periods, so the zeroth-order residual is resolved
        doc = {"model": PERIODIC, "t": 1.0, "eps_grid": [0.3, 0.15], "reps": 100_000,
               "master_seed": 5}
        out = tmp_path / "report.json"
        assert main(["validate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        entries = json.loads(out.read_text())["entries"]
        assert entries[0]["zeroth_order_residual"] > 10 * entries[0]["zeroth_order_se"]
        for entry in entries:
            slack = 3 * (entry["zeroth_order_se"] + entry["first_order_se"])
            assert entry["first_order_residual"] <= entry["zeroth_order_residual"] + slack


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

    def test_reps_guard_exits_4_before_any_draw(self, tmp_path):
        # 2**40 reps would take about 24 TiB
        out = tmp_path / "out.json"
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0})
        proc = run_python("-m", "rapidpp", "tv-limit", "--config", cfg, "--out", str(out),
                          "--reps", "1099511627776")
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == "guard violation: 1099511627776 Monte Carlo reps > 16777216\n"
        assert not out.exists()

    @staticmethod
    def _seven_states(t):
        q = np.full((7, 7), 1.0)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return {"model": {"type": "mmpp", "generator": q.tolist(), "rates": list(range(7))}, "t": t}

    def test_seven_states_answered(self, tmp_path, capsys):
        # once beyond the enumeration's state cap
        cfg = write_config(tmp_path, self._seven_states(1.0))
        assert main(["tv-limit", "--config", cfg, "--reps", "200000", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        mc = doc["tv_limit_mc"]
        assert abs(mc["estimate"] - doc["tv_limit_exact"]) <= 3 * mc["se"] + 1e-10

    def test_enumeration_guard_exits_4(self, tmp_path, capsys):
        # rates 0..6 at t = 200: the product grid exceeds MAX_TV_TERMS
        cfg = write_config(tmp_path, self._seven_states(200.0))
        assert main(["tv-limit", "--config", cfg]) == 4
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, field", [("tv-limit", "tv_limit_exact"), ("analyze", "tv_limit")]
    )
    def test_tiny_truncation_mass(self, tmp_path, capsys, command, field):
        # below about 5.6e-17 the Poisson quantile at 1 - truncation_mass is infinite
        doc = {"model": MMPP, "t": 1.0, "tv_limit": True, "truncation_mass": 1e-20}
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out[field] == pytest.approx(-math.expm1(-0.5), abs=1e-12)


class TestOutputDestination:
    DOC = {"model": MMPP, "t": 1.0, "eps": 0.2}

    def test_config_out_field_names_the_file(self, tmp_path, capsys):
        target = tmp_path / "from_config.csv"
        cfg = write_config(tmp_path, dict(self.DOC, out=str(target)))
        assert main(["expand", "--config", cfg]) == 0
        assert capsys.readouterr().out == ""
        # "out" is left out of the embedded config, so the bytes match stdout
        plain = write_config(tmp_path, self.DOC, "plain.json")
        assert main(["expand", "--config", plain]) == 0
        assert target.read_text() == capsys.readouterr().out

    def test_out_flag_overrides_config_out(self, tmp_path, capsys):
        from_config = tmp_path / "from_config.csv"
        from_flag = tmp_path / "from_flag.csv"
        cfg = write_config(tmp_path, dict(self.DOC, out=str(from_config)))
        assert main(["expand", "--config", cfg, "--out", str(from_flag)]) == 0
        assert capsys.readouterr().out == ""
        assert from_flag.exists() and not from_config.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("target", ["missing/out.csv", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_exits_2_naming_out(self, tmp_path, capsys, where, target):
        out = str(tmp_path / target)
        if where == "flag":
            argv = ["expand", "--config", write_config(tmp_path, self.DOC), "--out", out]
        else:
            argv = ["expand", "--config", write_config(tmp_path, dict(self.DOC, out=out))]
        assert main(argv) == 2
        assert "out: cannot open for writing" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_unwritable_out_fails_before_the_monte_carlo(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("estimate_pmf was called")

        monkeypatch.setattr(cli, "estimate_pmf", refuse)
        cfg = write_config(tmp_path, dict(self.DOC, reps=1000))
        out = str(tmp_path / "missing" / "out.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        assert "out: cannot open for writing" in capsys.readouterr().err

    def test_failed_command_leaves_out_as_it_was(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MMPP, "eps": 0.2})  # validate needs eps_grid
        existing = tmp_path / "existing.json"
        existing.write_text("earlier output")
        fresh = tmp_path / "fresh.json"
        for target in (existing, fresh):
            assert main(["validate", "--config", cfg, "--out", str(target)]) == 2
        assert existing.read_text() == "earlier output"
        assert not fresh.exists()


class TestNonFiniteNumbers:
    """json.loads reads NaN, Infinity and integers too long for a float;
    every number field must reject them."""

    CASES = {
        "t": ({"model": MMPP, "eps": 0.5}, lambda doc, v: doc.update(t=v)),
        "model.rate": (
            {"model": {"type": "constant", "rate": 1.0}},
            lambda doc, v: doc["model"].update(rate=v),
        ),
        "model.shape": (
            {"model": {"type": "renewal_gamma", "shape": 2, "rate": 2}, "eps": 0.5},
            lambda doc, v: doc["model"].update(shape=v),
        ),
        "model.breakpoints[1]": (
            {"model": PERIODIC, "eps": 0.5},
            lambda doc, v: doc["model"].update(breakpoints=[0, v]),
        ),
        "service.rate": (
            {"model": MMPP, "eps": 0.5, "kind": "queue",
             "service": {"type": "exponential", "rate": 1.0}},
            lambda doc, v: doc["service"].update(rate=v),
        ),
        "service.b": (
            {"model": MMPP, "eps": 0.5, "kind": "queue",
             "service": {"type": "uniform", "a": 0.0, "b": 2.0}},
            lambda doc, v: doc["service"].update(b=v),
        ),
    }

    @pytest.mark.parametrize("command", ["expand", "simulate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge"])
    @pytest.mark.parametrize("field", list(CASES))
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, value, field):
        base, set_value = self.CASES[field]
        doc = json.loads(json.dumps(base))
        set_value(doc, value)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg]) == 2
        assert f"{field}: " in capsys.readouterr().err


class TestOverflowingRenewalRate:
    @pytest.mark.parametrize("command", ["expand", "simulate"])
    @pytest.mark.parametrize("shape, rate", [(1e-310, 1), (1e-300, 1e10)])
    def test_exits_2_at_model(self, tmp_path, capsys, command, shape, rate):
        # rate/shape is inf: the long-run rate, and so every mean, would be too
        model = {"type": "renewal_gamma", "shape": shape, "rate": rate}
        cfg = write_config(tmp_path, {"model": model, "eps": 0.5, "reps": 100})
        assert main([command, "--config", cfg]) == 2
        assert "model: " in capsys.readouterr().err


class TestRenewalTableGuard:
    @pytest.mark.parametrize(
        "shape, rate, eps",
        [(2, 2, 1e-300), (2, 2, 1e-320), (0.01, 1, 1e-12)],
        ids=["huge-horizon", "infinite-horizon", "huge-table"],
    )
    def test_exits_4(self, tmp_path, capsys, shape, rate, eps):
        model = {"type": "renewal_gamma", "shape": shape, "rate": rate}
        cfg = write_config(tmp_path, {"model": model, "t": 1.0, "eps": eps, "reps": 100})
        assert main(["simulate", "--config", cfg]) == 4
        assert "renewal CDF table" in capsys.readouterr().err


def run_python(*args):
    """Run this interpreter on this checkout's sources, in a child a timeout can stop."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def run_child(command, cfg, out):
    """Run the CLI in a child process that a timeout can stop."""
    return run_python("-m", "rapidpp", command, "--config", cfg, "--out", str(out))


class TestExtremeEps:
    QUEUE = {"service": {"type": "exponential", "rate": 1.0}, "kind": "queue"}

    @pytest.mark.parametrize(
        "command, extra, field",
        [
            ("simulate", {"eps": 1e-320}, "eps"),
            ("simulate", dict(QUEUE, eps=1e-320), "eps"),
            ("validate", {"eps_grid": [0.5, 1e-320]}, "eps_grid"),
            ("simulate", {"model": PERIODIC, "eps": 1e-320}, "eps"),
            # the periodic correction reads the fractional period of t/eps
            ("expand", {"model": PERIODIC, "eps": 1e-320}, "eps"),
        ],
        ids=["counts", "queue", "validate", "periodic", "periodic-expand"],
    )
    def test_infinite_horizon_exits_2(self, tmp_path, command, extra, field):
        # t/eps is inf: the segment rounds would never reach the horizon, so
        # the command runs in a child that a timeout can stop.
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0, "reps": 100, **extra})
        out = tmp_path / "out"
        proc = run_child(command, cfg, out)
        assert proc.returncode == 2, proc.stderr
        assert f"{field}: " in proc.stderr
        assert not out.exists()

    def test_mmpp_expand_needs_no_horizon(self, tmp_path):
        # The count correction is eps times terms in t alone: at eps 1e-320
        # it rounds away, and both columns are the Poisson baseline.
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0, "eps": 1e-320})
        out = str(tmp_path / "expand.csv")
        assert main(["expand", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        assert np.array_equal(rows[:, 1], rows[:, 2])

    def test_segment_walk_guard_exits_4(self, tmp_path):
        # t/eps = 1e300 is finite, but the queue's walk would take about 1e300
        # rounds: it is refused before the first draw, in a child a timeout can stop.
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0, "reps": 100,
                                      **self.QUEUE, "eps": 1e-300})
        out = tmp_path / "out"
        proc = run_child("simulate", cfg, out)
        assert proc.returncode == 4, proc.stderr
        assert "segment walk" in proc.stderr
        assert not out.exists()

    def test_beyond_double_precision_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0, "eps": 1e-300, "reps": 100})
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert "double precision" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_eps_is_answered(self, tmp_path):
        # At eps 1e-16 the count is Poisson(lambda* t) to within 1e-16; a
        # plain expm table would have lost 40% of its mass here.
        doc = {"model": MMPP, "t": 1.0, "eps": 1e-16, "reps": 200_000, "master_seed": 3}
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "tiny.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        counts = np.rint(rows[:, 1] * doc["reps"]).astype(np.int64)
        assert counts.sum() == doc["reps"]
        assert chi_square_gof(counts, poisson_pmf(1.0)).p_value > 1e-3


class TestHugeKmax:
    @pytest.mark.parametrize("command", ["expand", "simulate"])
    def test_exits_2_naming_kmax(self, tmp_path, command):
        # a 10**13-entry pmf column would need 73 TiB
        cfg = write_config(tmp_path, {"model": MMPP, "eps": 0.5, "reps": 100, "kmax": 10**13})
        out = tmp_path / "out"
        proc = run_child(command, cfg, out)
        assert proc.returncode == 2, proc.stderr
        assert "kmax: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestHugeMeans:
    CONSTANT = {"type": "constant", "rate": 1.0}

    @pytest.mark.parametrize(
        "command, doc",
        [
            # pdtrik gives no Poisson quantile from mean 1e12 up
            ("expand", {"model": MMPP, "t": 1e13, "eps": 0.5}),
            ("simulate", {"model": MMPP, "t": 1e13, "eps": 0.5}),
            ("validate", {"model": MMPP, "t": 1e13, "eps_grid": [0.5, 0.2]}),
            ("tv-limit", {"model": MMPP, "t": 1e13}),
            ("analyze", {"model": MMPP, "t": 1e13, "tv_limit": True}),
            # a 3,012,193-row column of zeros
            ("expand", {"model": MMPP, "t": 3e6, "eps": 0.5}),
            # numpy's Poisson sampler stops at about 9.2e18
            ("simulate", {"model": CONSTANT, "t": 1e19, "kmax": 10}),
            ("simulate", {"model": PERIODIC, "t": 1e19, "eps": 1.0, "kmax": 10}),
        ],
        ids=["expand", "simulate", "validate", "tv-limit", "analyze", "default-kmax",
             "constant-sampler", "periodic-sampler"],
    )
    def test_exits_4(self, tmp_path, command, doc):
        cfg = write_config(tmp_path, {"reps": 100, **doc})
        out = tmp_path / "out"
        proc = run_child(command, cfg, out)
        assert proc.returncode == 4, proc.stderr
        assert "guard violation: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_overflowing_square_of_the_mean_gives_the_zero_pmf(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1e200, "eps": 0.5, "kmax": 10})
        out = tmp_path / "out.csv"
        proc = run_child("expand", cfg, out)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "# truncation_mass: 1.0\n" in out.read_text()
        _, rows = read_csv(out)
        assert rows.shape == (11, 3) and not rows[:, 1:].any()

    @pytest.mark.parametrize(
        "doc",
        [
            {"model": {"type": "constant", "rate": 10}, "t": 1e308, "kmax": 10},
            {"model": dict(PERIODIC, values=[4, 0]), "t": 1e308, "eps": 1.0, "kmax": 10},
        ],
        ids=["constant", "periodic"],
    )
    def test_infinite_mean_gives_the_zero_pmf(self, tmp_path, doc):
        # the mean rate * t overflows to inf
        out = tmp_path / "out.csv"
        proc = run_child("expand", write_config(tmp_path, doc), out)
        assert proc.returncode == 0, proc.stderr
        assert "# truncation_mass: 1.0\n" in out.read_text()
        _, rows = read_csv(out)
        assert rows.shape == (11, 3) and not rows[:, 1:].any()

    def test_huge_drawn_counts_share_one_overflow_bin(self, tmp_path):
        # Poisson(1e8) draws: one bin per drawn count would take about 800 MiB
        doc = {"model": {"type": "constant", "rate": 1e-300}, "t": 1e308, "eps": 1, "kmax": 5,
               "reps": 3}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        # A process's ru_maxrss counts the RSS of the process it was forked from, so the
        # CLI runs as the child of a small interpreter that reports its children's peak.
        argv = [sys.executable, "-m", "rapidpp", "simulate", "--config", cfg, "--out", str(out)]
        code = (
            "import resource, subprocess, sys\n"
            f"rc = subprocess.run({argv!r}).returncode\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
            "sys.exit(rc)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100 * 1024  # ru_maxrss is in KiB
        _, rows = read_csv(out)
        assert rows.shape[0] == 6 and not rows[:, 1].any()


class TestFirstOrderOverflow:
    QUEUE = {"model": MMPP, "t": 1.0, "eps": 0.5, "kind": "queue"}

    @pytest.mark.parametrize(
        "doc, corrected",
        [
            # k/m and m^2 leave double range at a tiny mean; the differences of P0 do not
            ({"model": MMPP, "t": 1e-300, "eps": 0.5}, [1.25]),
            ({"model": MMPP, "t": 1e-160, "eps": 0.5, "kmax": 3}, [1.25, -0.25, 0.0, 0.0]),
            (dict(QUEUE, service={"type": "exponential", "rate": 1e300}), [1.0]),
            (dict(QUEUE, service={"type": "uniform", "a": 0, "b": 1e-300}), [1.0]),
            ({"model": PERIODIC, "t": 1e-310, "eps": 0.5, "kmax": 3}, [1.0, 0.0, 0.0, 0.0]),
        ],
        ids=["expand", "expand-kmax-3", "queue-exponential", "queue-uniform", "periodic"],
    )
    def test_tiny_mean_is_answered(self, tmp_path, doc, corrected):
        # entries below 1e-300 (5e-321 at k = 2 of expand-kmax-3, say) compare as 0
        out = tmp_path / "out.csv"
        proc = run_child("expand", write_config(tmp_path, doc), out)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        header, rows = read_csv(out)
        assert header == ["k", "p_poisson", "p_corrected"]
        assert rows[:, 2].tolist() == pytest.approx(corrected, rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize(
        "command, doc",
        [
            # the count table at t/eps = 2e-300 needs generator entries below double precision
            ("simulate", {"model": MMPP, "t": 1e-300, "eps": 0.5}),
            ("validate", {"model": MMPP, "t": 1e-300, "eps_grid": [0.5, 0.2]}),
            # an infinite mean times an infinite excess
            ("expand", {"model": dict(MMPP, rates=[0, 10]), "t": 1e308, "eps": 0.5, "kmax": 5}),
        ],
        ids=["simulate", "validate", "infinite-mean"],
    )
    def test_exits_3(self, tmp_path, command, doc):
        cfg = write_config(tmp_path, {"reps": 100, **doc})
        out = tmp_path / "out"
        proc = run_child(command, cfg, out)
        assert proc.returncode == 3, proc.stderr
        assert "numerical failure: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()


class TestUnderflowedMean:
    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("expand", {"model": dict(MMPP, rates=[0, 1]), "t": 5e-324, "eps": 0.5},
             "lambda_star * t must be positive"),
            ("simulate", {"model": dict(MMPP, rates=[0, 1]), "t": 5e-324, "eps": 0.5},
             "lambda_star * t must be positive"),
            ("validate", {"model": dict(MMPP, rates=[0, 1]), "t": 5e-324, "eps_grid": [0.5]},
             "lambda_star * t must be positive"),
            ("expand", {"model": dict(PERIODIC, values=[1, 0]), "t": 5e-324, "eps": 0.5},
             "average rate times t must be positive"),
        ],
        ids=["expand", "simulate", "validate", "periodic"],
    )
    def test_exits_3(self, tmp_path, command, doc, message):
        # lambda_star = 1/2 times the smallest subnormal rounds to 0
        cfg = write_config(tmp_path, {"reps": 100, **doc})
        out = tmp_path / "out"
        proc = run_child(command, cfg, out)
        assert proc.returncode == 3, proc.stderr
        assert f"numerical failure: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestNonFiniteJson:
    DOC = {"model": dict(MMPP, rates=[0, 1e308]), "t": 1.0}

    def test_analyze_exits_3_naming_sigma2(self, tmp_path):
        # lambda_star 5e307 and g are finite, but sigma2 = 2 sum pi f_c g overflows
        out = tmp_path / "out.json"
        proc = run_child("analyze", write_config(tmp_path, self.DOC), out)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "numerical failure: sigma2 is not finite\n"
        assert not out.exists()

    def test_analyze_in_process_raises_no_warning(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.DOC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma2" in captured.err

    def test_tv_limit_needs_no_sigma2(self, tmp_path):
        out = tmp_path / "out.json"
        proc = run_child("tv-limit", write_config(tmp_path, self.DOC), out)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("guard violation: ")
        assert not out.exists()


class TestLargeErlangShape:
    def test_analyze_gives_a_finite_eta2(self, tmp_path, capsys):
        # survival is 1 on [0, t], so eta2 = sigma2 t = 1
        service = {"type": "erlang", "shape": 3000, "rate": 1.0}
        cfg = write_config(tmp_path, {"model": MMPP, "t": 1.0, "service": service})
        assert main(["analyze", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["eta2"] == pytest.approx(1.0, rel=1e-12)

    def test_queue_expand_succeeds(self, tmp_path):
        service = {"type": "erlang", "shape": 1000, "rate": 1000.0}
        doc = {"model": MMPP, "t": 1.0, "eps": 0.5, "kind": "queue", "service": service}
        out = str(tmp_path / "expand.csv")
        assert main(["expand", "--config", write_config(tmp_path, doc), "--out", out]) == 0
        _, rows = read_csv(out)
        assert np.all(np.isfinite(rows))

    def test_queue_validate_succeeds(self, tmp_path):
        # above the exact-mean block cap the estimate runs without its control variate
        service = {"type": "erlang", "shape": 3000, "rate": 3000.0}
        doc = {"model": MMPP, "t": 1.0, "eps_grid": [0.5, 0.2], "kind": "queue",
               "service": service, "reps": 2_000}
        out = str(tmp_path / "report.json")
        assert main(["validate", "--config", write_config(tmp_path, doc), "--out", out]) == 0
        for entry in json.loads(open(out).read())["entries"]:
            assert np.isfinite(entry["first_order_residual"]) and entry["first_order_se"] > 0


def test_import_loads_no_scipy_stats():
    # scipy.stats takes about half a second to import; rapidpp needs only scipy.special
    # and scipy.linalg, so no other public subpackage may load either
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m, mod in list(sys.modules.items()) if m.count('.') == 1\n"
        "                  and m.startswith('scipy.') and not m.startswith('scipy._')\n"
        "                  and hasattr(mod, '__path__'))\n"
        "import rapidpp\n"
        "print(loaded())\n"
        "import rapidpp.cli\n"
        "print(loaded())\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    subpackages = str(["scipy.linalg", "scipy.special"])
    assert proc.stdout.split("\n") == [subpackages, subpackages, ""]


def test_import_boundary():
    # the environment layer runs on numpy alone, and no module sets the process-wide
    # warning filters, so chunk threads may call anything
    imported = {}
    for path in sorted(Path(rapidpp.__file__).parent.glob("*.py")):
        tops = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops.add(node.module.split(".")[0])
        imported[path.name] = tops
    assert "scipy" not in imported["markov_env.py"]
    assert [name for name, tops in imported.items() if "warnings" in tops] == []


# sigma2 = 2 sum pi f_c g meets an inf and a -inf term on this model, so it is NaN
NAN_SIGMA2 = {"type": "mmpp", "generator": [[-1000003, 3, 1e6], [1, -1000001, 1e6], [1, 1, -2]],
              "rates": [1, 1e300, 2]}
NAN_QUEUE = {"model": NAN_SIGMA2, "service": {"type": "exponential", "rate": 1.0},
             "kind": "queue", "t": 1e-300, "reps": 100}
NAN_COMMANDS = [("analyze", {}), ("expand", {"eps": 0.5}), ("simulate", {"eps": 0.5}),
                ("validate", {"eps_grid": [0.5, 0.25]})]
# validate with no baseline bin at or above 1e-4: by an explicit kmax, and (rate 20 at
# t = 50) by a default-kmax baseline whose e^-1000 underflows to zero
NO_BASELINE_BIN = {"model": dict(MMPP, rates=[0, 20]), "t": 1.0, "eps_grid": [0.5], "kmax": 0,
                   "reps": 100}
UNDERFLOWED_BASELINE = {"model": {"type": "mmpp", "generator": [[0]], "rates": [20]},
                        "t": 50.0, "eps_grid": [0.5], "reps": 100}

# Two generators from a fuzz over off-diagonal rates 10^U(-300, 300).  On SINGULAR_G the g
# solve meets an exactly zero pivot; on SUBNORMAL_LAMBDA pi = (1.48e-311, 1), so
# lambda_star = 1.48e-311 and the rate ratio rates[0] / lambda_star passes the largest double.
SINGULAR_G = {"type": "mmpp", "rates": [1, 0.5, 2], "generator": [
    [-3.102650262030696e+89, 3.102650262030696e+89, 4.579338463350663e-59],
    [3.9642084446920263e-231, -3.9642084446920263e-231, 0.0],
    [11593.1635103564, 0.0, -11593.1635103564]]}
SUBNORMAL_LAMBDA = {"type": "mmpp", "rates": [1, 0], "generator": [
    [-2.7766894233684487e+136, 2.7766894233684487e+136],
    [4.1096006747559125e-175, -4.1096006747559125e-175]]}


def run_quietly(command, cfg, out, capsys):
    """``main`` in process with every warning an error; returns (exit code, stderr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


class TestNanSigma2:
    @pytest.mark.parametrize("command, extra", NAN_COMMANDS, ids=[c for c, _ in NAN_COMMANDS])
    def test_queue_exits_3_naming_sigma2(self, tmp_path, capsys, command, extra):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {**NAN_QUEUE, **extra})
        assert run_quietly(command, cfg, out, capsys) == (
            3, "numerical failure: sigma2 is not a number\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, code, message",
        [("analyze", 3, "numerical failure: sigma2 is not finite\n"),
         ("tv-limit", 4,
          "guard violation: the Poisson quantile at mean 1e+288 is not computable\n")],
        ids=["analyze", "tv-limit"],
    )
    def test_without_a_service_keeps_its_exit(self, tmp_path, capsys, command, code, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"model": NAN_SIGMA2, "t": 1.0})
        assert run_quietly(command, cfg, out, capsys) == (code, message)
        assert not out.exists()


class TestExtremeGenerators:
    @pytest.mark.parametrize("command", ["analyze", "expand", "tv-limit"])
    def test_singular_g_solve_exits_3_with_one_line(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"model": SINGULAR_G, "t": 1.0, "eps": 0.1})
        assert run_quietly(command, cfg, out, capsys) == (
            3, "numerical failure: the deviation (g) solve is singular or leaves double range\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "tv-limit"])
    def test_subnormal_lambda_star_tv_limit_exits_3_with_one_line(self, tmp_path, capsys, command):
        # the limit is at most lambda_star t = 1.5e-311; the ratio used to give 1.0
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"model": SUBNORMAL_LAMBDA, "t": 1.0, "tv_limit": True})
        assert run_quietly(command, cfg, out, capsys) == (
            3, "numerical failure: rate ratios to lambda_star = 1.48e-311 leave double range\n"
        )
        assert not out.exists()

    def test_subnormal_lambda_star_expansion_needs_no_ratio(self, tmp_path, capsys):
        # at mean 1.5e-311 the count is 0 but for a chance below 1e-310
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, {"model": SUBNORMAL_LAMBDA, "t": 1.0, "eps": 0.1})
        assert run_quietly("expand", cfg, out, capsys) == (0, "")
        assert read_csv(out)[1].tolist() == [[0.0, 1.0, 1.0]]


class TestValidateWithNoBaselineBin:
    def test_explicit_kmax_exits_2_before_any_chunk(self, tmp_path, capsys, monkeypatch):
        chunks = []
        monkeypatch.setattr(ExperimentSpec, "sample_counts", lambda *args: chunks.append(args))
        out = tmp_path / "report.json"
        code, err = run_quietly("validate", write_config(tmp_path, NO_BASELINE_BIN), out, capsys)
        assert (code, err) == (
            2, "config error: kmax: every count up to 0 has baseline probability below 0.0001\n"
        )
        assert chunks == [] and not out.exists()

    def test_underflowed_baseline_exits_3(self, tmp_path, capsys):
        # poisson_pmf's e^-mean underflows past mean 745 (the mean here is 1000)
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, UNDERFLOWED_BASELINE)
        assert run_quietly("validate", cfg, out, capsys) == (
            3, "numerical failure: the Poisson baseline underflows to zero\n"
        )
        assert not out.exists()


EXPAND = {"model": MMPP, "t": 1.0, "eps": 0.1}
# Each rejected document, and the stderr line it gives.
REJECTED = {
    "top-level": ([1], "top-level document must be an object"),
    "no-model": ({"t": 1}, "model: missing required field"),
    "no-rate": ({"model": {"type": "constant"}}, "model.rate: missing required field"),
    "reps-not-integer": ({**EXPAND, "reps": 1.5}, "reps: expected an integer, got 1.5"),
    "no-rows": ({**EXPAND, "model": dict(MMPP, generator=[])},
                "model.generator: expected a non-empty list of rows"),
    "rates-not-list": ({**EXPAND, "model": dict(MMPP, rates="x")},
                       "model.rates: expected a list of numbers"),
    "model-not-object": ({**EXPAND, "model": 3}, "model: expected an object"),
    "service-not-object": ({**EXPAND, "service": 3}, "service: expected an object"),
    "poisson-alias": ({**EXPAND, "model": {"type": "poisson", "rate": 1.0}},
                      "model.type: unknown model type 'poisson'"),
    "service-type": ({**EXPAND, "service": {"type": "lognormal"}},
                     "service.type: unknown service type 'lognormal'"),
    "kind": ({**EXPAND, "kind": "paths"}, "kind: expected 'counts' or 'queue', got 'paths'"),
    "eps-grid": ({"model": MMPP, "eps_grid": [1.5, 0.1]}, "eps_grid: entries must lie in (0, 1]"),
    "eps-grid-order": ({"model": MMPP, "eps_grid": [0.1, 0.5]},
                       "eps_grid: entries must decrease strictly"),
    "t": ({**EXPAND, "t": -1}, "t: must be positive, got -1.0"),
    "eps": ({**EXPAND, "eps": 2}, "eps: must lie in [0, 1], got 2.0"),
    "eps-before-t": ({**EXPAND, "t": -1, "eps": 2}, "eps: must lie in [0, 1], got 2.0"),
    "reps": ({**EXPAND, "reps": 0}, "reps: reps must be at least 1"),
    "master-seed": ({**EXPAND, "master_seed": -1}, "master_seed: master_seed must be nonnegative"),
    "workers": ({**EXPAND, "workers": 0}, "workers: workers must be at least 1"),
    "tv-limit": ({**EXPAND, "tv_limit": 1}, "tv_limit: expected true or false"),
    "truncation-mass": ({**EXPAND, "truncation_mass": 1.0},
                        "truncation_mass: truncation_mass must lie in (0, 1)"),
    "out": ({**EXPAND, "out": 3}, "out: expected a string path"),
    "non-square": ({**EXPAND, "model": dict(MMPP, generator=[[-1, 1]])},
                   "model: rate matrix must be square, got shape (1, 2)"),
    "negative-off-diagonal": ({**EXPAND, "model": dict(MMPP, generator=[[1, -1], [1, -1]])},
                              "model: off-diagonal rate q[0][1] = -1.0 is negative"),
    "row-sum": ({**EXPAND, "model": dict(MMPP, generator=[[-1, 2], [1, -1]])},
                "model: row 0 sums to 1.000e+00, expected 0"),
    "reducible": ({**EXPAND, "model": dict(MMPP, generator=[[-1, 1], [0, 0]])},
                  "model: positive-rate graph is not strongly connected "
                  "(2 strongly connected components)"),
    "rates-shape": ({**EXPAND, "model": dict(MMPP, rates=[0, 2, 1])},
                    "model: rates must have shape (2,), got (3,)"),
    "initial-state": ({**EXPAND, "model": dict(MMPP, initial_state=2)},
                      "model: initial_state 2 out of range [0, 2)"),
    "negative-rate": ({**EXPAND, "model": dict(MMPP, rates=[-1, 2])},
                      "model: rates must be finite and nonnegative"),
    "negative-piece-rate": ({**EXPAND, "model": dict(PERIODIC, values=[2, -1])},
                            "model: piece rates must be finite and nonnegative"),
    "narrow-piece": ({**EXPAND, "model": dict(PERIODIC, breakpoints=[0, 0.9995])},
                     "model: piece widths must be at least 0.001"),
    "piece-count": ({**EXPAND, "model": dict(PERIODIC, values=[2])},
                    "model: breakpoints and values must be equal-length 1-d sequences"),
    **{
        f"erlang-shape-{name}": (
            {**EXPAND, "kind": "queue", "service": {"type": "erlang", "shape": shape, "rate": 1.0}},
            "service: shape must be an integer in [1, 1048576]",
        )
        # past the cap: 10^11 would need 1.5 TiB of arrays, 10^300 passes numpy's size limit,
        # and no double holds 10^400
        for name, shape in [("1e11", 10**11), ("1e300", 10**300), ("401-digits", 10**400)]
    },
    "periodic-queue": ({**EXPAND, "model": PERIODIC, "kind": "queue",
                        "service": {"type": "exponential", "rate": 1.0}},
                       "service: periodic models do not take a service spec"),
}


class TestRejectedConfig:
    @pytest.mark.parametrize("doc, message", list(REJECTED.values()), ids=list(REJECTED))
    def test_exits_2_with_its_message(self, tmp_path, capsys, doc, message):
        out = tmp_path / "out.csv"
        assert run_quietly("expand", write_config(tmp_path, doc), out, capsys) == (
            2, f"config error: {message}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra", [("expand", {"eps": 0.1}), ("simulate", {"eps": 0.1}),
                           ("validate", {"eps_grid": [0.5, 0.1]})],
    )
    def test_renewal_queue_exits_2(self, tmp_path, capsys, command, extra):
        doc = {"model": RENEWAL, "kind": "queue", "service": {"type": "exponential", "rate": 1.0},
               **extra}
        out = tmp_path / "out"
        assert run_quietly(command, write_config(tmp_path, doc), out, capsys) == (
            2, "config error: model: queue experiments require an mmpp or constant model\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "tv-limit"])
    def test_renewal_queue_needs_a_chain_first(self, tmp_path, capsys, command):
        doc = {"model": RENEWAL, "kind": "queue", "service": {"type": "exponential", "rate": 1.0}}
        out = tmp_path / "out"
        assert run_quietly(command, write_config(tmp_path, doc), out, capsys) == (
            2, "config error: model.type: this command requires an mmpp model\n"
        )

    def test_zero_long_run_rate_exits_3(self, tmp_path, capsys):
        # pi . f = 0.5 * 5e-324 rounds to zero
        cfg = write_config(tmp_path, {"model": dict(MMPP, rates=[5e-324, 0])})
        assert run_quietly("analyze", cfg, tmp_path / "out.json", capsys) == (
            3, "numerical failure: pi . f must be positive\n"
        )


# A small config grammar for the robustness property.  Values reach the extremes, with one
# out-of-range value in most lists, but a walk stays short: generator rates are at most 3,
# so a 3-state exit rate is at most 6, t/eps is at most 200 unless it passes the
# segment-walk guard (t 1e308, or eps 1e-300 and below), and reps are at most 100.
RATES = st.sampled_from([2.0, 0.5, 0.0, 7.0, 1e-300, 1e300])
T_VALUES = st.sampled_from([1.0, 0.05, 3.0, 20.0, 5e-324, 1e-300, 1e308, -1.0])
EPS_VALUES = st.sampled_from([0.5, 0.1, 0.25, 1.0, 0.0, 1e-300, 1e-320, 2.0])
EPS_GRIDS = st.sampled_from([[0.5, 0.25], [1.0], [0.5, 0.1], [0.5, 1e-300], [1e-320], [0.1, 0.5]])
KMAX_VALUES = st.sampled_from([None, 5, 0, 1, 2000, 2**20 + 1])
SERVICES = st.sampled_from([
    None,
    {"type": "exponential", "rate": 1e-3},
    {"type": "exponential", "rate": 1.0},
    {"type": "exponential", "rate": 1e3},
    {"type": "erlang", "shape": 1, "rate": 0.5},
    {"type": "erlang", "shape": 2, "rate": 2.0},
    {"type": "erlang", "shape": 40, "rate": 1e3},
    {"type": "uniform", "a": 0.0, "b": 0.5},
    {"type": "uniform", "a": 0.2, "b": 2.0},
    {"type": "uniform", "a": 2.0, "b": 3.0},
])


@st.composite
def mmpp_models(draw):
    n = draw(st.integers(1, 3))
    off = st.sampled_from([0.5, 3.0, 1e-3, 0.0])
    q = [[draw(off) if i != j else 0.0 for j in range(n)] for i in range(n)]
    for i, row in enumerate(q):
        row[i] = -sum(row)
    return {"type": "mmpp", "generator": q, "rates": [draw(RATES) for _ in range(n)],
            "initial_state": draw(st.integers(0, n - 1))}


MODELS = st.one_of(
    mmpp_models(),
    mmpp_models(),
    mmpp_models(),
    st.builds(lambda b, v, w: {"type": "periodic", "breakpoints": [0, b], "values": [v, w]},
              st.sampled_from([0.25, 0.5]), RATES, RATES),
    st.builds(lambda r: {"type": "constant", "rate": r}, RATES),
    st.builds(lambda k, r: {"type": "renewal_gamma", "shape": k, "rate": r},
              st.sampled_from([0.5, 2.0, 30.0]), st.sampled_from([1e-3, 2.0, 1e3])),
)


# Off-diagonal rates 10^U(-300, 300) on 2-4 states, for the commands that walk no
# segments: their solves and rate ratios meet pivots and ratios at the ends of double range.
@st.composite
def extreme_mmpp_models(draw):
    n = draw(st.integers(2, 4))
    off = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0**e), st.just(0.0))
    q = [[draw(off) if i != j else 0.0 for j in range(n)] for i in range(n)]
    for i, row in enumerate(q):
        row[i] = -sum(row)
    return {"type": "mmpp", "generator": q, "rates": [draw(RATES) for _ in range(n)],
            "initial_state": draw(st.integers(0, n - 1))}


@st.composite
def cli_runs(draw, commands=("analyze", "expand", "simulate", "validate", "tv-limit"),
             models=MODELS):
    command = draw(st.sampled_from(commands))
    doc = {"model": draw(models), "t": draw(T_VALUES), "reps": draw(st.sampled_from([100, 40, 3]))}
    service = draw(SERVICES)
    if service is not None:
        doc["service"] = service
        doc["kind"] = draw(st.sampled_from(["queue", "counts"]))
    if command == "validate":
        doc["eps_grid"] = draw(EPS_GRIDS)
    else:
        doc["eps"] = draw(EPS_VALUES)
    kmax = draw(KMAX_VALUES)
    if kmax is not None:
        doc["kmax"] = kmax
    if command == "analyze":
        doc["tv_limit"] = draw(st.booleans())
    return command, doc


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness")


class TestRobustness:
    @settings(derandomize=True, max_examples=1000, deadline=None, database=None)
    @given(cli_runs())
    @example(("validate", NO_BASELINE_BIN))
    @example(("validate", UNDERFLOWED_BASELINE))
    @example(("analyze", {"model": NAN_SIGMA2, "t": 1.0}))
    @example(("tv-limit", {"model": NAN_SIGMA2, "t": 1.0}))
    @example(("analyze", NAN_QUEUE))
    @example(("expand", {**NAN_QUEUE, "eps": 0.5}))
    @example(("simulate", {**NAN_QUEUE, "eps": 0.5}))
    @example(("validate", {**NAN_QUEUE, "eps_grid": [0.5, 0.25]}))
    def test_every_config_ends_in_a_known_exit(self, run_dir, run):
        # pytest turns any RuntimeWarning into an error, so a warning escapes as one too
        assert_known_exit(run_dir, *run)

    @settings(derandomize=True, max_examples=1000, deadline=None, database=None)
    @given(cli_runs(("analyze", "expand", "tv-limit"), extreme_mmpp_models()))
    @example(("analyze", {"model": SINGULAR_G, "t": 1.0}))
    @example(("expand", {"model": SINGULAR_G, "t": 1.0, "eps": 0.1}))
    @example(("tv-limit", {"model": SINGULAR_G, "t": 1.0}))
    @example(("analyze", {"model": SUBNORMAL_LAMBDA, "t": 1.0, "tv_limit": True}))
    @example(("tv-limit", {"model": SUBNORMAL_LAMBDA, "t": 1.0}))
    def test_every_extreme_generator_ends_in_a_known_exit(self, run_dir, run):
        assert_known_exit(run_dir, *run)


def assert_known_exit(run_dir, command, doc):
    cfg = write_config(run_dir, doc)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", cfg, "--out", str(run_dir / "out")])
    assert code in (0, 2, 3, 4)
