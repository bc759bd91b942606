"""File formats, ingestion contracts, CLI subcommands, report round-trips."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mixref as mx
from mixref import cli, io

from conftest import DATA


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


@pytest.fixture
def tiny_case(tmp_path):
    freqs = write(
        tmp_path, "freqs.csv",
        "marker,allele,frequency\n"
        "M1,8,0.3\nM1,9,0.3\nM1,10,0.4\n"
        "M2,8,0.5\nM2,9,0.5\n",
    )
    profiles = write(
        tmp_path, "profiles.csv",
        "individual,marker,allele1,allele2\n"
        "K1,M1,8,9\nK1,M2,8,9\n"
        "K2,M1,10,10\nK2,M2,9,9\n",
    )
    trace = write(
        tmp_path, "trace.csv",
        "trace_id,marker,allele,height\n"
        "T1,M1,8,420\nT1,M1,9,260\nT1,M1,10,300\n"
        "T1,M2,8,510\nT1,M2,9,660\n",
    )
    case = write(
        tmp_path, "case.json",
        json.dumps(
            {
                "hypotheses": {
                    "prosecution": {"known": ["K1", "K2"], "unknowns": 0},
                    "defence": {"known": ["K1"], "unknowns": 1},
                },
                "traces": {"T1": {"threshold": 50}},
            }
        ),
    )
    params = write(
        tmp_path, "params.json",
        json.dumps(
            {
                "eta": 25.0,
                "xi": 0.05,
                "traces": {
                    "T1": {
                        "mu": 800.0,
                        "phi": {"K1": 0.6, "K2": 0.4},
                    }
                },
            }
        ),
    )
    return dict(freqs=freqs, profiles=profiles, trace=trace, case=case,
                params=params, tmp=tmp_path)


class TestLoaders:
    def test_frequency_normalization_warns(self, tmp_path):
        path = write(
            tmp_path, "f.csv",
            "marker,allele,frequency\nM,8,0.5\nM,9,0.52\n",
        )
        with pytest.warns(UserWarning, match="rescaling"):
            table = io.load_frequency_table(path)
        assert sum(table.ladder("M").frequencies) == pytest.approx(1.0)

    def test_frequency_sum_far_off_rejected(self, tmp_path):
        path = write(
            tmp_path, "f.csv",
            "marker,allele,frequency\nM,8,0.5\nM,9,0.9\n",
        )
        with pytest.raises(io.LoadError, match="not a distribution"):
            io.load_frequency_table(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(io.LoadError, match="not found"):
            io.load_frequency_table(tmp_path / "absent.csv")

    def test_subthreshold_height_coerced_with_warning(self):
        rows = {"T1": {"FGA": {"21": 49.0, "22": 600.0, "25": 39.0}}}
        with pytest.warns(UserWarning, match="treated as dropout"):
            traces = io.build_traces(rows, {"T1": 50.0})
        assert traces[0].height("FGA", "21") == 0.0
        assert traces[0].height("FGA", "25") == 0.0
        assert traces[0].height("FGA", "22") == 600.0

    def test_trace_round_trip(self, tmp_path):
        rows = {"T1": {"M": {"8": 400.0, "9": 0.0}}}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traces = io.build_traces(rows, {"T1": 50.0})
        out = tmp_path / "trace.csv"
        io.write_trace_csv(traces, out)
        again = io.read_trace_rows(out)
        assert again == {"T1": {"M": {"8": 400.0, "9": 0.0}}}

    def test_hypothesis_with_trace_roles(self, tiny_case, tmp_path):
        case = write(
            tmp_path, "roles.json",
            json.dumps(
                {
                    "hypotheses": {
                        "split": {
                            "known": ["K1"],
                            "unknowns": ["U1", "U2"],
                            "trace_roles": {"T1": ["K1", "U1"]},
                        }
                    }
                }
            ),
        )
        definition = io.load_case_definition(case)
        profiles = io.load_profiles(tiny_case["profiles"])
        hyp = io.build_hypothesis(definition.hypotheses["split"], profiles)
        assert hyp.roles == ("K1", "U1", "U2")
        assert hyp.roles_for("T1") == ("K1", "U1")
        assert hyp.roles_for("T2") == ("K1", "U1", "U2")

    def test_parameters_round_trip(self):
        params = mx.ModelParameters(
            rho={"T1": 30.0}, eta=25.0, xi=0.07,
            phi={"T1": {"K1": 0.8, "U1": 0.2}},
        )
        doc = io.parameters_to_json(params)
        back = io.parameters_from_json(doc)
        assert back.rho["T1"] == pytest.approx(30.0)
        assert back.eta_for("T1") == pytest.approx(25.0)
        assert back.phi["T1"] == params.phi["T1"]


    def test_parameters_round_trip_keeps_marker_overrides(self):
        params = mx.ModelParameters(
            rho={"T1": 30.0}, eta=25.0, xi=0.07,
            phi={"T1": {"K1": 0.8, "U1": 0.2}},
            marker_rho={"M1": {"T1": 41.0}}, marker_xi={"M2": 0.01},
        )
        back = io.parameters_from_json(json.loads(json.dumps(
            io.parameters_to_json(params)
        )))
        assert back.marker_rho == {"M1": {"T1": 41.0}}
        assert back.marker_xi == {"M2": 0.01}


class TestCli:
    def test_fit_report_is_a_parameter_file(self, tiny_case, tmp_path):
        fit_out = str(tmp_path / "fit.json")
        common = ["--freqs", tiny_case["freqs"], "--profiles", tiny_case["profiles"],
                  "--hypothesis", tiny_case["case"], "--under", "prosecution"]
        assert cli.main(["fit", *common, "--trace", tiny_case["trace"],
                         "--out", fit_out]) == 0
        sim_out = str(tmp_path / "sim.csv")
        assert cli.main(["simulate", *common, "--params", fit_out,
                         "--trace-id", "T1", "--seed", "2", "--out", sim_out]) == 0
        assert cli.main(["diagnose", *common, "--trace", sim_out,
                         "--params", fit_out]) == 0

    @pytest.mark.parametrize("doc", [
        # a fit report's estimate blocks without its parameters block
        {"eta": 25.0, "xi": 0.05,
         "traces": {"T1": {"mu": {"estimate": 800.0},
                           "phi": {"K1": 0.6, "K2": 0.4}}}},
        {"eta": 25.0, "xi": 0.05,
         "traces": [{"mu": 800.0, "phi": {"K1": 0.6, "K2": 0.4}}]},
        {"eta": 25.0, "xi": 0.05,
         "traces": {"T1": {"mu": 800.0, "phi": [0.6, 0.4]}}},
        [{"traces": {}}],
        {"eta": 0.0, "xi": 0.05,
         "traces": {"T1": {"mu": 800.0, "phi": {"K1": 0.6, "K2": 0.4}}}},
    ])
    def test_malformed_parameter_file_exits_2(self, tiny_case, capsys, doc):
        params = write(tiny_case["tmp"], "bad_params.json", json.dumps(doc))
        rc = cli.main(
            ["fit", "--freqs", tiny_case["freqs"], "--profiles", tiny_case["profiles"],
             "--trace", tiny_case["trace"], "--hypothesis", tiny_case["case"],
             "--under", "prosecution", "--params", params]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "load_error"

    @pytest.mark.parametrize("key, change", [
        ("threshold", {"traces": {"T1": {"threshold": [50]}}}),
        ("threshold", {"traces": {"T1": {"threshold": "50"}}}),
        ("q0", {"q0": [0.1]}),
        ("q0", {"q0": True}),
        ("share", {"share": 5}),
        ("'d'", {"hypotheses": {"d": 5}}),
        ("unknowns", {"unknowns": 1.5}),
        ("unknowns", {"unknowns": -1}),
        ("known", {"known": "K1"}),
    ])
    def test_malformed_case_file_exits_2(self, tiny_case, capsys, key, change):
        doc = json.loads(Path(tiny_case["case"]).read_text())
        for name, value in change.items():
            if name in ("known", "unknowns"):
                doc["hypotheses"]["prosecution"][name] = value
            elif name == "hypotheses":
                doc["hypotheses"].update(value)
            else:
                doc[name] = value
        case = write(tiny_case["tmp"], "bad_case.json", json.dumps(doc))
        rc = cli.main(
            ["fit", "--freqs", tiny_case["freqs"], "--profiles", tiny_case["profiles"],
             "--trace", tiny_case["trace"], "--hypothesis", case,
             "--under", "prosecution", "--params", tiny_case["params"]]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "load_error"
        assert f"{key} must be" in err["error"]["message"]

    @pytest.mark.parametrize("change, message", [
        ({"traces": {"T1": {"threshold": 50}, "T9": {"threshold": 500}}}, "['T9']"),
        ({"trace_roles": {"T9": ["K1", "K2"]}}, "['T9']"),
        ({"known": ["K1", "K2", "K1"]}, "more than once: ['K1']"),
    ], ids=["absent-trace-threshold", "absent-trace-roles", "repeated-known"])
    def test_inconsistent_case_file_exits_2(self, tiny_case, capsys, change, message):
        # each of these once ran to exit 0 with the slip silently dropped
        doc = json.loads(Path(tiny_case["case"]).read_text())
        for name, value in change.items():
            if name == "traces":
                doc[name] = value
            else:
                doc["hypotheses"]["prosecution"][name] = value
        case = write(tiny_case["tmp"], "bad_case.json", json.dumps(doc))
        rc = cli.main(
            ["fit", "--freqs", tiny_case["freqs"], "--profiles", tiny_case["profiles"],
             "--trace", tiny_case["trace"], "--hypothesis", case,
             "--under", "prosecution", "--params", tiny_case["params"]]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "load_error"
        assert message in err["error"]["message"]

    def test_fractions_off_the_simplex_exit_2_with_a_plain_sum(self, tiny_case,
                                                              capsys):
        params = write(
            tiny_case["tmp"], "off_simplex.json",
            json.dumps({"eta": 25.0, "xi": 0.05,
                        "traces": {"T1": {"mu": 800.0,
                                          "phi": {"K1": 0.6, "K2": 0.777}}}}),
        )
        rc = cli.main(
            ["fit", "--freqs", tiny_case["freqs"], "--profiles", tiny_case["profiles"],
             "--trace", tiny_case["trace"], "--hypothesis", tiny_case["case"],
             "--under", "prosecution", "--params", params]
        )
        assert rc == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == "fractions for trace 'T1' sum to 1.377, not 1"
        assert "np.float64" not in message

    def test_nan_height_exits_2(self, tiny_case, capsys):
        trace = write(
            tiny_case["tmp"], "nan_trace.csv",
            "trace_id,marker,allele,height\n"
            "T1,M1,8,420\nT1,M1,9,nan\nT1,M2,8,510\n",
        )
        rc = cli.main(
            ["fit", "--freqs", tiny_case["freqs"], "--profiles", tiny_case["profiles"],
             "--trace", trace, "--hypothesis", tiny_case["case"],
             "--params", tiny_case["params"]]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "load_error"
        assert "finite" in err["error"]["message"]

    def test_missing_frequency_file_exits_2(self, tiny_case, capsys):
        rc = cli.main(
            ["fit", "--freqs", "nope.csv", "--profiles", tiny_case["profiles"],
             "--trace", tiny_case["trace"], "--hypothesis", tiny_case["case"]]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "load_error"
        assert "not found" in err["error"]["message"]

    def test_fit_with_fixed_params_echoes_inputs(self, tiny_case, capsys):
        out = str(tiny_case["tmp"] / "fit.json")
        rc = cli.main(
            ["fit", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--trace", tiny_case["trace"],
             "--hypothesis", tiny_case["case"], "--under", "prosecution",
             "--params", tiny_case["params"], "--out", out]
        )
        assert rc == 0
        report = json.loads(Path(out).read_text())
        assert report["traces"]["T1"]["mu"]["estimate"] == pytest.approx(800.0)
        assert report["traces"]["T1"]["phi"]["K1"]["estimate"] == pytest.approx(0.6)
        assert np.isfinite(report["log10_likelihood"])

    def test_fit_deterministic_across_runs(self, tiny_case):
        out1 = str(tiny_case["tmp"] / "fit1.json")
        out2 = str(tiny_case["tmp"] / "fit2.json")
        args = ["fit", "--freqs", tiny_case["freqs"], "--profiles",
                tiny_case["profiles"], "--trace", tiny_case["trace"],
                "--hypothesis", tiny_case["case"], "--under", "defence",
                "--seed", "7"]
        assert cli.main(args + ["--out", out1]) == 0
        assert cli.main(args + ["--out", out2]) == 0
        assert Path(out1).read_text() == Path(out2).read_text()

    def test_report_json_round_trips_to_same_table(self, tiny_case):
        out = str(tiny_case["tmp"] / "fit.json")
        rc = cli.main(
            ["fit", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--trace", tiny_case["trace"],
             "--hypothesis", tiny_case["case"], "--under", "prosecution",
             "--out", out]
        )
        assert rc == 0
        report = json.loads(Path(out).read_text())
        table_once = io.render_fit_table(report)
        table_again = io.render_fit_table(json.loads(json.dumps(report)))
        assert table_once == table_again

    def test_woe_identical_hypotheses_zero(self, tiny_case, tmp_path, capsys):
        case = write(
            tmp_path, "same.json",
            json.dumps(
                {
                    "hypotheses": {
                        "prosecution": {"known": ["K1", "K2"], "unknowns": 0},
                        "defence": {"known": ["K1", "K2"], "unknowns": 0},
                    },
                    "traces": {"T1": {"threshold": 50}},
                }
            ),
        )
        out = str(tmp_path / "woe.json")
        rc = cli.main(
            ["woe", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--trace", tiny_case["trace"],
             "--hypothesis", case, "--out", out]
        )
        assert rc == 0
        doc = json.loads(Path(out).read_text())
        assert doc["woe_bans"] == pytest.approx(0.0, abs=1e-9)

    def test_woe_bound_reported(self, tiny_case, tmp_path):
        out = str(tmp_path / "woe.json")
        rc = cli.main(
            ["woe", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--trace", tiny_case["trace"],
             "--hypothesis", tiny_case["case"], "--out", out]
        )
        assert rc == 0
        doc = json.loads(Path(out).read_text())
        assert doc["bound_bans"] is not None
        assert doc["woe_bans"] <= doc["bound_bans"] + 1e-9
        assert doc["efficiency_loss_bans"] == pytest.approx(
            doc["bound_bans"] - doc["woe_bans"]
        )

    def test_deconvolve_no_unknowns_single_certain_profile(self, tiny_case, tmp_path):
        out = str(tmp_path / "dec.json")
        rc = cli.main(
            ["deconvolve", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--trace", tiny_case["trace"],
             "--hypothesis", tiny_case["case"], "--under", "prosecution",
             "--params", tiny_case["params"], "--k", "1", "--out", out]
        )
        assert rc == 0
        doc = json.loads(Path(out).read_text())
        assert len(doc["profiles"]) == 1
        assert doc["profiles"][0]["probability"] == pytest.approx(1.0)
        assert all(not v for v in doc["profiles"][0]["profile"].values())

    def test_deconvolve_probabilities_sorted(self, tiny_case, tmp_path):
        out = str(tmp_path / "dec.json")
        rc = cli.main(
            ["deconvolve", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--trace", tiny_case["trace"],
             "--hypothesis", tiny_case["case"], "--under", "defence",
             "--k", "4", "--out", out]
        )
        assert rc == 0
        doc = json.loads(Path(out).read_text())
        probs = [r["probability"] for r in doc["profiles"]]
        assert probs == sorted(probs, reverse=True)

    def test_artefact_report_columns(self, tiny_case, tmp_path):
        out = str(tmp_path / "art.csv")
        rc = cli.main(
            ["artefacts", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--trace", tiny_case["trace"],
             "--hypothesis", tiny_case["case"], "--under", "defence",
             "--params", write(
                 tiny_case["tmp"], "pd.json",
                 json.dumps({"eta": 25.0, "xi": 0.05,
                             "traces": {"T1": {"mu": 800.0,
                                               "phi": {"K1": 0.7, "U1": 0.3}}}}),
             ),
             "--out", out]
        )
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "trace,marker,allele,z,p_stutter_given_z,p_dropout_given_z"
        # observed rows carry a stutter posterior, unobserved a dropout one
        for line in lines[1:]:
            tid, marker, allele, z, ps, pd = line.split(",")
            if float(z) > 0:
                assert ps != "" and pd == ""
            else:
                assert ps == "" and pd != ""

    @pytest.mark.parametrize("command, extra, header", [
        ("deconvolve", ["--k", "2"], "rank,probability,"),
        ("sweep", ["--max", "1"], "hypothesis,unknowns,contributors,log10_likelihood"),
    ])
    def test_csv_out_writes_the_table(self, tiny_case, tmp_path, capsys,
                                      command, extra, header):
        out = tmp_path / "table.csv"
        rc = cli.main(
            [command, "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--trace", tiny_case["trace"],
             "--hypothesis", tiny_case["case"], "--under", "defence",
             *extra, "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().splitlines()[0].startswith(header)
        assert capsys.readouterr().out.strip()  # the text table is printed too

    def test_sweep_monotone(self, tiny_case, tmp_path):
        out = str(tmp_path / "sweep.json")
        rc = cli.main(
            ["sweep", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--trace", tiny_case["trace"],
             "--hypothesis", tiny_case["case"], "--under", "defence",
             "--max", "2", "--out", out]
        )
        assert rc == 0
        doc = json.loads(Path(out).read_text())
        lls = [r["log10_likelihood"] for r in doc["hypotheses"]["defence"]]
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-6

    def test_simulate_and_diagnose_round_trip(self, tiny_case, tmp_path):
        sim_out = str(tmp_path / "sim.csv")
        rc = cli.main(
            ["simulate", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--hypothesis", tiny_case["case"],
             "--under", "prosecution", "--params", tiny_case["params"],
             "--trace-id", "T1", "--seed", "3", "--out", sim_out]
        )
        assert rc == 0
        rows = io.read_trace_rows(sim_out)
        assert "T1" in rows and rows["T1"]

        # deterministic across reruns
        sim_out2 = str(tmp_path / "sim2.csv")
        cli.main(
            ["simulate", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--hypothesis", tiny_case["case"],
             "--under", "prosecution", "--params", tiny_case["params"],
             "--trace-id", "T1", "--seed", "3", "--out", sim_out2]
        )
        assert Path(sim_out).read_text() == Path(sim_out2).read_text()

        pit_out = str(tmp_path / "pit.csv")
        rc = cli.main(
            ["diagnose", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--trace", sim_out,
             "--hypothesis", tiny_case["case"], "--under", "prosecution",
             "--params", tiny_case["params"], "--out", pit_out]
        )
        assert rc == 0
        lines = Path(pit_out).read_text().splitlines()
        assert lines[0] == "peak,pit"
        assert len(lines) > 1
        for line in lines[1:]:
            _, pit = line.rsplit(",", 1)
            assert 0.0 <= float(pit) <= 1.0

    def test_simulate_uses_the_case_files_threshold(self, tiny_case, tmp_path):
        # allele 7, carried by no one, receives only stutter (about 75 rfu)
        freqs = write(
            tmp_path, "freqs7.csv",
            "marker,allele,frequency\n"
            "M1,7,0.1\nM1,8,0.3\nM1,9,0.3\nM1,10,0.3\n"
            "M2,7,0.2\nM2,8,0.4\nM2,9,0.4\n",
        )
        case = write(
            tmp_path, "case150.json",
            Path(tiny_case["case"]).read_text().replace(
                '"threshold": 50', '"threshold": 150'
            ),
        )
        params = write(
            tmp_path, "stutter.json",
            json.dumps({"eta": 25.0, "xi": 0.15, "traces": {
                "T1": {"mu": 800.0, "phi": {"K1": 0.6, "K2": 0.4}}}}),
        )
        heights = []
        for seed in range(5):
            out = str(tmp_path / f"sim{seed}.csv")
            assert cli.main(
                ["simulate", "--freqs", freqs, "--profiles",
                 tiny_case["profiles"], "--hypothesis", case,
                 "--under", "prosecution", "--params", params,
                 "--trace-id", "T1", "--seed", str(seed), "--out", out]
            ) == 0
            rows = io.read_trace_rows(out)["T1"]
            heights += [h for row in rows.values() for h in row.values()]
        assert any(h >= 150 for h in heights)
        assert not [h for h in heights if 0 < h < 150]

    def test_simulate_refuses_a_threshold_for_an_uncovered_trace(
        self, tiny_case, tmp_path, capsys
    ):
        # a misspelt id once left T1 at the default threshold with exit 0
        doc = json.loads(Path(tiny_case["case"]).read_text())
        doc["traces"] = {"T9": {"threshold": 500}}
        case = write(tmp_path, "t9_case.json", json.dumps(doc))
        out = tmp_path / "sim.csv"
        rc = cli.main(
            ["simulate", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--hypothesis", case,
             "--under", "prosecution", "--params", tiny_case["params"],
             "--trace-id", "T1", "--seed", "3", "--out", str(out)]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "load_error"
        assert "['T9']" in err["error"]["message"]
        assert "parameter file" in err["error"]["message"]
        assert not out.exists()

    def test_simulate_with_unknown_contributor_draws_from_population(
        self, tiny_case, tmp_path
    ):
        params = write(
            tmp_path, "pu.json",
            json.dumps(
                {
                    "eta": 25.0, "xi": 0.05,
                    "traces": {"T1": {"mu": 800.0,
                                      "phi": {"K1": 0.7, "U1": 0.3}}},
                }
            ),
        )
        out = str(tmp_path / "sim_u.csv")
        rc = cli.main(
            ["simulate", "--freqs", tiny_case["freqs"], "--profiles",
             tiny_case["profiles"], "--hypothesis", tiny_case["case"],
             "--under", "defence", "--params", params,
             "--trace-id", "T1", "--seed", "11", "--out", out]
        )
        assert rc == 0
        rows = io.read_trace_rows(out)
        assert set(rows["T1"]) <= {"M1", "M2"}
        assert any(h > 0 for m in rows["T1"].values() for h in m.values())


def _loaded_after(code):
    """Which of scipy.optimize and scipy.stats a fresh interpreter holds
    after running ``code`` with this checkout's mixref on its path."""
    src = str(Path(mx.__file__).resolve().parents[1])
    code += "\nprint(sorted({'scipy.optimize', 'scipy.stats'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": ""}, timeout=120,
    )
    return done.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["mixref", "mixref.cli"])
def test_importing_leaves_scipy_optimize_and_stats_unloaded(module):
    # both are slow to import: only fits with free parameters and diagnose
    # load them, when they run
    assert _loaded_after(f"import sys, {module}") == "[]"


def test_deconvolve_at_stated_parameters_leaves_scipy_optimize_unloaded(tiny_case):
    args = ["deconvolve", "--freqs", tiny_case["freqs"], "--profiles",
            tiny_case["profiles"], "--trace", tiny_case["trace"],
            "--hypothesis", tiny_case["case"], "--under", "prosecution",
            "--params", tiny_case["params"], "--k", "2"]
    code = f"import sys\nfrom mixref import cli\nassert cli.main({args!r}) == 0"
    assert _loaded_after(code) == "[]"


class TestWholeBundleQueries:
    def _three_unknowns(self, tmp_path, n_markers=17):
        # three unknowns: 16 markers to a stack, so 17 make two stacks
        markers = [f"M{i:02d}" for i in range(n_markers)]
        rows = {
            "freqs.csv": ["marker,allele,frequency"] + [
                f"{m},{a},{q}" for m in markers for a, q in (("8", 0.3), ("9", 0.3),
                                                            ("10", 0.4))
            ],
            "profiles.csv": ["individual,marker,allele1,allele2"]
            + [f"K1,{m},8,9" for m in markers],
            "trace.csv": ["trace_id,marker,allele,height"] + [
                f"T1,{m},{a},{h}" for m in markers
                for a, h in (("8", 610), ("9", 380), ("10", 170))
            ],
        }
        files = {name: write(tmp_path, name, "\n".join(lines) + "\n")
                 for name, lines in rows.items()}
        return [
            "--freqs", files["freqs.csv"], "--profiles", files["profiles.csv"],
            "--trace", files["trace.csv"],
            "--hypothesis", write(tmp_path, "case.json", json.dumps({
                "hypotheses": {"defence": {"known": ["K1"], "unknowns": 3}},
                "traces": {"T1": {"threshold": 50}},
            })),
            "--params", write(tmp_path, "params.json", json.dumps({
                "eta": 25.0, "xi": 0.05, "traces": {"T1": {
                    "mu": 800.0, "phi": {"K1": 0.4, "U1": 0.3, "U2": 0.2, "U3": 0.1}}},
            })),
        ]

    @pytest.mark.parametrize("command, extra, posteriors", [
        ("deconvolve", ["--k", "2"], False),
        ("artefacts", [], True),
        ("diagnose", [], False),
    ])
    def test_one_chain_pass_per_stack(self, tmp_path, monkeypatch, capsys,
                                      command, extra, posteriors):
        common = self._three_unknowns(tmp_path)
        passes = []
        original = mx.engine._chain_pass

        def spy(stack, tables, posteriors=False, alt=None):
            passes.append((len(stack.plans), posteriors, alt is not None))
            return original(stack, tables, posteriors, alt)

        monkeypatch.setattr(mx.engine, "_chain_pass", spy)
        assert cli.main([command, *common, *extra]) == 0
        assert passes == [(16, posteriors, command == "diagnose"),
                          (1, posteriors, command == "diagnose")]

    def _impossible_marker(self, tiny_case, covered=("M1", "M2")):
        # nobody carries M1's 11, and no donor stutters into it: under the
        # prosecution the peak there has probability 0
        tmp = tiny_case["tmp"]
        freqs = write(tmp, "freqs11.csv", "marker,allele,frequency\n"
                      "M1,8,0.3\nM1,9,0.3\nM1,10,0.3\nM1,11,0.1\nM2,8,0.5\nM2,9,0.5\n")
        rows = {"M1": "T1,M1,8,420\nT1,M1,9,260\nT1,M1,10,300\nT1,M1,11,200\n",
                "M2": "T1,M2,8,510\nT1,M2,9,660\n"}
        trace = write(tmp, "trace11.csv", "trace_id,marker,allele,height\n"
                      + "".join(rows[m] for m in covered))
        return ["--freqs", freqs, "--profiles", tiny_case["profiles"], "--trace", trace,
                "--hypothesis", tiny_case["case"], "--under", "prosecution",
                "--params", tiny_case["params"]]

    @pytest.mark.parametrize("command, extra", [("deconvolve", ["--k", "2"]),
                                                ("artefacts", [])])
    def test_zero_likelihood_marker_exits_2(self, tiny_case, capsys, command, extra):
        assert cli.main([command, *self._impossible_marker(tiny_case), *extra]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert "zero probability on marker 'M1'" in error["message"]

    @pytest.mark.parametrize("covered, line, tested", [
        (("M1", "M2"), "6 observed peaks, 4 with an undefined PIT; KS statistic", 2),
        (("M1",), "4 observed peaks, 4 with an undefined PIT; no PIT to test", 0),
    ], ids=["some-undefined", "all-undefined"])
    def test_diagnose_counts_undefined_pits(self, tiny_case, capsys, covered, line,
                                            tested):
        assert cli.main(["diagnose", *self._impossible_marker(tiny_case, covered)]) == 0
        text, _, doc = capsys.readouterr().out.partition("\n")
        assert text.startswith(line)
        doc = json.loads(doc)
        assert (doc["n_peaks"], doc["n_undefined"]) == (tested, 4)
        assert (doc["ks_statistic"] is None) == (tested == 0)


class TestPubcaseCli:
    def test_fit_report_matches_golden(self, tmp_path):
        out = str(tmp_path / "fit.json")
        rc = cli.main(
            ["fit",
             "--freqs", str(DATA / "pubcase_freqs.csv"),
             "--profiles", str(DATA / "pubcase_profiles.csv"),
             "--trace", str(DATA / "pubcase_traces.csv"),
             "--hypothesis", str(DATA / "pubcase_case.json"),
             "--under", "defence",
             "--params", str(DATA / "pubcase_params_defence.json"),
             "--out", out]
        )
        assert rc == 0
        got = json.loads(Path(out).read_text())
        want = json.loads((DATA / "pubcase_fit_defence_golden.json").read_text())

        def compare(a, b, path=""):
            assert type(a) is type(b), (path, a, b)
            if isinstance(a, dict):
                assert set(a) == set(b), path
                for k in a:
                    compare(a[k], b[k], f"{path}.{k}")
            elif isinstance(a, list):
                assert len(a) == len(b), path
                for i, (x, y) in enumerate(zip(a, b)):
                    compare(x, y, f"{path}[{i}]")
            elif isinstance(a, float):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12), path
            else:
                assert a == b, path

        compare(got, want)

    def test_deconvolve_csv_headed_by_defendant_alleles(self, tmp_path):
        out = str(tmp_path / "deconv.csv")
        rc = cli.main(
            ["deconvolve",
             "--freqs", str(DATA / "pubcase_freqs.csv"),
             "--profiles", str(DATA / "pubcase_profiles.csv"),
             "--trace", str(DATA / "pubcase_traces.csv"),
             "--hypothesis", str(DATA / "pubcase_case.json"),
             "--under", "investigative",
             "--k", "3", "--out", out]
        )
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["rank", "probability"]
        assert "D16:U1" in header
        rank1 = dict(zip(header, lines[1].split(",")))
        assert rank1["rank"] == "1"
        assert rank1["D16:U1"] == "11/13"
        probs = [float(l.split(",")[1]) for l in lines[1:]]
        assert probs == sorted(probs, reverse=True)

    def test_artefact_excerpt_row(self, tmp_path):
        out = str(tmp_path / "artefacts.csv")
        rc = cli.main(
            ["artefacts",
             "--freqs", str(DATA / "pubcase_freqs.csv"),
             "--profiles", str(DATA / "pubcase_profiles.csv"),
             "--trace", str(DATA / "pubcase_traces.csv"),
             "--hypothesis", str(DATA / "pubcase_case.json"),
             "--under", "defence",
             "--params", str(DATA / "pubcase_params_defence.json"),
             "--out", out]
        )
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        row = next(
            l for l in lines
            if l.startswith("MC18,D2,22,")
        )
        _, _, _, z, ps, _ = row.split(",")
        assert float(z) == 55.0
        assert abs(float(ps) - 0.927) < 0.02
