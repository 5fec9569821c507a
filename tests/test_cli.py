import csv
import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import dickesim
from dickesim.cli import COMMANDS, _write_csv, _write_histograms, config_digest, main
from dickesim.dicke_states import dicke
from dickesim.fock import LossConfig, SpdcConfig, simulate_experiment
from dickesim.lms import decompose, plan_settings
from dickesim.sampling import ExperimentPlan, run_plan
from dickesim.states import MeasurementSetting, fidelity
from dickesim.witness import dephased as dephased_state
from test_witness import contracted_scan


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args):
    return main(list(args))


def load_report(out_dir, command):
    with open(out_dir / f"{command}.json") as fh:
        return json.load(fh)


def load_csv(path):
    """Data rows of a CSV artifact as dicts keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_histograms(path):
    """Counts per setting label from ``fig_histograms.csv`` (one row per setting)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {row[0]: np.array(row[1:], int) for row in rows}


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("args", [["-h"], ["sample", "-h"], ["--help", "bound"]])
def test_help_lists_every_command(args, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(args)
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: dickesim COMMAND [--config PATH] [--seed U64]")
    for name, command in COMMANDS.items():
        assert f"  {name}" in out and command.help in out, name
    # the epilog lists each command once, in table order, compare last: the
    # order compare reads the others' reports in, and CI runs them in
    epilog = out.split("\ncommands:\n")[1].splitlines()
    assert [line.split()[0] for line in epilog] == list(COMMANDS)
    assert list(COMMANDS)[-1] == "compare"


def test_missing_command_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(["--seed", "1"])
    assert info.value.code == 2
    assert "COMMAND" in capsys.readouterr().err


def test_flags_before_the_command_write_the_same_report(tmp_path, capsys):
    config = write_config(tmp_path, {"state": "dicke_4_2", "events": 500})
    after, before = tmp_path / "after", tmp_path / "before"
    assert run_cli(["sample", "--config", config, "--seed", "7", "--out", str(after)]) == 0
    assert run_cli(["--seed", "7", "--out", str(before), "--config", config, "sample"]) == 0
    capsys.readouterr()
    for name in ("sample.json", "fig_histograms.csv"):
        assert (after / name).read_bytes() == (before / name).read_bytes(), name


def test_state_report_envelope(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["state", "--out", str(out)]) == 0
    capsys.readouterr()
    report = load_report(out, "state")
    assert set(report) == {
        "command", "seed", "config", "config_sha256", "version", "results"
    }
    assert report["command"] == "state"
    assert report["seed"] == 0
    assert report["version"] == dickesim.__version__
    assert report["config_sha256"] == config_digest(report["config"])
    results = report["results"]
    assert results["num_qubits"] == 6
    assert results["support"] == 20
    assert (out / "state_vector.json").exists()


def test_state_navigation_chain(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "state": "dicke_6_3",
            "navigate": [
                {"qubit": 0, "outcome": "H"},
                {"qubit": 1, "outcome": "V"},
            ],
        },
    )
    out = tmp_path / "out"
    assert run_cli(["state", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    nav = load_report(out, "state")["results"]["navigation"]
    assert nav["final_num_qubits"] == 4
    assert abs(nav["probability"] - 0.3) < 1e-9
    assert abs(nav["per_step"][0] - 0.5) < 1e-9
    assert abs(nav["per_step"][1] - 0.6) < 1e-9


def test_state_navigation_projects_once_per_step(tmp_path, monkeypatch):
    # one pass for the whole chain; each step's probability keeps the bits
    # of the ratio of two prefix navigations
    from dickesim import cli, dicke_states

    project = dicke_states.project
    calls = []

    def counted(*args):
        calls.append(args)
        return project(*args)

    steps = [(3, "+"), (0, "V"), (5, "-"), (1, "H")]
    monkeypatch.setattr(dicke_states, "project", counted)
    config = cli.validate(
        {"state": "dicke_7_3", "navigate": [{"qubit": q, "outcome": o} for q, o in steps]},
        cli.COMMANDS["state"].schema,
    )
    nav = cli.cmd_state(config, cli.Context(seed=0, out_dir=str(tmp_path)))["navigation"]
    assert len(calls) == len(steps)
    totals = [1.0] + [dicke_states.navigate(dicke(7, 3), steps[:k])[1] for k in range(1, 5)]
    assert nav["per_step"] == [b / a for a, b in zip(totals, totals[1:])]
    assert nav["probability"] == totals[-1]


def test_navigation_revisiting_a_qubit_exits_two(tmp_path, capsys):
    steps = [{"qubit": 0, "outcome": "H"}, {"qubit": 0, "outcome": "V"}]
    config = write_config(tmp_path, {"navigate": steps})
    assert run_cli(["state", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "config.navigate" in capsys.readouterr().err


def test_impossible_navigation_outcome_exits_three(tmp_path, capsys):
    # ghz_4 never shows H on one qubit and V on another
    steps = [{"qubit": 0, "outcome": "H"}, {"qubit": 1, "outcome": "V"}]
    config = write_config(tmp_path, {"state": "ghz_4", "navigate": steps})
    assert run_cli(["state", "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert "ImpossibleOutcomeError" in capsys.readouterr().err


def test_witness_defaults(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert run_cli(["witness", "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "witness")["results"]
    assert abs(results["witness_value"] - 12.0) < 1e-9
    assert abs(results["jz_sq"]) < 1e-9
    # the three collective settings are read once, in one call, and the value
    # keeps the bits that witness_value gives (dicke_5_2 reads <Jx^2> a few
    # ulps off 4.25)
    from dickesim import cli, witness

    read = witness.outcome_distributions
    calls = []

    def counted(state, settings):
        calls.append([setting.label() for setting in settings])
        return read(state, settings)

    monkeypatch.setattr(witness, "outcome_distributions", counted)
    config = cli.validate({"state": "dicke_5_2", "alpha": -3.0}, cli.COMMANDS["witness"].schema)
    results = cli.cmd_witness(config, cli.Context(seed=0, out_dir=str(tmp_path)))
    assert calls == [[",".join(axis * 5) for axis in "xyz"]]
    assert results["witness_value"] == witness.witness_value(dicke(5, 2), -3.0)


def test_bound_with_curve_artifact(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"num_qubits": 4, "restarts": 4, "alphas": [-1.0, 0.0]},
    )
    out = tmp_path / "out"
    assert run_cli(["bound", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "bound")["results"]
    assert 5.1 <= results["bound"] <= 5.232051 + 1e-6
    # the default comparison state for an even register is the half-excited one
    assert abs(results["state_value"] - 6.0) < 1e-9
    assert results["gap"] < 0
    with open(out / "fig_bound_curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "biseparable_bound", "state_value"]
    assert len(rows) == 3


def test_bound_curve_state_values_are_the_per_alpha_witness_values(tmp_path, monkeypatch):
    # the three settings are read once; every alpha's value must still be
    # the bits that witness_value gives for it
    from dickesim import cli
    from dickesim.witness import witness_value

    tables = {}

    def capture(path, header, columns):
        tables[os.path.basename(path)] = dict(zip(header, columns))
        _write_csv(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", capture)
    # dicke_5_2 reads <Jx^2> a few ulps off 4.25, so a reordered sum of
    # the three terms changes the bits of some alphas
    alphas = [-1e12, -10.0, -3.0, -0.3, 0.0, 0.7, 1.0, 3.0, 1e4]
    config = cli.validate(
        {"num_qubits": 5, "state": "dicke_5_2", "alpha": -3.0, "restarts": 3,
         "alphas": alphas},
        cli.COMMANDS["bound"].schema,
    )
    results = cli.cmd_bound(config, cli.Context(seed=0, out_dir=str(tmp_path)))
    state = cli._parse_state_label("dicke_5_2")
    assert results["state_value"] == witness_value(state, -3.0)
    curve = tables["fig_bound_curve.csv"]
    assert curve["state_value"].tolist() == [witness_value(state, a) for a in alphas]
    rows = load_csv(tmp_path / "fig_bound_curve.csv")
    assert [row["state_value"] for row in rows] == [
        cli._fmt(witness_value(state, a)) for a in alphas
    ]


def test_bound_reports_are_deterministic(tmp_path, capsys):
    # the search draws no random numbers: a rerun writes the same bytes,
    # and another --seed changes only the report's seed field
    config = write_config(tmp_path, {"alpha": -3.0, "restarts": 5, "alphas": [0.0]})
    runs = {"a": "3", "b": "3", "c": "4"}
    for name, seed in runs.items():
        assert run_cli(
            ["bound", "--config", config, "--seed", seed, "--out", str(tmp_path / name)]
        ) == 0
    capsys.readouterr()
    out_a, out_b, out_c = (tmp_path / name for name in runs)
    assert (out_a / "bound.json").read_bytes() == (out_b / "bound.json").read_bytes()
    report_a, report_c = load_report(out_a, "bound"), load_report(out_c, "bound")
    assert (report_a["seed"], report_c["seed"]) == (3, 4)
    assert report_a["results"] == report_c["results"]
    assert report_a["config"] == report_c["config"]
    results = report_a["results"]
    table = results["table_file"]
    assert (out_a / table).read_bytes() == (out_c / table).read_bytes()
    classes = results["classes"]
    assert [c["size"] for c in classes] == [1, 2, 3]
    assert [c["bipartitions"] for c in classes] == [6, 15, 10]
    assert sum(c["bipartitions"] for c in classes) == 2**5 - 1
    assert results["bound"] == max(c["value"] for c in classes)
    assert all(c["sectors_searched"] >= 1 for c in classes)


def test_bound_ten_qubits_closed_form(tmp_path, capsys):
    # for alpha >= 1 the all-up product state is optimal: j(j+1) + (alpha-1) j^2
    config = write_config(tmp_path, {"num_qubits": 10, "alpha": 3.0})
    out = tmp_path / "out"
    assert run_cli(["bound", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "bound")["results"]
    assert abs(results["bound"] - 80.0) < 1e-9
    # each value once: the class list, not one entry per bipartition
    assert set(results) == {"num_qubits", "alpha", "bound", "classes", "state_value", "gap"}
    assert sum(c["bipartitions"] for c in results["classes"]) == 2**9 - 1
    too_big = write_config(tmp_path, {"num_qubits": 11}, name="big.json")
    assert run_cli(["bound", "--config", too_big, "--out", str(tmp_path / "o")]) == 2
    assert "config.num_qubits" in capsys.readouterr().err


def test_bound_at_large_alpha(tmp_path, capsys):
    # float spacing near the top eigenvalue is far above 1e-12 here
    config = write_config(tmp_path, {"num_qubits": 6, "alpha": 1e4, "restarts": 3})
    out = tmp_path / "out"
    assert run_cli(["bound", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    bound = load_report(out, "bound")["results"]["bound"]
    assert bound == pytest.approx(12.0 + (1e4 - 1.0) * 9.0, rel=1e-12)


def test_bound_alphas_list_is_capped(tmp_path, capsys):
    # each entry is a full bound, so the curve length is bounded in the schema
    alphas = [k / 8.0 for k in range(-32, 32)]
    config = write_config(tmp_path, {"num_qubits": 2, "restarts": 3, "alphas": alphas})
    out = tmp_path / "out"
    assert run_cli(["bound", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    assert [float(row["alpha"]) for row in load_csv(out / "fig_bound_curve.csv")] == alphas
    too_long = write_config(tmp_path, {"num_qubits": 2, "alphas": alphas + [4.0]}, name="long.json")
    assert run_cli(["bound", "--config", too_long, "--out", str(tmp_path / "o")]) == 2
    assert "config.alphas" in capsys.readouterr().err


def test_bound_has_no_restart_budget(tmp_path, capsys):
    # restarts is inert, so 51 of them with all 64 alphas run like any other
    # count: the same report as 3, apart from the config
    alphas = [k / 8.0 for k in range(-32, 32)]
    reports = {}
    for restarts in (51, 3):
        config = write_config(
            tmp_path, {"num_qubits": 4, "restarts": restarts, "alphas": alphas},
            name=f"r{restarts}.json",
        )
        out = tmp_path / f"r{restarts}"
        assert run_cli(["bound", "--config", config, "--out", str(out)]) == 0
        reports[restarts] = load_report(out, "bound")
        assert len(load_csv(out / "fig_bound_curve.csv")) == 64
    capsys.readouterr()
    assert reports[51]["results"] == reports[3]["results"]
    assert (tmp_path / "r51" / "fig_bound_curve.csv").read_bytes() == (
        tmp_path / "r3" / "fig_bound_curve.csv"
    ).read_bytes()


def test_scan_closed_form_artifact(tmp_path, capsys):
    config = write_config(tmp_path, {"points": 50})
    out = tmp_path / "out"
    assert run_cli(["scan", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "scan")["results"]
    assert results["max_closed_form_deviation"] < 1e-10
    with open(out / "fig_correlator_scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 51


def test_scan_dephased(tmp_path, capsys):
    config = write_config(tmp_path, {"points": 20, "dephased": True})
    out = tmp_path / "out"
    assert run_cli(["scan", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "scan")["results"]
    assert results["dephased"] is True
    # the dephased correlator is -sin^6, so it never goes positive
    rows = load_csv(out / "fig_correlator_scan.csv")
    assert all(float(row["correlator"]) <= 1e-9 for row in rows)


# generous wall-time budget for one run at the largest config the scan schema
# accepts; the closed-form scan needs about 2-3 s on a shared 2-core host
SCAN_BUDGET_S = 60.0


@pytest.mark.parametrize("dephased", [False, True])
def test_scan_at_the_schema_maximum_finishes_in_bounded_time(dephased, tmp_path, capsys):
    config = write_config(
        tmp_path, {"state": "dicke_10_5", "points": 100000, "dephased": dephased}
    )
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run_cli(["scan", "--config", config, "--out", str(out)]) == 0
    assert time.perf_counter() - start < SCAN_BUDGET_S
    capsys.readouterr()
    rows = load_csv(out / "fig_correlator_scan.csv")
    assert len(rows) == 100000
    picked = [rows[k] for k in (0, 12345, 71234, 99999)]
    state = dephased_state(dicke(10, 5)) if dephased else dicke(10, 5)
    expected = contracted_scan(state, "xz", [float(row["theta"]) for row in picked])
    for row, value in zip(picked, expected):
        # CSV floats carry 12 significant digits
        assert abs(float(row["correlator"]) - value) < 1e-9


def test_lms_ghz_special(tmp_path, capsys):
    config = write_config(tmp_path, {"state": "ghz_4", "strategy": "ghz_special"})
    out = tmp_path / "out"
    assert run_cli(["lms", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "lms")["results"]
    assert results["num_settings"] == 5
    assert results["published_count"] == 5
    assert "z,z,z,z" in results["settings"]


def test_lms_greedy_four_qubit(tmp_path, capsys):
    config = write_config(tmp_path, {"state": "dicke_4_2", "strategy": "greedy"})
    out = tmp_path / "out"
    assert run_cli(["lms", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "lms")["results"]
    assert results["num_settings"] == 21
    assert results["published_count"] == 9
    assert results["term_count"] == len(decompose(dicke(4, 2)))
    # every nonidentity string lands in exactly one setting; the identity
    # term enters the estimate analytically
    assert sum(results["strings_per_setting"]) == results["term_count"] - 1


def test_lms_symmetric_plan(tmp_path, capsys):
    config = write_config(tmp_path, {"state": "dicke_6_3", "strategy": "symmetric"})
    out = tmp_path / "out"
    assert run_cli(["lms", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "lms")["results"]
    assert results["strategy"] == "symmetric"
    assert results["num_settings"] == 22


@pytest.mark.parametrize("command", ["lms", "sample"])
@pytest.mark.parametrize(
    "state, strategy, method, settings",
    [
        ("dicke_6_3", None, "symmetric", 22),
        ("ghz_4", None, "symmetric", 5),
        ("w_4", None, "symmetric", 11),
        ("dicke_6_3", "greedy", "greedy", 207),
    ],
)
def test_strategy_defaults_to_the_library_choice(
    command, state, strategy, method, settings, tmp_path, capsys
):
    # without a strategy the plan is symmetric; the report names it
    payload = {"state": state} if strategy is None else {"state": state, "strategy": strategy}
    if command == "sample":
        payload["events"] = 1000
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_cli([command, "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    report = load_report(out, command)
    assert report["config"]["strategy"] == strategy
    assert (report["results"]["strategy"], report["results"]["num_settings"]) == (method, settings)


def test_sample_symmetric_plan(tmp_path, capsys):
    config = write_config(
        tmp_path, {"state": "dicke_4_2", "strategy": "symmetric", "events": 20000}
    )
    out = tmp_path / "out"
    assert run_cli(["sample", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "sample")["results"]
    assert results["strategy"] == "symmetric"
    assert abs(results["estimate"] - results["direct_fidelity"]) <= 4 * results["std_error"]


def test_sample_symmetric_plan_on_nine_qubits(tmp_path, capsys):
    config = write_config(
        tmp_path, {"state": "dicke_9_4", "strategy": "symmetric", "events": 20000}
    )
    out = tmp_path / "out"
    assert run_cli(["sample", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "sample")["results"]
    assert results["num_qubits"] == 9
    assert abs(results["estimate"] - results["direct_fidelity"]) <= 4 * results["std_error"]


@pytest.mark.parametrize("command", ["lms", "sample"])
def test_greedy_on_nine_qubits_exits_two(command, tmp_path, capsys):
    config = write_config(tmp_path, {"state": "dicke_9_4", "strategy": "greedy"})
    assert run_cli([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "greedy" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lms", "sample"])
def test_strategy_that_does_not_fit_the_target_exits_two(command, tmp_path, capsys):
    # ghz_special's fixed design does not span a Dicke target
    config = write_config(tmp_path, {"state": "dicke_5_2", "strategy": "ghz_special"})
    assert run_cli([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "config.strategy" in capsys.readouterr().err


# wall-time budget for greedy sampling at the largest register greedy
# accepts; on a shared 2-core host the command takes about 0.4 s in process
# and 0.5-0.75 s as its own process, start-up included
GREEDY_BUDGET_S = 20.0


def test_greedy_sample_at_the_qubit_cap_finishes_in_bounded_time(tmp_path, capsys):
    config = write_config(tmp_path, {"state": "dicke_8_4", "strategy": "greedy", "events": 1000})
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run_cli(["sample", "--config", config, "--out", str(out)]) == 0
    assert time.perf_counter() - start < GREEDY_BUDGET_S
    capsys.readouterr()
    assert load_report(out, "sample")["results"]["num_settings"] == 2012


@pytest.mark.parametrize("seed", ["3", "7"])
def test_sample_on_a_zero_variance_plan_reports_no_deviation(seed, tmp_path, capsys):
    # every counted outcome of each ghz_special setting carries one weight,
    # so the standard error is exactly zero and no deviation is defined
    config = write_config(tmp_path, {"state": "ghz_8", "strategy": "ghz_special"})
    out = tmp_path / "out"
    assert run_cli(["sample", "--config", config, "--seed", seed, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "sample")["results"]
    assert results["std_error"] == 0.0
    assert results["deviation_sigma"] is None


def test_sample_estimates_fidelity(tmp_path, capsys):
    config = write_config(tmp_path, {"state": "dicke_4_2", "strategy": "greedy", "events": 20000})
    out = tmp_path / "out"
    assert run_cli(["sample", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "sample")["results"]
    assert results["num_settings"] == 21
    assert abs(results["direct_fidelity"] - 1.0) < 1e-9
    assert abs(results["estimate"] - 1.0) <= 5 * results["std_error"]
    assert (out / "fig_histograms.csv").exists()


@pytest.mark.parametrize("max_order", [3, 4])
def test_sample_on_a_simulated_source_draws_from_rho_sim(max_order, tmp_path, capsys):
    # lossy selection at max_order 3 keeps only three-pair emissions, so
    # rho_sim is D(6, 3) as a density; at max_order 4 it is a Dicke mixture
    simulate = {"lambda": 0.85, "max_order": max_order, "eta_H": 0.3, "eta_V": 0.3}
    config = write_config(tmp_path, {"simulate": simulate, "events": 1000})
    out = tmp_path / "out"
    assert run_cli(["sample", "--config", config, "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "sample")["results"]
    rho_sim = simulate_experiment(
        SpdcConfig(lam=0.85, max_order=max_order), LossConfig(eta_h=0.3, eta_v=0.3)
    ).rho_sim
    plan = plan_settings(decompose(dicke(6, 3)))
    expected = run_plan(rho_sim, ExperimentPlan(tuple(plan.settings()), 1000, 5))
    lines = (out / "fig_histograms.csv").read_text().splitlines()
    # a header of the outcome bitstrings in index order, bit 0 = qubit 0,
    # then one row per setting with its label written once
    assert lines[0] == "setting," + ",".join(format(i, "06b") for i in range(64))
    assert len(lines) == results["num_settings"] + 1
    assert lines[1].startswith('"' + expected[0].setting.label() + '",')
    table = load_histograms(out / "fig_histograms.csv")
    assert list(table) == [hist.setting.label() for hist in expected]
    for hist in expected:
        assert np.array_equal(table[hist.setting.label()], hist.counts)
    # reports keep 12 significant digits
    direct = fidelity(rho_sim, dicke(6, 3))
    assert results["direct_fidelity"] == float(format(direct, ".12g"))


def test_sample_reports_are_deterministic(tmp_path, capsys):
    config = write_config(tmp_path, {"state": "dicke_4_1", "events": 5000})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(
            ["sample", "--config", config, "--seed", "42", "--out", str(out)]
        ) == 0
    capsys.readouterr()
    assert (out_a / "sample.json").read_bytes() == (out_b / "sample.json").read_bytes()
    assert (
        out_a / "fig_histograms.csv"
    ).read_bytes() == (out_b / "fig_histograms.csv").read_bytes()


def test_sample_seed_changes_counts(tmp_path, capsys):
    config = write_config(tmp_path, {"state": "dicke_4_1", "events": 5000})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["sample", "--config", config, "--seed", "1", "--out", str(out_a)]) == 0
    assert run_cli(["sample", "--config", config, "--seed", "2", "--out", str(out_b)]) == 0
    capsys.readouterr()
    hist_a = load_histograms(out_a / "fig_histograms.csv")
    hist_b = load_histograms(out_b / "fig_histograms.csv")
    assert {k: v.tolist() for k, v in hist_a.items()} != {k: v.tolist() for k, v in hist_b.items()}


def _list_lengths(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _list_lengths(value)
    elif isinstance(node, list):
        yield len(node)
        for value in node:
            yield from _list_lengths(value)


TABULAR_RUNS = {
    "bound": {"num_qubits": 4, "restarts": 3, "alphas": [-1.0, 0.0, 1.0]},
    "scan": {"points": 20},
    "protocols": {"num_qubits": 4},
    "sample": {"state": "dicke_4_1", "events": 500},
    "compare": {},
}


def cell_by_cell_csv(path, header, rows):
    """The table writer the column writer replaced: floats at 12 significant
    digits, every other cell handed to ``csv.writer`` as it is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".12g") if isinstance(v, float) else v for v in row])


def _csv_tables():
    """(name, header, columns, rows) of one table of each shape the CLI writes."""
    rng = np.random.default_rng(12)
    labels = ([MeasurementSetting(axes).label() for axes in ("xyz", "zzz", "yxz")]
              + [MeasurementSetting.direction(0.3 * k, 1.1 + k / 7, 3).label() for k in range(3)])
    counts = rng.integers(0, 10**6, size=(len(labels), 8))
    floats = np.array([1 / 3, -0.0, 1e-20, 123456789012.5, 2.0**0.5 * 1e300, -7.0,
                       0.1 + 0.2, 5e-324, 1234567.890123456, -2.5e-7])
    alphas = np.array([-3.0, 0.5, 2.0, 0.999])
    bounds = np.sqrt(alphas + 4.0) * 3.0
    pairs = [(0, 1), (0, 2), (1, 2), (10, 11)]
    fmax = rng.random(len(pairs))
    text = ['say "hi"', "a,b", "line\nbreak", "", "plain", " lead", "tab\tcell", "n:0.1:0.2"]
    maybe = [0.25, None, 1e-13, None, 3.0, None, -1.5, 2.0 / 3.0]
    return [
        ("histograms", ["setting"] + [format(i, "03b") for i in range(8)],
         [labels, *counts.T.tolist()],
         [[label, *row] for label, row in zip(labels, counts.tolist())]),
        ("scan", ["theta", "correlator", "closed_form"],
         [floats, floats[::-1].copy(), np.cos(floats)],
         list(zip(floats.tolist(), floats[::-1].tolist(), np.cos(floats).tolist()))),
        ("bound_curve", ["alpha", "biseparable_bound"], [alphas, bounds],
         list(zip(alphas.tolist(), bounds.tolist()))),
        ("pair_teleport", ["first_qubit", "second_qubit", "f_max", "ideal_value", "classical"],
         [[i for i, _ in pairs], [j for _, j in pairs], fmax, np.full(4, 2 / 3), np.full(4, 0.5)],
         [[i, j, f, 2 / 3, 0.5] for (i, j), f in zip(pairs, fmax.tolist())]),
        ("compare", ["key", "computed", "count", "none"],
         [text, ["" if v is None else format(v, ".12g") for v in maybe], np.arange(8) * 10**13,
          [None, 1, None, 2, None, 3, None, 4]],
         [[key, "" if v is None else v, 10**13 * k, None if k % 2 == 0 else k // 2 + 1]
          for k, (key, v) in enumerate(zip(text, maybe))]),
        ("one_column", ["only"], [["", "x,y", None]], [[""], ["x,y"], [None]]),
    ]


@pytest.mark.parametrize("table", _csv_tables(), ids=lambda table: table[0])
def test_column_writer_writes_the_cell_by_cell_bytes(table, tmp_path):
    name, header, columns, rows = table
    _write_csv(tmp_path / "columns.csv", header, columns)
    cell_by_cell_csv(tmp_path / "cells.csv", header, rows)
    written = (tmp_path / "columns.csv").read_bytes()
    assert written == (tmp_path / "cells.csv").read_bytes()
    with open(tmp_path / "columns.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == len(rows) + 1
    if name == "histograms":
        # Pauli and Bloch-direction labels hold commas, so they are quoted
        assert b'"x,y,z",' in written and b'"n:0.3:' in written


@pytest.mark.parametrize("n", [1, 10])
def test_histogram_writer_writes_the_csv_writer_bytes(n, tmp_path):
    # the count table is written row by row from the matrix; its bytes
    # must be those of csv.writer on [label, *counts] for every row
    rng = np.random.default_rng(n)
    labels = [MeasurementSetting(axes * n).label() for axes in "xyz"] + [
        MeasurementSetting.direction(0.3 * k, 1.1 + k / 7, n).label() for k in range(3)
    ]
    counts = rng.integers(0, 10**9, size=(len(labels), 2**n), endpoint=True)
    counts[0, 0], counts[1, -1], counts[-1] = 0, 10**9, 0
    header = ["setting"] + [format(i, f"0{n}b") for i in range(2**n)]
    with open(tmp_path / "oracle.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([label, *row] for label, row in zip(labels, counts.tolist()))
    _write_histograms(tmp_path / "rows.csv", n, labels, counts)
    written = (tmp_path / "rows.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    # Pauli and Bloch-direction labels hold commas past one qubit
    quoted = n > 1
    assert (b'"x,x,' in written) == quoted and (b'"n:0.3:' in written) == quoted
    assert b",1000000000\r\n" in written and written.endswith(b",0\r\n")


@pytest.mark.parametrize("command", list(TABULAR_RUNS))
def test_report_names_its_csv_instead_of_repeating_its_rows(command, tmp_path, capsys):
    out = tmp_path / "out"
    if command == "compare":
        # one report that contributes two compared values
        assert run_cli(["protocols", "--out", str(out)]) == 0
    capsys.readouterr()
    config = write_config(tmp_path, TABULAR_RUNS[command])
    assert run_cli([command, "--config", config, "--out", str(out)]) == 0
    wrote = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines()]
    results = load_report(out, command)["results"]
    table = out / results["table_file"]
    rows = load_csv(table)
    assert len(rows) > 1
    # no list in the report has one entry per CSV row
    assert len(rows) not in set(_list_lengths(results))
    assert str(table) in wrote
    assert all(os.path.exists(path) for path in wrote)


def test_qss_with_visibility(tmp_path, capsys):
    config = write_config(tmp_path, {"rounds": 20000, "visibility": 0.5})
    out = tmp_path / "out"
    assert run_cli(["qss", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    results = load_report(out, "qss")["results"]
    assert results["sifted_bits"] > 0
    assert abs(results["qber"] - 0.25) <= 4 * results["qber_error"]


@pytest.mark.parametrize("label", ["w_4", "ghz_3"])
def test_qss_at_full_visibility_reports_the_counts_of_the_state_itself(label, tmp_path, capsys):
    # each state has a zero parity correlator in some basis, whose
    # wrong-parity mass the state and its v = 1 Werner mixture compute a
    # few ulps apart around 1/2
    results = {}
    for name, payload in (("pure", {"state": label}), ("v1", {"state": label, "visibility": 1.0})):
        out = tmp_path / name
        config = write_config(tmp_path, payload, f"{name}.json")
        assert run_cli(["qss", "--config", config, "--out", str(out)]) == 0
        results[name] = load_report(out, "qss")["results"]
    capsys.readouterr()
    assert results["pure"].pop("visibility") is None
    assert results["v1"].pop("visibility") == 1.0
    assert results["pure"] == results["v1"]


def test_compare_collects_reports(tmp_path, capsys):
    out = tmp_path / "out"
    lms_config = write_config(tmp_path, {"state": "dicke_4_2"}, "lms.json")
    assert run_cli(["lms", "--config", lms_config, "--out", str(out)]) == 0
    qss_config = write_config(
        tmp_path, {"rounds": 20000, "visibility": 0.5}, "qss.json"
    )
    assert run_cli(["qss", "--config", qss_config, "--out", str(out)]) == 0
    assert run_cli(["compare", "--out", str(out)]) == 0
    capsys.readouterr()
    keys = {row["key"] for row in load_csv(out / "compare.csv")}
    assert "lms_settings_dicke_4_2" in keys
    assert "qber_six_party" in keys
    assert (out / "compare.csv").exists()


def test_compare_without_inputs_is_config_error(tmp_path, capsys):
    out = tmp_path / "empty"
    assert run_cli(["compare", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no comparable values" in err


def test_compare_missing_explicit_report(tmp_path, capsys):
    config = write_config(tmp_path, {"reports": ["/nonexistent/report.json"]})
    out = tmp_path / "out"
    assert run_cli(["compare", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err
    # a report path that names a directory cannot be read
    config = write_config(tmp_path, {"reports": [str(tmp_path)]})
    assert run_cli(["compare", "--config", config, "--out", str(out)]) == 2
    assert f"{tmp_path}: cannot be read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "report",
    [{"command": "simulate", "results": {}}, [1, 2], {"command": "qss"},
     {"command": ["simulate"], "results": {}}],
)
def test_compare_malformed_report_is_config_error(tmp_path, capsys, report):
    path = write_config(tmp_path, report, "simulate.json")
    config = write_config(tmp_path, {"reports": [path]})
    assert run_cli(["compare", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "not a dickesim report" in capsys.readouterr().err


@pytest.mark.parametrize(
    "report",
    [
        {"command": "bound", "results": {"num_qubits": 6, "bound": "n/a"}},
        {"command": "sample",
         "results": {"target": "dicke_6_3", "estimate": 0.6, "std_error": [0.01]}},
    ],
    ids=["string-bound", "list-std-error"],
)
def test_compare_non_numeric_value_is_config_error(tmp_path, capsys, report):
    path = write_config(tmp_path, report, "report.json")
    config = write_config(tmp_path, {"reports": [path]})
    assert run_cli(["compare", "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert path in err and "not a finite number" in err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, {"staet": "dicke_6_3"})
    assert run_cli(["witness", "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err
    assert "staet" in err


def test_malformed_config_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"state": dicke}')
    assert run_cli(["witness", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "broken.json:1:" in err
    # a config path that names a directory, and a file that is not UTF-8
    assert run_cli(["witness", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert f"{tmp_path}: cannot be read" in capsys.readouterr().err
    path.write_bytes(b'{"state": "dicke_6_3\xff"}')
    assert run_cli(["witness", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "broken.json: not UTF-8" in capsys.readouterr().err


def test_out_that_cannot_be_created_exits_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli(["witness", "--out", str(taken)]) == 2
    assert f"--out {taken}: cannot be created" in capsys.readouterr().err


def test_out_of_range_value_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, {"lambda": 1.5})
    assert run_cli(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config.lambda" in err
    # bound keeps the schema range of its inert restarts key
    for restarts in (1, 2):
        config = write_config(tmp_path, {"restarts": restarts}, name="bound.json")
        assert run_cli(["bound", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "config.restarts" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["state", "witness", "lms", "qss"])
@pytest.mark.parametrize("label", ["dicke_06_3", "ghz_+4", "w_ 4", "ghz_-1"])
def test_state_label_other_than_the_canonical_one_exits_two(command, label, tmp_path, capsys):
    # reports key on the label, so a second spelling of a state is refused;
    # ghz_-1 names no state at all
    config = write_config(tmp_path, {"state": label})
    assert run_cli([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "config.state" in capsys.readouterr().err
    assert not (tmp_path / "o" / f"{command}.json").exists()


@pytest.mark.parametrize("label", ["dicke_40_20", "w_40"])
def test_oversized_state_label_exits_two(label, tmp_path, capsys):
    # rejected before the 2^40 amplitudes are allocated
    config = write_config(tmp_path, {"state": label})
    assert run_cli(["state", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "num_qubits" in capsys.readouterr().err


def test_numerical_failure_exits_three(tmp_path, capsys):
    # two pair orders can never produce a sixfold event
    config = write_config(tmp_path, {"max_order": 2})
    assert run_cli(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "NoSixfoldEventsError" in err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_qss_without_kept_rounds_writes_strict_json(tmp_path, capsys):
    config = write_config(tmp_path, {"rounds": 1})
    out = tmp_path / "o"
    assert run_cli(["qss", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "qss.json") as fh:
        results = json.load(fh, parse_constant=_reject_constant)["results"]
    assert results["sifted_bits"] == 0
    assert results["qber"] is None
    assert results["qber_error"] is None


@pytest.mark.parametrize(
    "command, key",
    [("witness", "alpha"), ("bound", "alpha"), ("bound", "alphas[0]"), ("simulate", "lambda")],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e308, -1e308])
def test_non_finite_config_number_exits_two(tmp_path, capsys, command, key, value):
    # alpha beyond witness.MAX_ALPHA overflows W(alpha) as inf does
    name, indexed, _ = key.partition("[")
    config = write_config(tmp_path, {name: [value] if indexed else value})
    assert run_cli([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert f"config.{key}" in capsys.readouterr().err


def test_alpha_at_the_limit_is_accepted(tmp_path, capsys):
    # |alpha| = witness.MAX_ALPHA itself is inside the bound, with either sign
    runs = [("witness", {"alpha": 1e12}),
            ("bound", {"num_qubits": 4, "alpha": -1e12, "alphas": [1e12]})]
    for command, payload in runs:
        config = write_config(tmp_path, payload)
        assert run_cli([command, "--config", config, "--out", str(tmp_path / "o")]) == 0
        assert load_report(tmp_path / "o", command)["config"]["alpha"] == payload["alpha"]
    capsys.readouterr()


def test_unexpected_exception_propagates(tmp_path, monkeypatch):
    # a bare ValueError is a bug too, not a numerical failure
    from dickesim import cli

    for error in (TypeError, ValueError):
        def broken(config, ctx, error=error):
            raise error("handler bug")

        entry = dataclasses.replace(cli.COMMANDS["witness"], handler=broken)
        monkeypatch.setitem(cli.COMMANDS, "witness", entry)
        with pytest.raises(error, match="handler bug"):
            run_cli(["witness", "--out", str(tmp_path / "o")])


def test_installed_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "dickesim.cli", "witness", "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "wrote" in result.stdout
    # the package does not import the CLI, so the module run warns of nothing
    assert result.stderr == ""
