"""Batch command-line front end.

Usage: dickesim COMMAND [--config PATH] [--seed U64] [--out DIR]

One command per activity, each one entry of ``COMMANDS``: its handler,
its line in ``-h``, its config schema and, for a command that ``compare``
reads, the map from its results to reference keys.  The flags may come
before or after the command, and ``-h`` lists every command.  Every
command reads an optional JSON config (schema-validated, unknown keys
rejected) and writes a JSON report of summary values embedding the
config hash and package version.
A command with tabular output writes its rows once, to a plot-ready CSV
that the report names in ``table_file`` (bound with ``alphas``, scan,
sample, protocols, compare); ``state`` and ``simulate`` write their
state the same way.  Outputs are deterministic for fixed seeds; floats
are printed with 12 significant digits.

Exit codes: 0 ok, 2 config error (including a witness weight ``alpha``
beyond +-``witness.MAX_ALPHA`` = 1e12, a setting strategy that does not
fit the target, a navigation that revisits a qubit, names one out of
range or leaves none, a compared report whose values are not numbers,
and a config file, compared report or ``--out`` directory that cannot be
read or created), 3 numerical failure (no sixfold events, an impossible
measurement outcome, an arithmetic or linear-algebra error); any other
exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .dicke_states import OUTCOME_KETS, NavigationStep, _projections, dicke, ghz, w_state
from .fock import MAX_ORDER, LossConfig, NoSixfoldEventsError, SpdcConfig, simulate_experiment
from .lms import STRATEGIES, decompose, fidelity_from_matrix, plan_settings, reference_lms_table
from .protocols import (
    odt_report, pair_channel, psi_plus_fraction, qss_run, telecloning_report, werner,
)
from .references import compare_values
from .sampling import ExperimentPlan, count_matrix
from .states import MAX_QUBITS, ImpossibleOutcomeError, fidelity, save_state
from .witness import (
    MAX_ALPHA, PLANES, _SpinMoments, biseparable_bound, bound_curve, correlator_scan, dephased,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_REQUIRED = object()


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Schema validation


def _number(lo=None, hi=None, hi_exclusive=False):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        v = float(value)
        if not math.isfinite(v):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        if lo is not None and v < lo:
            raise ConfigError(f"{path}: {v} is below the minimum {lo}")
        if hi is not None and (v >= hi if hi_exclusive else v > hi):
            bound = f"< {hi}" if hi_exclusive else f"<= {hi}"
            raise ConfigError(f"{path}: {v} violates {bound}")
        return v

    return check


def _integer(lo=None, hi=None):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        if lo is not None and value < lo:
            raise ConfigError(f"{path}: {value} is below the minimum {lo}")
        if hi is not None and value > hi:
            raise ConfigError(f"{path}: {value} is above the maximum {hi}")
        return int(value)

    return check


def _string(choices=None):
    def check(value, path):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(
                f"{path}: {value!r} is not one of {sorted(choices)}"
            )
        return value

    return check


def _boolean():
    def check(value, path):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value

    return check


def _list_of(item_check, max_len=None):
    def check(value, path):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a nonempty list")
        if max_len is not None and len(value) > max_len:
            raise ConfigError(f"{path}: {len(value)} entries, at most {max_len} allowed")
        return [item_check(v, f"{path}[{k}]") for k, v in enumerate(value)]

    return check


def _nested(schema):
    def check(value, path):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        return validate(value, schema, path)

    return check


_navigation_step = _nested({
    "qubit": (_integer(0, MAX_QUBITS - 1), _REQUIRED),
    "outcome": (_string(OUTCOME_KETS), _REQUIRED),
})


def validate(config, schema, path="config") -> dict:
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = sorted(set(config) - set(schema))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(schema)}")
    out = {}
    for key, (check, default) in schema.items():
        if key in config:
            out[key] = check(config[key], f"{path}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{path}: missing required key {key!r}")
        else:
            out[key] = default
    return out


SIMULATE_SCHEMA = {
    "lambda": (_number(0.0, 1.0, hi_exclusive=True), 0.65),
    "max_order": (_integer(1, MAX_ORDER), 4),
    "eta_H": (_number(0.0, 1.0), 1.0),
    "eta_V": (_number(0.0, 1.0), 1.0),
    # pulsed-pump repetition rate in Hz, only used to turn the per-pulse
    # event probability into a rate figure for comparison reports
    "rep_rate": (_number(0.0, 1e12), 8.0e7),
}

# a witness weight: biseparable_bound refuses one beyond MAX_ALPHA
_alpha = _number(-MAX_ALPHA, MAX_ALPHA)


# ---------------------------------------------------------------------------
# Report plumbing


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _round_floats(obj):
    """Canonicalize a report tree: floats to 12 significant digits."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return _round_floats(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def config_digest(config: dict) -> str:
    canonical = json.dumps(_round_floats(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_report(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_round_floats(payload), fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _write_csv(path: str, header: list, columns: list) -> None:
    """Write a table given column by column through ``csv.writer``: the
    bound curve, correlator scan, pair-teleport and compare tables (the
    count table has its own row writer, ``_write_histograms``).

    A numpy float array is written at 12 significant digits, as ``_fmt``
    writes each value; any other column's cells as ``csv.writer`` writes
    them (strings quoted where needed, ints as digits, None empty).  The
    kind of a column is read once, not cell by cell.
    """
    cells = [
        list(map(_fmt, column.tolist()))
        if hasattr(column, "dtype") and column.dtype.kind == "f" else column
        for column in columns
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def _write_histograms(path: str, n: int, labels: list, counts: np.ndarray) -> None:
    """Write an (S, 2^N) count matrix with one label per row: a header of
    ``setting`` and the N-bit outcome strings, then one line per row.

    The bytes are those ``csv.writer`` writes for [label, *counts]: it
    still writes each label, quoted where needed, with an empty field
    after it for the delimiter, and a row's 2^N counts go through one
    ``%d`` template, straight from the matrix.
    """
    counts_line = ",".join(["%d"] * 2**n) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["setting"] + [format(i, f"0{n}b") for i in range(2**n)])
        label_writer = csv.writer(fh, lineterminator="")
        for label, row in zip(labels, counts.tolist()):
            label_writer.writerow([label, ""])
            fh.write(counts_line % tuple(row))


@dataclass(frozen=True)
class Context:
    seed: int
    out_dir: str
    written: list = field(default_factory=list)

    def path(self, name: str) -> str:
        """``name`` in the output directory, recorded as a file the run writes."""
        target = os.path.join(self.out_dir, name)
        self.written.append(target)
        return target


def _parse_state_label(label: str, path: str = "config.state"):
    parts = label.split("_")
    builders = {("dicke", 3): dicke, ("ghz", 2): ghz, ("w", 2): w_state}
    build = builders.get((parts[0], len(parts)))
    if build is None:
        raise ConfigError(
            f"{path}: unknown state label {label!r}; use dicke_N_M, ghz_N, or w_N"
        )
    try:
        state = build(*(int(part) for part in parts[1:]))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # reports key on the label, so only the state's own spelling is accepted
    if state.label != label:
        raise ConfigError(f"{path}: state label {label!r} is not canonical; use {state.label!r}")
    return state


def _simulate(sim: dict):
    """Run the source model on a validated ``SIMULATE_SCHEMA`` config."""
    return simulate_experiment(
        SpdcConfig(lam=sim["lambda"], max_order=sim["max_order"]),
        LossConfig(eta_h=sim["eta_H"], eta_v=sim["eta_V"]),
    )


def _plan(decomp, strategy: str | None):
    """plan_settings, with a strategy that does not fit the target (greedy
    above its qubit cap, a design that does not span it) as a config error."""
    try:
        return plan_settings(decomp, strategy=strategy)
    except ValueError as exc:
        raise ConfigError(f"config.strategy: {exc}") from exc


# ---------------------------------------------------------------------------
# Command handlers: each returns a results dict


def cmd_state(config: dict, ctx: Context) -> dict:
    state = _parse_state_label(config["state"])
    amps = np.abs(state.amplitudes)
    results = {
        "state": config["state"],
        "num_qubits": state.num_qubits,
        "support": int(np.count_nonzero(amps > 1e-12)),
        "max_amplitude": float(amps.max()),
    }
    final = state
    if config["navigate"]:
        steps = [NavigationStep(s["qubit"], s["outcome"]) for s in config["navigate"]]
        # one pass; the running product is navigate's, and each step's
        # probability is the ratio of its product to the one before
        total, chain = 1.0, []
        try:
            for final, p in _projections(state, steps):
                previous = total
                total *= p
                chain.append(total / previous)
        except ImpossibleOutcomeError:
            raise
        except ValueError as exc:
            # a revisited or out-of-range qubit, or no qubit left
            raise ConfigError(f"config.navigate: {exc}") from exc
        results["navigation"] = {
            "steps": [dict(s) for s in config["navigate"]],
            "probability": total,
            "per_step": chain,
            "final_num_qubits": final.num_qubits,
        }
    save_state(final, ctx.path("state_vector.json"))
    results["state_file"] = "state_vector.json"
    return results


def cmd_simulate(config: dict, ctx: Context) -> dict:
    outcome = _simulate(config)
    save_state(outcome.rho_sim, ctx.path("rho_sim.json"))
    results = outcome.report()
    results["rep_rate"] = config["rep_rate"]
    results["sixfold_rate_per_s"] = config["rep_rate"] * results["p_event"]
    results["rho_file"] = "rho_sim.json"
    return results


def cmd_witness(config: dict, ctx: Context) -> dict:
    state = _parse_state_label(config["state"])
    alpha = config["alpha"]
    # one read of the three settings, summed as witness_value sums them
    moments = _SpinMoments.read(state)
    return {
        "state": config["state"],
        "num_qubits": state.num_qubits,
        "alpha": alpha,
        "witness_value": float(moments.witness(alpha)),
        "jx_sq": moments.jx_sq,
        "jy_sq": moments.jy_sq,
        "jz_sq": moments.jz_sq,
    }


def cmd_bound(config: dict, ctx: Context) -> dict:
    n = config["num_qubits"]
    label = config["state"]
    if label is None and n % 2 == 0:
        label = f"dicke_{n}_{n // 2}"
    state = _parse_state_label(label) if label else None
    if state is not None and state.num_qubits != n:
        raise ConfigError(
            f"config.state: {label} has {state.num_qubits} qubits, expected {n}"
        )
    estimate = biseparable_bound(n, alpha=config["alpha"])
    results = {
        "num_qubits": n,
        "alpha": config["alpha"],
        "bound": estimate.value,
        "classes": [asdict(cls) for cls in estimate.classes],
    }
    if state is not None:
        # <W(alpha)> as witness_value sums it, from one read of the three
        # settings for every alpha
        moments = _SpinMoments.read(state)
        value = float(moments.witness(config["alpha"]))
        results["state_value"] = value
        results["gap"] = estimate.value - value
    if config["alphas"]:
        alphas, bounds = np.array(bound_curve(n, config["alphas"])).T
        header, columns = ["alpha", "biseparable_bound"], [alphas, bounds]
        if state is not None:
            header.append("state_value")
            columns.append(moments.witness(alphas))
        _write_csv(ctx.path("fig_bound_curve.csv"), header, columns)
        results["table_file"] = "fig_bound_curve.csv"
    return results


def cmd_scan(config: dict, ctx: Context) -> dict:
    state = _parse_state_label(config["state"])
    if config["dephased"]:
        source = dephased(state)
    else:
        source = state
    thetas = np.linspace(0.0, math.pi, config["points"])
    values = correlator_scan(source, config["plane"], thetas)
    results = {
        "state": config["state"],
        "plane": config["plane"],
        "dephased": config["dephased"],
        "points": config["points"],
        "table_file": "fig_correlator_scan.csv",
    }
    header = ["theta", "correlator"]
    columns = [thetas, values]
    if config["state"] == "dicke_6_3" and not config["dephased"]:
        closed = (3.0 * np.cos(2.0 * thetas) + 5.0 * np.cos(6.0 * thetas)) / 8.0
        header.append("closed_form")
        columns.append(closed)
        results["max_closed_form_deviation"] = float(np.abs(values - closed).max())
    _write_csv(ctx.path("fig_correlator_scan.csv"), header, columns)
    return results


def cmd_lms(config: dict, ctx: Context) -> dict:
    decomp = decompose(_parse_state_label(config["state"]))
    plan = _plan(decomp, config["strategy"])
    return {
        "target": config["state"],
        "strategy": plan.method,
        "term_count": len(decomp),
        "identity_coefficient": decomp.identity_coefficient,
        "num_settings": plan.num_settings,
        "published_count": reference_lms_table().get(config["state"]),
        "settings": [a.setting.label() for a in plan.assignments],
        "strings_per_setting": [len(a.covered) for a in plan.assignments],
        "collective_strings": len(decomp) - 1 if plan.collective_classes else 0,
    }


def cmd_sample(config: dict, ctx: Context) -> dict:
    """Estimate a target's fidelity from sampled counts: plan the target's
    settings, draw the plan's (S, 2^N) count matrix from the source
    (``count_matrix``), read the estimate from it, and write the matrix as
    it is, one line per setting, to fig_histograms.csv
    (``_write_histograms``)."""
    if config["simulate"] is not None:
        source = _simulate(config["simulate"]).rho_sim
        source_desc = {"simulate": config["simulate"]}
        target_label = config["target"] or "dicke_6_3"
    else:
        source = _parse_state_label(config["state"])
        source_desc = {"state": config["state"]}
        target_label = config["target"] or config["state"]
    target = _parse_state_label(target_label, "config.target")
    if target.num_qubits != source.num_qubits:
        raise ConfigError(
            f"config.target: {target_label} has {target.num_qubits} qubits, "
            f"the source has {source.num_qubits}"
        )
    decomp = decompose(target)
    plan = _plan(decomp, config["strategy"])
    experiment = ExperimentPlan(
        settings=tuple(plan.settings()),
        events_per_setting=config["events"],
        seed=ctx.seed,
    )
    counts = count_matrix(source, experiment)
    estimate = fidelity_from_matrix(decomp, plan, counts)
    direct = fidelity(source, target)
    deviation = (
        abs(estimate.value - direct) / estimate.std_error
        if estimate.std_error > 0
        else None
    )
    # each setting's label is computed once, by the estimate
    _write_histograms(
        ctx.path("fig_histograms.csv"),
        target.num_qubits,
        [setting.label for setting in estimate.per_setting],
        counts,
    )
    return {
        "target": target_label,
        "source": source_desc,
        "num_qubits": target.num_qubits,
        "strategy": plan.method,
        "events_per_setting": config["events"],
        "num_settings": plan.num_settings,
        "estimate": estimate.value,
        "std_error": estimate.std_error,
        "direct_fidelity": direct,
        "deviation_sigma": deviation,
        "table_file": "fig_histograms.csv",
    }


def cmd_protocols(config: dict, ctx: Context) -> dict:
    n = config["num_qubits"]
    if n % 2:
        raise ConfigError("config.num_qubits: protocols need an even qubit count")
    if config["simulate"] is not None:
        if n != 6:
            raise ConfigError(
                "config.num_qubits: the source simulation emits six qubits"
            )
        state = _simulate(config["simulate"]).rho_sim
        source_desc = {"simulate": config["simulate"]}
    else:
        state = dicke(n, n // 2)
        source_desc = {"state": f"dicke_{n}_{n // 2}"}
    telecloning = telecloning_report(state)
    odt = odt_report(state)
    pair = pair_channel(state, 0, 1)
    pairs = sorted(telecloning.pair_fidelity.items())
    ideal = telecloning.ideal_threshold
    classical = telecloning.classical_threshold
    _write_csv(
        ctx.path("fig_pair_teleport_fidelity.csv"),
        ["first_qubit", "second_qubit", "f_max", "ideal_value", "classical_threshold"],
        [[i for (i, _), _ in pairs], [j for (_, j), _ in pairs],
         np.array([value for _, value in pairs]),
         np.full(len(pairs), ideal), np.full(len(pairs), classical)],
    )
    return {
        "num_qubits": n,
        "source": source_desc,
        "pair": {
            "psi_plus_fraction": psi_plus_fraction(pair),
        },
        "odt": {
            "p_success": odt.p_success,
            "mean_heralded_fidelity": odt.mean_heralded_fidelity,
            "channel_consistency": odt.channel_consistency,
            "num_patterns": len(odt.patterns),
        },
        "teleport": {
            "f_max": pairs[0][1],
            "ideal": ideal,
            "classical": classical,
            "symmetric_pairs": telecloning.symmetric,
            "all_above_classical": telecloning.all_above_classical,
        },
        "table_file": "fig_pair_teleport_fidelity.csv",
    }


def cmd_qss(config: dict, ctx: Context) -> dict:
    state = _parse_state_label(config["state"])
    if config["visibility"] is not None:
        source = werner(state.num_qubits, config["visibility"], base=state)
    else:
        source = state
    run = qss_run(source, config["rounds"], seed=ctx.seed)
    qber_error = (
        math.sqrt(max(run.qber * (1.0 - run.qber), 0.0) / run.sifted_bits)
        if run.sifted_bits
        else None
    )
    return {
        "state": config["state"],
        "num_qubits": state.num_qubits,
        "visibility": config["visibility"],
        "rounds": run.rounds,
        "sifted_bits": run.sifted_bits,
        "sift_rate": run.sift_rate,
        "expected_sift_rate": run.expected_sift_rate,
        "qber": run.qber,
        "qber_error": qber_error,
        "qber_error_flagged": run.errors == 0,
        "errors": run.errors,
        "per_basis": run.per_basis,
    }


def _extract_computed(report: dict) -> dict:
    command = COMMANDS.get(report.get("command"))
    if command is None or command.references is None:
        return {}
    return command.references(report.get("results", {}))


def _qss_references(results: dict) -> dict:
    key = {4: "qber_four_party", 6: "qber_six_party"}.get(results["num_qubits"])
    if key is None or results["qber_error"] is None:
        return {}
    return {key: (results["qber"], results["qber_error"])}


def _comparable(value) -> bool:
    """A finite number, or a (value, error) pair of finite numbers."""
    items = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value]
    return all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in items
    )


def cmd_compare(config: dict, ctx: Context) -> dict:
    if config["reports"] is not None:
        paths = list(config["reports"])
        optional = False
    else:
        # the reports of the commands that compare reads, in table order
        paths = [
            os.path.join(ctx.out_dir, f"{name}.json")
            for name, command in COMMANDS.items() if command.references is not None
        ]
        optional = True
    computed = {}
    used = []
    for path in paths:
        if optional and not os.path.exists(path):
            continue
        report = _read_json(path, "config.reports:")
        try:
            extracted = _extract_computed(report)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: not a dickesim report: {type(exc).__name__}: {exc}") from exc
        for key, value in extracted.items():
            if not _comparable(value):
                raise ConfigError(
                    f"{path}: {key} is not a finite number or a [value, error] pair: {value!r}"
                )
        if extracted:
            used.append(os.path.basename(path))
            computed.update(extracted)
    rows = compare_values(computed)
    if not rows:
        raise ConfigError(
            "no comparable values found; run other subcommands into this "
            "output directory first or pass config.reports"
        )
    # numbers at 12 significant digits, a missing uncertainty or sigma empty
    fields = ["computed", "computed_error", "reference", "reference_error", "deviation", "sigma"]
    _write_csv(
        ctx.path("compare.csv"),
        ["key", *fields],
        [[r.key for r in rows]] + [
            ["" if getattr(r, name) is None else _fmt(getattr(r, name)) for r in rows]
            for name in fields
        ],
    )
    return {"sources": used, "table_file": "compare.csv"}


@dataclass(frozen=True)
class Command:
    """One command: ``handler(config, ctx)`` returns its results, ``help`` is
    its line in ``-h`` and ``schema`` validates its config; ``references``,
    for a command that ``compare`` reads, maps its results to reference keys."""

    handler: Callable[[dict, Context], dict]
    help: str
    schema: dict
    references: Callable[[dict], dict] | None = None


# -h lists the commands in this order, and compare, last, reads the others'
# reports in it
COMMANDS = {
    "state": Command(cmd_state, "construct a named state, optionally navigating by measurements", {
        "state": (_string(), "dicke_6_3"),
        "navigate": (_list_of(_navigation_step), None),
    }),
    "simulate": Command(
        cmd_simulate, "run the down-conversion source model end to end", SIMULATE_SCHEMA,
        lambda r: {"three_pair_selection_probability": r["p_exact"],
                   "simulated_state_fidelity": r["fidelity_vs_D63"],
                   "sixfold_rate_per_s": r["sixfold_rate_per_s"]},
    ),
    "witness": Command(cmd_witness, "evaluate the collective-spin witness on an ideal state", {
        "state": (_string(), "dicke_6_3"),
        "alpha": (_alpha, 0.0),
    }),
    "bound": Command(cmd_bound, "optimize the biseparable bound, optionally over a grid", {
        "num_qubits": (_integer(2, MAX_QUBITS), 6),
        "alpha": (_alpha, 0.0),
        # each entry is a full bound
        "alphas": (_list_of(_alpha, max_len=64), None),
        # inert: the see-saw starts from a fixed set of polar angles
        "restarts": (_integer(3, 500), 50),
        "state": (_string(), None),
    }, lambda r: {f"biseparable_bound_n{r['num_qubits']}": r["bound"]}),
    "scan": Command(cmd_scan, "sweep the full-product correlator over a measurement plane", {
        "state": (_string(), "dicke_6_3"),
        "plane": (_string(PLANES), "xz"),
        "points": (_integer(2, 100000), 100),
        "dephased": (_boolean(), False),
    }),
    "lms": Command(cmd_lms, "decompose a projector and plan measurement settings", {
        "state": (_string(), "dicke_6_3"),
        # None: symmetric, which plans every label; greedy only by name
        "strategy": (_string(STRATEGIES), None),
    }, lambda r: {f"lms_settings_{r['target']}": r["num_settings"]}),
    "sample": Command(cmd_sample, "sample counts and estimate fidelity from them", {
        "state": (_string(), "dicke_4_2"),
        "simulate": (_nested(SIMULATE_SCHEMA), None),
        "target": (_string(), None),
        "strategy": (_string(STRATEGIES), None),
        "events": (_integer(1, 10**9), 100000),
    }, lambda r: {f"fidelity_{r['target']}": (r["estimate"], r["std_error"])}),
    "protocols": Command(cmd_protocols, "evaluate pair extraction, teleportation, and heralding", {
        "num_qubits": (_integer(4, 8), 6),
        # inert: the singlet fraction has a closed form and needs no search
        "restarts": (_integer(1, 500), 32),
        "simulate": (_nested(SIMULATE_SCHEMA), None),
    }, lambda r: {"odt_success_mean": r["odt"]["p_success"],
                  "heralded_pair_fidelity_mean": r["odt"]["mean_heralded_fidelity"]}),
    "qss": Command(cmd_qss, "simulate parity-based secret-sharing rounds", {
        "state": (_string(), "dicke_6_3"),
        "rounds": (_integer(1, 10**8), 10000),
        "visibility": (_number(0.0, 1.0), None),
    }, _qss_references),
    "compare": Command(cmd_compare, "tabulate computed values against the published references", {
        "reports": (_list_of(_string()), None),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command and the three flags, in any order."""
    width = max(map(len, COMMANDS))
    commands = "\n".join(f"  {name:<{width}}  {c.help}" for name, c in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="dickesim",
        usage="%(prog)s COMMAND [--config PATH] [--seed U64] [--out DIR]",
        description="Batch computations for symmetric multiphoton states.",
        epilog=f"commands:\n{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=COMMANDS, metavar="COMMAND", help="one of the commands below"
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, default=0, metavar="U64")
    parser.add_argument("--out", default="out", metavar="DIR")
    return parser


def _read_json(path: str, name: str):
    """The JSON value in the file at ``path``.  A file that is missing,
    unreadable, not UTF-8 or malformed is a config error; ``name`` says
    what the path is in the message for a missing one."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{name} {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot be read: {exc.strerror}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    raw = _read_json(path, "config file")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


# exceptions reported as numerical failures (exit 3); any other exception,
# a bare ValueError included, is a bug and keeps its traceback
NUMERICAL_ERRORS = (NoSixfoldEventsError, ImpossibleOutcomeError, ArithmeticError,
                    np.linalg.LinAlgError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seed >= 2**64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return EXIT_CONFIG
    try:
        raw = _load_config(args.config)
        command = COMMANDS[args.command]
        config = validate(raw, command.schema)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot be created: {exc.strerror}") from exc
        ctx = Context(seed=args.seed, out_dir=args.out)
        results = command.handler(config, ctx)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = {
        "command": args.command,
        "seed": args.seed,
        "config": config,
        "config_sha256": config_digest(config),
        "version": __version__,
        "results": results,
    }
    report_path = os.path.join(args.out, f"{args.command}.json")
    write_report(report_path, report)
    for path in [report_path, *ctx.written]:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
