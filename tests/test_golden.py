"""Golden outputs: every entry of ``golden.json`` replayed through the CLI.

An entry is one or more CLI steps (command, config, ``--seed``) that write
into one output directory, the reason it is pinned, and a record of every
file those steps write: the file's SHA-256; for a JSON file a short digest
per top-level key and, for a report, its ``results`` inline; for a CSV file
a short digest per row (row 0 is the header).  The test replays each entry
in process through ``dickesim.cli.main`` and fails on a missing, extra or
changed file, or on a JSON file that is not strict JSON, naming the file and
the first ``results`` key, top-level key or CSV row that differs.

Counts come from numpy's ``Generator`` and probabilities from BLAS, so the
manifest records the numpy and Python versions it was written with.  The
bytes decide: a run on another numpy passes when every file matches, and
when one does not, the failure also names both versions.

Run as a script, ``PYTHONPATH=src python tests/test_golden.py`` replays
every entry and rewrites the file records and versions of the manifest in
place.  To pin a new config, add an entry with its name, reason and steps
and an empty ``files`` object, then rewrite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shutil
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from dickesim.cli import main

MANIFEST = Path(__file__).with_name("golden.json")


def load_manifest(path=MANIFEST) -> dict:
    with open(path) as fh:
        return json.load(fh)


def replay(entry: dict, workdir: Path) -> Path:
    """Run the entry's steps into ``workdir / name``; return that directory.
    Each step's config file is written beside it, not into it."""
    out = workdir / entry["name"]
    for k, step in enumerate(entry["steps"]):
        config = workdir / f"{entry['name']}-{k}.json"
        config.write_text(json.dumps(step["config"]))
        argv = [step["command"], "--config", str(config), "--seed", str(step["seed"]),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise AssertionError(f"{entry['name']}: dickesim {' '.join(argv)} exited {code}")
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _refuse_non_finite(token):
    raise ValueError(f"not strict JSON: holds {token}")


def record_file(path: Path) -> dict:
    """The manifest's record of one written file; ValueError for a JSON
    file that holds NaN or Infinity."""
    data = path.read_bytes()
    record = {"sha256": hashlib.sha256(data).hexdigest()}
    if path.suffix == ".json":
        tree = json.loads(data, parse_constant=_refuse_non_finite)
        record["keys"] = {
            key: _digest(json.dumps(value, sort_keys=True).encode())
            for key, value in tree.items() if key != "results"
        }
        if "results" in tree:
            record["results"] = tree["results"]
    elif path.suffix == ".csv":
        record["rows"] = [_digest(row) for row in data.splitlines()]
    return record


def _written_names(out: Path) -> list[str]:
    return sorted(path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file())


def record_dir(out: Path) -> dict:
    return {name: record_file(out / name) for name in _written_names(out)}


def _first_difference(label, recorded, written):
    """(label, recorded, written) at the first value that differs, or None."""
    if type(recorded) is not type(written):
        return label, recorded, written
    if isinstance(recorded, dict):
        for key in sorted(recorded.keys() | written.keys()):
            found = _first_difference(f"{label}.{key}", recorded.get(key), written.get(key))
            if found:
                return found
        return None
    if isinstance(recorded, list):
        for k, pair in enumerate(zip_longest(recorded, written)):
            found = _first_difference(f"{label}[{k}]", *pair)
            if found:
                return found
        return None
    return None if recorded == written else (label, recorded, written)


def _file_difference(name: str, recorded: dict, written: dict) -> str:
    """Where a written file departs from its record, as one message."""
    found = _first_difference("results", recorded.get("results"), written.get("results"))
    if found:
        return f"{name}: {found[0]} is {found[2]!r}, recorded {found[1]!r}"
    before, after = recorded.get("keys", {}), written.get("keys", {})
    for key in sorted(before.keys() | after.keys()):
        if before.get(key) != after.get(key):
            return f"{name}: key {key!r} differs"
    for row, pair in enumerate(zip_longest(recorded.get("rows", []), written.get("rows", []))):
        if pair[0] != pair[1]:
            return f"{name}: row {row} differs (row 0 is the header)"
    return f"{name}: sha256 {written['sha256']}, recorded {recorded['sha256']}"


def failures(manifest: dict, entry: dict, out: Path) -> list[str]:
    """Every way the files in ``out`` depart from the entry's record."""
    recorded = entry["files"]
    names = set(_written_names(out))
    found = [f"{name}: recorded but not written" for name in sorted(recorded.keys() - names)]
    found += [f"{name}: written but not recorded" for name in sorted(names - recorded.keys())]
    for name in sorted(names & recorded.keys()):
        try:
            written = record_file(out / name)
        except ValueError as exc:
            found.append(f"{name}: {exc}")
            continue
        if written["sha256"] != recorded[name]["sha256"]:
            found.append(_file_difference(name, recorded[name], written))
    if found and manifest["numpy"] != np.__version__:
        found.append(
            f"the manifest was written with numpy {manifest['numpy']} (Python "
            f"{manifest['python']}), this run uses numpy {np.__version__} (Python "
            f"{platform.python_version()})"
        )
    return found


def rewrite(path=MANIFEST) -> None:
    """Replay every entry and record what it writes, with the versions."""
    manifest = load_manifest(path)
    with tempfile.TemporaryDirectory() as work:
        for entry in manifest["entries"]:
            entry["files"] = record_dir(replay(entry, Path(work)))
    manifest["numpy"] = np.__version__
    manifest["python"] = platform.python_version()
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


GOLDEN = load_manifest()


@pytest.mark.parametrize("entry", GOLDEN["entries"], ids=lambda entry: entry["name"])
def test_entry_writes_its_recorded_files(entry, tmp_path):
    found = failures(GOLDEN, entry, replay(entry, tmp_path))
    assert not found, f"{entry['name']} ({entry['reason']}):\n" + "\n".join(found)


# The comparison itself, on one cheap entry with a report and a CSV,
# against a tmp copy of the manifest.
TAMPERED = "bound-n3-restarts-500"


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    (entry,) = [entry for entry in GOLDEN["entries"] if entry["name"] == TAMPERED]
    return replay(entry, tmp_path_factory.mktemp("golden"))


@pytest.fixture
def tampered(tmp_path, written):
    """(manifest copy loaded from tmp, the tampered entry, its own written files)"""
    shutil.copy(MANIFEST, tmp_path / "golden.json")
    manifest = load_manifest(tmp_path / "golden.json")
    (entry,) = [entry for entry in manifest["entries"] if entry["name"] == TAMPERED]
    return manifest, entry, Path(shutil.copytree(written, tmp_path / "out"))


def test_untampered_entry_matches(tampered):
    assert failures(*tampered) == []


def test_changed_report_value_names_file_and_key(tampered):
    manifest, entry, out = tampered
    report = json.loads((out / "bound.json").read_text())
    report["results"]["classes"][0]["value"] += 1e-9
    (out / "bound.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    (message,) = failures(manifest, entry, out)
    assert message.startswith("bound.json: results.classes[0].value is ")


def test_changed_csv_cell_names_file_and_row(tampered):
    manifest, entry, out = tampered
    table = out / "fig_bound_curve.csv"
    rows = table.read_text().splitlines(keepends=True)
    rows[3] = rows[3].replace(",", ",9", 1)
    table.write_text("".join(rows))
    assert failures(manifest, entry, out) == [
        "fig_bound_curve.csv: row 3 differs (row 0 is the header)"
    ]


def test_extra_and_missing_files_are_named(tampered):
    manifest, entry, out = tampered
    (out / "bound.json").rename(out / "extra.json")
    assert failures(manifest, entry, out) == [
        "bound.json: recorded but not written", "extra.json: written but not recorded"
    ]


def test_non_finite_json_is_named(tampered):
    manifest, entry, out = tampered
    report = out / "bound.json"
    report.write_text(report.read_text().replace('"bound": ', '"bound": NaN, "was": ', 1))
    assert failures(manifest, entry, out) == ["bound.json: not strict JSON: holds NaN"]


def test_other_numpy_version_alone_passes(tampered):
    manifest, entry, out = tampered
    manifest["numpy"] = "1.0.0"
    assert failures(manifest, entry, out) == []


def test_other_numpy_version_is_named_beside_a_difference(tampered):
    manifest, entry, out = tampered
    manifest["numpy"] = "1.0.0"
    (out / "bound.json").rename(out / "extra.json")
    *differences, note = failures(manifest, entry, out)
    assert differences == [
        "bound.json: recorded but not written", "extra.json: written but not recorded"
    ]
    assert note == (
        f"the manifest was written with numpy 1.0.0 (Python {manifest['python']}), "
        f"this run uses numpy {np.__version__} (Python {platform.python_version()})"
    )


def test_ci_installs_the_manifest_numpy():
    # the bytes are recorded on one numpy; CI replays them on the same one
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
    assert f'"numpy=={GOLDEN["numpy"]}"' in workflow.read_text()


if __name__ == "__main__":
    rewrite()
