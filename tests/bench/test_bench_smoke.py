"""Smoke test of the repo's benchmark (``BENCHMARK.json`` + ``bench/``).

Validates the declaration against the limits of its contract and runs
``bench/run.py --smoke`` (the smallest cell of each workload, traced),
asserting that every declared metric is printed by name with its unit.
"""

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_declaration_is_within_the_contract(declaration):
    assert set(declaration) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    assert 1 <= declaration["run_seconds"] <= 60
    names = []
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in declaration["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declaration["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in declaration["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in declaration["end_to_end"])


def test_every_layer_metric_names_what_it_should_move(declaration):
    with open(os.path.join(ROOT, "bench", "interactions.json")) as fh:
        interactions = json.load(fh)
    end_to_end = {m["name"] for m in declaration["end_to_end"]}
    workloads = {w["name"] for w in declaration["workloads"]}
    assert set(interactions) == {m["name"] for m in declaration["per_layer"]}
    for name, target in interactions.items():
        assert target["moves"] in end_to_end, name
        assert target["on"] and set(target["on"]) <= workloads, name


def test_smoke_run_prints_every_declared_metric(declaration, tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    sections = proc.stdout.split("\n== ")[1:]
    assert len(sections) == len(declaration["workloads"])
    for workload, section in zip(declaration["workloads"], sections):
        assert section.startswith(workload["name"] + ":")
        assert "0 failed, outputs correct" in section
        printed = {
            tuple(line.split()[:2]) for line in section.splitlines()[1:]
        }
        for metric in declaration["end_to_end"] + declaration["per_layer"]:
            assert (metric["name"], metric["unit"]) in printed, metric
    document = json.loads(out.read_text())
    assert document["claim"] is None
    assert document["host"]["nproc"] == os.cpu_count()
    for section in document["workloads"].values():
        assert section["per_layer"]["trace.coverage"]["value"] >= 0.99
