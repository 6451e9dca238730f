"""The experiment registry covers the CLI, the results texts and the
bench claims, without running any experiment."""

import importlib.util
import pathlib

from repro.__main__ import main
from repro.bench.experiments import EXPERIMENTS

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def test_every_listed_command_has_a_description(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(EXPERIMENTS) + 3  # + explain, ablations, all
    for line in lines:
        name, sep, description = line.partition(" - ")
        assert sep and description.strip(), f"no description: {line!r}"


def test_results_texts_match_the_registry_one_to_one():
    stems = sorted(e.results for e in EXPERIMENTS.values())
    committed = sorted(p.stem for p in (BENCHMARKS / "results").glob("*.txt"))
    assert stems == committed


def test_every_experiment_has_claims():
    path = BENCHMARKS / "test_experiments.py"
    spec = importlib.util.spec_from_file_location("bench_test_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sorted(module.CLAIMS) == sorted(EXPERIMENTS)
    assert all(module.CLAIMS[name] for name in EXPERIMENTS)
