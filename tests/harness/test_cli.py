"""Tests for the ``python -m repro.harness`` CLI."""

import pytest

from repro.harness.__main__ import main
from repro.harness.figures import FIGURES


def test_list(capsys):
    assert main(["--list"]) == 0
    assert capsys.readouterr().out.split() == list(FIGURES)


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "fig11" in capsys.readouterr().out


def test_unknown_experiment_errors(capsys):
    # "bench" was a subcommand once; now it is an unknown id like any other.
    for name in ("fig99", "bench"):
        with pytest.raises(SystemExit) as excinfo:
            main([name])
        assert excinfo.value.code == 2
        assert f"unknown experiment {name!r}" in capsys.readouterr().err


def test_quick_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1 (neuroscience)" in out
    assert "Table 1 (astronomy)" in out


def test_quick_fig10a(capsys):
    assert main(["fig10a", "--quick"]) == 0
    assert "Figure 10a" in capsys.readouterr().out


def test_quick_fig12d(capsys):
    assert main(["fig12d", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "co-addition" in out
    assert "scidb" in out


def test_experiment_registry_complete():
    """Every id once, in the order ``--list`` prints them."""
    assert list(FIGURES) == [
        "table1", "fig10a", "fig10b", "fig10c", "fig10d", "fig10e",
        "fig10f", "fig10g", "fig10h", "fig11", "fig12a", "fig12b",
        "fig12c", "fig12d", "fig13", "fig14", "fig15", "f16", "opt",
        "s531", "s533", "ablation", "ablation-tf", "ablation-tuning",
    ]


def test_a_figure_prints_the_same_bytes_inline_pooled_and_replayed(
        tmp_path, monkeypatch, capsys):
    """``print_table`` takes its columns from the first row, so rows must
    come back from a pool worker or the cache with their keys in the
    order the trial built them."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def printed(*flags):
        assert main(["fig12a", "--quick", *flags]) == 0
        return capsys.readouterr().out

    inline = printed("--no-cache")
    assert inline.splitlines()[1].split() == ["system", "simulated_s"]
    assert printed("--no-cache", "--jobs", "2") == inline  # pooled
    assert printed("--jobs", "2") == inline  # pooled, and fills the cache
    assert list(tmp_path.iterdir())
    assert printed() == inline  # replayed
