"""scripts/layer_times.py: the per-layer timings of one tree against another."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "layer_times.py"
LAYERS = ["transfer_matrix 1 plain", "transfer_matrix 1 lifted",
          "transfer_matrix 2 plain", "transfer_matrix 2 lifted",
          "transfer_matrix 6 plain", "transfer_matrix 6 lifted",
          "FundamentalSolutions", "grid_eval 201x201", "max_kernel_value",
          "gamma_quadrature t-grid 41", "gamma_quadrature t-grid 41 dirichlet",
          "solve_linear 101 nodes", "solve_nonlinear 2001 nodes",
          "find_subinterval", "build_report t-grid 41"]


def load_layer_times():
    spec = importlib.util.spec_from_file_location("layer_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_round_against_its_own_tree(capsys):
    layer_times = load_layer_times()
    assert layer_times.main([str(SCRIPT.parents[1])], rounds=1, repeats=1) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["layer", "this", "ms", "other", "ms", "ratio", "won"]
    assert [row.rsplit(None, 4)[0] for row in rows] == [
        f"{layer} [{pot}]" for pot in ("wavy", "trig", "rho") for layer in LAYERS]
    for row in rows:
        this, other, ratio, won = row.rsplit(None, 4)[1:]
        assert float(this) > 0.0 and float(other) > 0.0 and float(ratio) > 0.0
        assert won in ("0/1", "1/1")


def test_usage(capsys):
    assert load_layer_times().main(["a", "b"]) == 2
    assert "layer_times.py [OTHER_TREE]" in capsys.readouterr().err
