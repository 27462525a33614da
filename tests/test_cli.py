import json

import pytest

from centrex.cli import main


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "scenario": "custom",
                "d": 2,
                "k": 2,
                "n": 40,
                "centroids": [[0, 0], [20, 20]],
                "sigmas": [1.0],
                "trials": 1,
                "algorithms": ["centrex"],
                "slots_t": 50,
                "update_l": 5,
                "seed": 3,
            }
        )
    )
    return path


def test_rsq_command(capsys):
    assert main(["rsq", "--dim", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 1.125) < 1e-6


def test_centrex_run(small_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["centrex", "run", "--config", str(small_config), "--out", str(out_dir)]) == 0
    assert (out_dir / "results.csv").exists()


def test_decentrex_run(small_config, capsys):
    assert main(["decentrex", "run", "--config", str(small_config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["algorithm"] == "decentrex"
    assert rows[0]["messages"] > 0


def test_kmeans_run_defaults(small_config, capsys):
    assert main(["kmeans", "run", "--config", str(small_config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["algorithm"] for r in rows} == {"kmeans10", "kmeans100"}


def test_sweep(small_config, tmp_path):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(small_config), "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.json").exists()


def test_seed_env_override(small_config, tmp_path, monkeypatch):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["centrex", "run", "--config", str(small_config), "--out", str(a)])
    monkeypatch.setenv("CENTREX_SEED", "77")
    main(["centrex", "run", "--config", str(small_config), "--out", str(b)])
    monkeypatch.setenv("CENTREX_SEED", "3")
    main(["centrex", "run", "--config", str(small_config), "--out", str(c)])
    base = (a / "results.csv").read_bytes()
    assert (c / "results.csv").read_bytes() == base
    assert (b / "results.csv").read_bytes() != base


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["centrex", "run", "--config", str(bad)]) == 1
    assert main(["centrex", "run", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "raw, reason",
    [('{"scenario": "dim2k4", "sigmaz": [1.0]}', "sigmaz"), ('["dim2k4"]', "JSON object")],
    ids=["unknown_key", "not_object"],
)
def test_malformed_config_is_an_error(tmp_path, capsys, raw, reason):
    path = tmp_path / "cfg.json"
    path.write_text(raw)
    assert main(["centrex", "run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
