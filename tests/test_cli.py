import json

import pytest

from centrex import cli
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


def test_seed_env_override_equals_seed_in_file(tmp_path, monkeypatch):
    # dim100k10 draws its centroid layout from the seed, so the override
    # must reach the config before the layout is drawn.
    cfg = {"scenario": "dim100k10", "n": 100, "trials": 1, "algorithms": ["kmeans10"]}
    env_cfg, file_cfg = tmp_path / "env.json", tmp_path / "file.json"
    env_cfg.write_text(json.dumps(cfg))
    file_cfg.write_text(json.dumps({**cfg, "seed": 5}))
    assert main(["kmeans", "run", "--config", str(file_cfg), "--out", str(tmp_path / "file")]) == 0
    monkeypatch.setenv("CENTREX_SEED", "5")
    assert main(["kmeans", "run", "--config", str(env_cfg), "--out", str(tmp_path / "env")]) == 0
    want = (tmp_path / "file" / "results.csv").read_bytes()
    assert (tmp_path / "env" / "results.csv").read_bytes() == want


def test_subcommand_checks_only_its_own_algorithm(small_config, tmp_path):
    # update_l = 0 is invalid for decentrex alone, which the file lists but
    # the centrex subcommand does not run.
    cfg = json.loads(small_config.read_text())
    path = tmp_path / "b.json"
    path.write_text(json.dumps({**cfg, "algorithms": ["centrex", "decentrex"], "update_l": 0}))
    assert main(["centrex", "run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_decentrex_subcommand_rejects_its_fields_before_running(
    small_config, tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: calls.append(args))
    cfg = json.loads(small_config.read_text())
    path = tmp_path / "b.json"
    path.write_text(json.dumps({**cfg, "update_l": 0}))
    assert main(["decentrex", "run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not calls


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["centrex", "run", "--config", str(bad)]) == 1
    assert main(["centrex", "run", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "raw, reason",
    [
        ('{"scenario": "dim2k4", "sigmaz": [1.0]}', "sigmaz"),
        ('["dim2k4"]', "JSON object"),
        ('{"scenario": "dim2k4", "trials": "3"}', "trials"),
        ('{"scenario": "dim2k4", "sigmas": 1.0}', "sigmas"),
        ('{"scenario": "dim2k4", "sigmas": []}', "sigmas"),
        ('{"scenario": "dim100k10", "d": 5, "k": 2, "n": 100}', "k=2"),
    ],
    ids=["unknown_key", "not_object", "trials_not_int", "sigmas_not_list", "sigmas_empty", "k_contradicts"],
)
def test_malformed_config_is_an_error(tmp_path, capsys, raw, reason):
    path = tmp_path / "cfg.json"
    path.write_text(raw)
    assert main(["centrex", "run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err


@pytest.mark.parametrize(
    "argv",
    [["rsq", "--dim", "0"], ["rsq", "--dim", "2", "--method", "montecarlo", "--samples", "10"]],
    ids=["dim_zero", "too_few_samples"],
)
def test_rsq_bad_arguments_exit_code(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_out_of_range_config_writes_nothing(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "dim2k4", "sigmas": [1.0, 2.0, -1.0]}))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out_dir)]) == 1
    assert "sigmas" in capsys.readouterr().err
    assert not (out_dir / "results.csv").exists()
