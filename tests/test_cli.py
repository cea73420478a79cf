import numpy as np
import pytest

from iadp.cli import (_format_value, _parse_value, config_dict, csv_header,
                      emit_plots, main, parse_config, read_config_file,
                      read_csv, write_csv, write_manifest)
from iadp.plant import ConfigurationError
from iadp.scenarios import run_scenario
from iadp.sim import SimConfig


class TestValueParsing:
    def test_scalars(self):
        assert _parse_value("3") == 3
        assert _parse_value("3.5") == 3.5
        assert _parse_value("true") is True
        assert _parse_value("s2") == "s2"

    def test_vector(self):
        assert _parse_value("[2.0, -2.0]") == [2.0, -2.0]

    def test_matrix(self):
        assert _parse_value("[[1, 0], [0, 1]]") == [[1, 0], [0, 1]]

    def test_unbalanced(self):
        with pytest.raises(ConfigurationError):
            _parse_value("[1, 2")

    def test_format_round_trip(self):
        for v in (3, 2.5, True, False, "s1"):
            assert _parse_value(_format_value(v)) == v
        for v in (np.array([1.0, -2.5]), np.eye(2)):
            assert np.array_equal(np.asarray(_parse_value(_format_value(v))), v)


class TestConfigFile:
    def test_round_trip_manifest(self, tmp_path):
        cfg = SimConfig(scenario="s2", controller="zsadp", seed=3, t_end=1.0)
        mpath = tmp_path / "run.manifest"
        write_manifest(cfg, mpath, [], 0.0)
        back = parse_config(mpath)
        for key, val in config_dict(cfg).items():
            got = config_dict(back)[key]
            if isinstance(val, np.ndarray):
                assert np.array_equal(got, val), key
            else:
                assert got == val, key

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\n\nscenario = s3  # trailing\nsim.seed = 7\n")
        raw = read_config_file(p)
        assert raw == {"scenario": "s3", "sim.seed": 7}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("sim.stepsize = 0.001\n")
        with pytest.raises(ConfigurationError):
            parse_config(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scenario s1\n")
        with pytest.raises(ConfigurationError):
            read_config_file(p)

    def test_override_precedence(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("sim.seed = 1\nscenario = s1\n")
        cfg = parse_config(p, {"sim.seed": "9"})
        assert cfg.seed == 9 and cfg.scenario == "s1"

    def test_matrix_scalar_shorthand(self):
        cfg = parse_config(None, {"cost.Q": "2.5", "learner.Gamma": "0.001"})
        assert np.array_equal(cfg.Q, 2.5 * np.eye(2))
        assert np.array_equal(cfg.Gamma, 1e-3 * np.eye(6))

    def test_invalid_value_is_config_error(self):
        with pytest.raises(ConfigurationError):
            parse_config(None, {"sim.dt": "-1"})
        with pytest.raises(ConfigurationError):
            parse_config(None, {"controller": "pid"})


class TestCsv:
    def test_round_trip(self, tmp_path):
        log = run_scenario(SimConfig(t_end=0.5))
        path = tmp_path / "log.csv"
        write_csv(log, path)
        cols = read_csv(path)
        assert cols["t"].shape[0] == log.rows()
        # repr round-trip must be exact
        assert np.array_equal(cols["x_true_1"], log.x_true[:, 0])
        assert np.array_equal(cols["w_6"], log.w[:, 5])
        assert np.array_equal(cols["E_u"], log.E_u)
        assert np.array_equal(cols["rank"], log.rank.astype(float))

    def test_header_order(self):
        hdr = csv_header(2, 1, 6).split(",")
        assert hdr[0] == "t"
        assert hdr[1:3] == ["x_true_1", "x_true_2"]
        assert hdr[3:5] == ["x_meas_1", "x_meas_2"]
        assert hdr[5:7] == ["u_1", "du_1"]
        assert hdr[7:13] == [f"w_{k}" for k in range(1, 7)]
        assert hdr[13:] == ["theta_tilde", "xi_1", "d", "E_u", "E_x", "rank"]

    def test_schema_comment(self, tmp_path):
        log = run_scenario(SimConfig(t_end=0.1))
        path = tmp_path / "log.csv"
        write_csv(log, path)
        assert path.read_text().splitlines()[0].startswith("# iadp csv schema v")


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "s1", "--t-end", "0.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "s1_iadp_seed0.csv").exists()
        assert (tmp_path / "s1_iadp_seed0.manifest").exists()
        assert "completed" in capsys.readouterr().out

    def test_manifest_reparses(self, tmp_path):
        main(["run", "--scenario", "s1", "--t-end", "0.5", "--seed", "4",
              "--out-dir", str(tmp_path)])
        cfg = parse_config(tmp_path / "s1_iadp_seed4.manifest")
        assert cfg.seed == 4 and cfg.t_end == 0.5 and cfg.scenario == "s1"

    def test_config_error_exit_one(self, tmp_path, capsys):
        rc = main(["run", "--override", "sim.dt=-1", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override, extra", [
        ("init.x0=[1,2,3]", []),
        ("init.x0=[nan,0]", ["--xdot-source", "ground_truth"]),
        ("tde.g_bar=[[0,0.1,0]]", []),
        ("cost.Q=[[1,0,0],[0,1,0],[0,0,1]]", []),
        ("learner.P=0", []),
        ("learner.buffer_every=0", []),
        ("sim.t_end=-1", []),
    ])
    def test_bad_value_rejected_at_parse(self, tmp_path, capsys, override, extra):
        rc = main(["run", "--scenario", "s1", "--t-end", "0.5", *extra,
                   "--override", override, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_override_syntax(self, tmp_path, capsys):
        rc = main(["run", "--override", "nonsense", "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_check_passes(self, capsys):
        rc = main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "11/11 checks passed" in out

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IADP_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["run", "--scenario", "s1", "--t-end", "0.5"])
        assert rc == 0
        assert (tmp_path / "envout" / "s1_iadp_seed0.csv").exists()

    def test_plots(self, tmp_path):
        main(["run", "--scenario", "s1", "--t-end", "0.5",
              "--out-dir", str(tmp_path)])
        rc = main(["plots", str(tmp_path / "s1_iadp_seed0.csv"),
                   "--out-dir", str(tmp_path / "figs")])
        assert rc == 0
        for fig in ("weights", "states", "controls", "metrics"):
            assert (tmp_path / "figs" / f"s1_iadp_seed0_{fig}.dat").exists()
            assert (tmp_path / "figs" / f"s1_iadp_seed0_{fig}.gp").exists()

    def test_plots_overlay_for_multiple_logs(self, tmp_path):
        for seed in (0, 1):
            main(["run", "--scenario", "s1", "--t-end", "0.5",
                  "--seed", str(seed), "--out-dir", str(tmp_path)])
        emit_plots([tmp_path / "s1_iadp_seed0.csv",
                    tmp_path / "s1_iadp_seed1.csv"], tmp_path / "figs")
        assert (tmp_path / "figs" / "compare_E_u.gp").exists()
