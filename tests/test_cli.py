import json
import os

import numpy as np
import pytest

from bmcouple.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, SimConfig, main
from bmcouple.couplings import RotationCoupling
from bmcouple.verify import LAW_TOL, REPORT_KEYS


def read(path):
    with open(path) as handle:
        return handle.read()


class TestSimulate:
    def test_writes_outputs(self, tmp_path):
        code = main(
            [
                "simulate", "--space", "sphere:2", "--strategy", "fixed-s2",
                "--rho0", "1.0", "--h", "1e-2", "--T", "0.1",
                "--paths", "5", "--seed", "7", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        csv_text = read(tmp_path / "trajectories.csv")
        assert csv_text.startswith("t,rho,regime,path_id\n")
        summary = json.loads(read(tmp_path / "summary.json"))
        assert summary["strategy"] == "fixed-s2"
        assert summary["n_paths"] == 5
        assert set(summary) == {
            "strategy", "law", "n_paths", "h_ladder", "sup_err", "fitted_order", "z_scores", "pass",
        }
        assert set(summary) == set(REPORT_KEYS)

    def test_law_comparison_written(self, tmp_path):
        code = main(
            [
                "simulate", "--space", "sphere:2", "--strategy", "so3-flow",
                "--rho0", "1.0", "--h", "1e-2", "--T", "0.1",
                "--paths", "3", "--seed", "7", "--law", "fixed", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(read(tmp_path / "summary.json"))
        assert summary["law"] == "fixed"
        assert summary["sup_err"][0] < 1e-12
        assert summary["pass"] is True

    def test_pass_reflects_law_error(self, tmp_path):
        # the independent pair drifts apart, so it must not pass against the fixed law
        base = [
            "simulate", "--space", "sphere:2", "--strategy", "independent",
            "--rho0", "1.0", "--h", "1e-2", "--T", "0.5", "--paths", "50", "--seed", "7",
        ]
        code = main(base + ["--law", "fixed", "--out", str(tmp_path / "law")])
        assert code == EXIT_OK
        summary = json.loads(read(tmp_path / "law" / "summary.json"))
        assert summary["sup_err"][0] > LAW_TOL
        assert summary["pass"] is False
        # without a law nothing was checked
        assert main(base + ["--out", str(tmp_path / "none")]) == EXIT_OK
        assert json.loads(read(tmp_path / "none" / "summary.json"))["pass"] is None

    def test_law_of_another_space_is_config_error(self, tmp_path):
        code = main(
            [
                "simulate", "--space", "hyperbolic:2", "--strategy", "rotation",
                "--alpha-override", str(np.pi), "--law", "sphere-perverse",
                "--h", "1e-2", "--T", "0.1", "--paths", "2", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("law", ["chordal-contract", "chordal-expand"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_chordal_law_off_the_2_sphere_is_config_error(self, tmp_path, law):
        # the law is refused before it is built: chordal-expand would take
        # the square root of 4 - |x + y|^2 < 0 on the hyperboloid
        code = main(
            [
                "simulate", "--space", "hyperbolic:2", "--strategy", "rotation",
                "--alpha-override", "0", "--law", law,
                "--h", "1e-2", "--T", "0.1", "--paths", "2", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG
        assert not (tmp_path / "summary.json").exists()

    def test_rate_law_without_rate_is_config_error(self, tmp_path):
        # fixed-s2 keeps the distance fixed, which a rate-0 law would pass
        law = ["--law", "exponential-rate", "--h", "1e-2", "--T", "0.1", "--paths", "2"]
        code = main(["simulate", "--strategy", "fixed-s2", *law, "--out", str(tmp_path / "none")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "none" / "summary.json").exists()
        code = main(["simulate", "--strategy", "rotation", "--k", "0.5", *law, "--out", str(tmp_path / "k")])
        assert code == EXIT_OK
        assert json.loads(read(tmp_path / "k" / "summary.json"))["law"] == "exponential-rate"

    def test_fixed_distance_from_small_start(self, tmp_path):
        code = main(
            [
                "simulate", "--strategy", "fixed-s2", "--rho0", "1e-3", "--h", "1e-3",
                "--T", "0.05", "--paths", "20", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK

    def test_zero_paths_is_config_error(self, tmp_path):
        code = main(
            [
                "simulate", "--space", "sphere:2", "--strategy", "fixed-s2",
                "--paths", "0", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG

    def test_flat_positive_rate_is_infeasible(self, tmp_path):
        code = main(
            [
                "simulate", "--space", "flat:2", "--strategy", "rotation", "--k", "1.0",
                "--rho0", "1.0", "--h", "1e-2", "--T", "0.1",
                "--paths", "2", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize("space, k", [("sphere:2", "1.046"), ("sphere:3", "2.09")])
    def test_rate_lost_along_the_law_is_rejected_before_the_run(self, tmp_path, monkeypatch, space, k):
        # feasible at rho0 = 1, but not at rho0 exp(-k T / 2) ~ 0.59 and 0.50
        moves = []
        move = RotationCoupling.move
        monkeypatch.setattr(RotationCoupling, "move", lambda self, *a: moves.append(1) or move(self, *a))
        args = ["simulate", "--space", space, "--strategy", "rotation", "--k", k, "--rho0", "1"]
        args += ["--h", "1e-3", "--paths", "50"]
        code = main([*args, "--T", "1", "--out", str(tmp_path / "long")])
        assert code == EXIT_INFEASIBLE
        assert moves == [] and not (tmp_path / "long" / "trajectories.csv").exists()
        if space == "sphere:2":
            assert main([*args, "--T", "0.1", "--out", str(tmp_path / "short")]) == EXIT_OK
            assert moves and (tmp_path / "short" / "trajectories.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--strategy", "independent", "--h", "0.5", "--T", "1"],  # StepTooLargeError
            ["--strategy", "rotation", "--k", "0", "--h", "0.5", "--T", "1"],  # StepTooLargeError
            ["--strategy", "rotation", "--k", "0", "--rho0", "3.1415926535"],  # CutLocusError
        ],
    )
    def test_runtime_fault_is_one_line_and_exit_3(self, tmp_path, capsys, args):
        code = main(["simulate", "--space", "sphere:2", "--paths", "100", *args, "--out", str(tmp_path)])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and err.count("\n") == 1
        assert not (tmp_path / "trajectories.csv").exists()

    def test_unknown_strategy_is_config_error(self, tmp_path):
        code = main(
            ["simulate", "--strategy", "wormhole", "--paths", "2", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_identical_seeds_identical_bytes(self, tmp_path):
        args = [
            "simulate", "--space", "sphere:2", "--strategy", "extrinsic-contract-s2",
            "--rho0", "0.8", "--h", "5e-3", "--T", "0.1", "--paths", "4", "--seed", "13",
        ]
        code = main(args + ["--out", str(tmp_path / "a")])
        assert code == EXIT_OK
        code = main(args + ["--out", str(tmp_path / "b")])
        assert code == EXIT_OK
        assert read(tmp_path / "a" / "trajectories.csv") == read(tmp_path / "b" / "trajectories.csv")

    def test_env_seed_used(self, tmp_path, monkeypatch):
        base = [
            "simulate", "--space", "sphere:2", "--strategy", "fixed-s2",
            "--rho0", "1.0", "--h", "1e-2", "--T", "0.05", "--paths", "3",
        ]
        monkeypatch.setenv("BMCOUPLE_SEED", "99")
        main(base + ["--out", str(tmp_path / "env")])
        monkeypatch.delenv("BMCOUPLE_SEED")
        main(base + ["--seed", "99", "--out", str(tmp_path / "flag")])
        assert read(tmp_path / "env" / "trajectories.csv") == read(
            tmp_path / "flag" / "trajectories.csv"
        )

    def test_config_file_with_flag_override(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            "space = sphere:2\nstrategy = so3-flow\nrho0 = 1.0\nh = 0.01\n"
            "t_final = 0.05\npaths = 3\nseed = 5\n"
        )
        out_a = tmp_path / "a"
        code = main(["simulate", "--config", str(config_path), "--out", str(out_a)])
        assert code == EXIT_OK
        # overriding the seed must change the trajectories
        out_b = tmp_path / "b"
        main(["simulate", "--config", str(config_path), "--seed", "6", "--out", str(out_b)])
        assert read(out_a / "trajectories.csv") != read(out_b / "trajectories.csv")

    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_CONFIG

    def test_explicit_start_points(self, tmp_path):
        code = main(
            [
                "simulate", "--space", "sphere:2", "--strategy", "so3-flow",
                "--x0", "1,0,0", "--y0", "0,1,0", "--h", "1e-2", "--T", "0.05",
                "--paths", "2", "--seed", "1", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        first = read(tmp_path / "trajectories.csv").split("\n")[1]
        assert float(first.split(",")[1]) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_explicit_point_off_space_rejected(self, tmp_path):
        code = main(
            [
                "simulate", "--space", "sphere:2", "--strategy", "so3-flow",
                "--x0", "2,0,0", "--y0", "0,1,0", "--paths", "2", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG

    def test_one_sided_explicit_point_rejected(self, tmp_path):
        code = main(
            [
                "simulate", "--space", "sphere:2", "--strategy", "so3-flow",
                "--x0", "1,0,0", "--paths", "2", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG


class TestSimConfigRoundTrip:
    def test_parse_render_identity(self):
        config = SimConfig(
            space="hyperbolic:3", strategy="rotation", rho0=0.5, k=-2.5,
            h=2e-3, t_final=2.0, paths=17, seed=3, record_stride=5, threads=2,
        )
        assert SimConfig.parse(config.render()) == config

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nspace = flat:2\npaths = 9\n"
        config = SimConfig.parse(text)
        assert config.space == "flat:2"
        assert config.paths == 9

    def test_unknown_key_rejected(self):
        from bmcouple.errors import DomainError

        with pytest.raises(DomainError):
            SimConfig.parse("warp_drive = on\n")


class TestVerifyCommand:
    def test_infeasibility_suite_passes(self, capsys):
        code = main(["verify", "infeasibility"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "[PASS]" in out
        assert out.strip().endswith("PASS")

    def test_unknown_suite_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])


class TestTableCommand:
    def test_feasibility_table(self, capsys):
        code = main(["table", "feasibility", "--k-grid=-1,0,0.5", "--rho-grid", "1.0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "curvature,dim,rho,k,feasible"
        rows = [line.split(",") for line in lines[1:]]
        flat = {(r[3], r[4]) for r in rows if r[0] == "0"}
        # flat space: k <= 0 feasible, k > 0 not
        assert ("-1.0", "True") in flat and ("0.0", "True") in flat and ("0.5", "False") in flat
        sphere = {(r[3], r[4]) for r in rows if r[0] == "1"}
        assert ("0.5", "True") in sphere

    def test_empty_grid_is_config_error(self):
        assert main(["table", "feasibility", "--k-grid", "", "--rho-grid", "1.0"]) == EXIT_CONFIG

    def test_markdown_format(self, capsys):
        code = main(["table", "feasibility", "--format", "md", "--k-grid", "0", "--rho-grid", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("| curvature |")

    def test_drift_identity_table(self, capsys):
        code = main(["table", "drift-identity"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        header = out.split("\n", 1)[0]
        assert header == "curvature,dim,alpha,rho,closed,assembled,rel_err"
        worst = max(float(line.split(",")[-1]) for line in out.strip().split("\n")[1:])
        assert worst < 1e-6
