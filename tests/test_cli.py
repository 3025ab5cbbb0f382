import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinphase import acceptance, models
from spinphase.analysis import SweepConfig, first_derivative, sweep
from spinphase.cli import COMMANDS, OPTIONS, build_parser, fmt, main
from spinphase.models import ModelSpec, ground_state
from spinphase.qcore import label_name
from spinphase.wigner import SphereGrid, sphere_field


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def file_sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


PHASELINE_ARGS = ["phaseline", "--model", "ti", "--n", "6", "--param-start", "0",
                  "--param-stop", "0.4", "--param-step", "0.1", "--labels", "1,tot"]


class TestPhaseline:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(PHASELINE_ARGS + ["--out", str(out)]) == 0
        for name in ("phaseline.csv", "derivative.csv", "criticalpoints.json",
                     "manifest.json"):
            assert (out / name).exists()

    def test_phaseline_content(self, tmp_path):
        out = tmp_path / "run"
        run_cli(PHASELINE_ARGS + ["--out", str(out)])
        rows = read_csv(out / "phaseline.csv")
        assert len(rows) == 5 * 2  # five parameters, two labels
        first = rows[0]
        assert first["label"] == "1"
        assert float(first["param"]) == 0.0
        hi = 0.5 * (1 + math.sqrt(3.0))
        assert float(first["value"]) == pytest.approx(hi, abs=1e-10)
        assert float(first["energy"]) == pytest.approx(-6.0, abs=1e-10)
        assert int(first["degeneracy"]) == 1
        assert int(first["parity"]) == 1
        tot0 = [r for r in rows if r["label"] == "tot" and float(r["param"]) == 0.0]
        assert float(tot0[0]["value"]) == pytest.approx(hi**6, abs=1e-10)

    def test_manifest_checksums_match(self, tmp_path):
        out = tmp_path / "run"
        run_cli(PHASELINE_ARGS + ["--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "spinphase"
        for name, digest in manifest["files"].items():
            assert file_sha(out / name) == digest
        assert manifest["config"]["model"] == "ti"
        assert manifest["config"]["param-stop"] == 0.4

    def test_manifest_names_critical_points_by_checksum_only(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(PHASELINE_ARGS + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"]["criticalpoints.json"] == file_sha(out / "criticalpoints.json")
        assert set(manifest) == {"tool", "version", "config", "started_utc", "finished_utc",
                                 "files"}

    def test_critical_points_inside_range_with_known_labels(self, tmp_path):
        out = tmp_path / "xy"
        args = ["phaseline", "--model", "xy", "--gamma", "0.5", "--param-start", "1.0",
                "--param-stop", "1.3", "--param-step", "0.01", "--labels", "1,tot",
                "--out", str(out)]
        assert run_cli(args) == 0
        payload = json.loads((out / "criticalpoints.json").read_text())
        points = payload["critical_points"]
        assert points
        for p in points:
            assert 1.0 <= p["location"] <= 1.3
            assert p["label"] in ("1", "tot", "global")
        crossings = [p for p in points if p["kind"] == "sector_crossing"]
        assert crossings and abs(crossings[0]["location"] - 2 / math.sqrt(3)) < 1e-6

    def test_two_site_ring_writes_each_row_once(self, tmp_path):
        out = tmp_path / "n2"
        assert run_cli(["phaseline", "--model", "ti", "--n", "2", "--param-start", "0",
                        "--param-stop", "0.2", "--param-step", "0.1", "--out", str(out)]) == 0
        rows = [(r["param"], r["label"]) for r in read_csv(out / "phaseline.csv")]
        assert len(rows) == len(set(rows)) == 3 * 2
        assert {label for _, label in rows} == {"1", "tot"}

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(PHASELINE_ARGS + ["--out", str(out_a)])
        run_cli(PHASELINE_ARGS + ["--out", str(out_b)])
        for name in ("phaseline.csv", "derivative.csv", "criticalpoints.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSphere:
    def test_xxz_isotropic_fields_are_constant(self, tmp_path):
        out = tmp_path / "sphere"
        args = ["sphere", "--model", "xxz", "--param-value", "1.0", "--labels", "12,135",
                "--grid-theta", "7", "--grid-phi", "8", "--out", str(out)]
        assert run_cli(args) == 0
        rows12 = read_csv(out / "sphere_12.csv")
        assert len(rows12) == 7 * 8
        vals = np.array([float(r["value"]) for r in rows12])
        assert np.max(np.abs(vals - (1 - math.sqrt(13.0)) / 12)) < 1e-10
        rows135 = read_csv(out / "sphere_135.csv")
        vals = np.array([float(r["value"]) for r in rows135])
        assert np.max(np.abs(vals - 0.437)) < 1e-3

    def test_ti_polar_maximum_and_theta_major_order(self, tmp_path):
        out = tmp_path / "sphere"
        args = ["sphere", "--model", "ti", "--param-value", "0.0", "--labels", "1",
                "--grid-theta", "5", "--grid-phi", "6", "--out", str(out)]
        run_cli(args)
        rows = read_csv(out / "sphere_1.csv")
        thetas = [float(r["theta"]) for r in rows]
        assert thetas == sorted(thetas)  # theta-major ordering
        assert float(rows[0]["value"]) == pytest.approx(0.5 * (1 + math.sqrt(3.0)), abs=1e-10)

    def test_missing_param_value_is_config_error(self, tmp_path):
        args = ["sphere", "--model", "ti", "--out", str(tmp_path / "x")]
        assert run_cli(args) == 2


class TestAnimate:
    def test_frames_and_monotone_index(self, tmp_path):
        out = tmp_path / "anim"
        args = ["animate", "--model", "xy", "--gamma", "0.5", "--param-start", "1.10",
                "--param-stop", "1.20", "--param-step", "0.025", "--labels", "1",
                "--grid-theta", "3", "--grid-phi", "4", "--out", str(out)]
        assert run_cli(args) == 0
        frames = sorted(p for p in os.listdir(out) if p.startswith("frame_"))
        assert len(frames) == 5
        for frame in frames:
            assert (out / frame / "sphere_1.csv").exists()
        index = read_csv(out / "frames.csv")
        params = [float(r["param"]) for r in index]
        assert params == sorted(params)
        assert params[0] == pytest.approx(1.10)
        assert params[-1] == pytest.approx(1.20)

    def test_rerun_has_identical_checksums(self, tmp_path):
        args = ["animate", "--model", "ti", "--param-start", "0.0", "--param-stop", "0.2",
                "--param-step", "0.1", "--labels", "1", "--grid-theta", "3",
                "--grid-phi", "4"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(args + ["--out", str(out_a)])
        run_cli(args + ["--out", str(out_b)])
        man_a = json.loads((out_a / "manifest.json").read_text())["files"]
        man_b = json.loads((out_b / "manifest.json").read_text())["files"]
        assert {f"frame_{k:04d}/sphere_1.csv" for k in range(3)} <= set(man_a)
        assert man_a == man_b

    def test_manifest_lists_every_file_by_its_relative_path(self, tmp_path):
        out = tmp_path / "anim"
        assert run_cli(["animate", "--model", "xy", "--gamma", "0.5", "--param-start", "1.10",
                        "--param-stop", "1.20", "--param-step", "0.025", "--labels", "1,tot",
                        "--grid-theta", "3", "--grid-phi", "4", "--out", str(out)]) == 0
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        written.remove("manifest.json")
        listed = json.loads((out / "manifest.json").read_text())["files"]
        assert len(written) == 5 * 2 + 2  # a CSV per frame and label, frames.csv, the stub
        assert set(listed) == written
        for name, digest in listed.items():
            assert file_sha(out / name) == digest, name

    def test_policy_failure_names_the_parameter_and_leaves_no_frame(self, tmp_path, capsys):
        out = tmp_path / "anim"
        args = ["animate", "--model", "ti", "--h", "0", "--policy", "aligned-up",
                "--param-start", "1", "--param-stop", "1.1", "--param-step", "0.05",
                "--labels", "1", "--grid-theta", "3", "--grid-phi", "4", "--out", str(out)]
        assert run_cli(args) == 3
        assert "(at lambda = 1)" in capsys.readouterr().err
        assert not (out / "frame_0000").exists()
        assert not (out / "manifest.json").exists()

    def test_policy_failure_inside_a_chunk_is_raised_at_its_own_point(self, tmp_path, capsys):
        # the three points are one stacked chunk; lambda = 0 (h = 0) is fully degenerate
        # and holds the all-up state, so its frame is written before lambda = 0.05 fails
        out = tmp_path / "anim"
        args = ["animate", "--model", "ti", "--n", "4", "--h", "0", "--policy", "aligned-up",
                "--param-start", "0", "--param-stop", "0.1", "--param-step", "0.05",
                "--labels", "1", "--out", str(out)]
        assert run_cli(args) == 3
        assert "(at lambda = 0.05)" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["frame_0000"]

    def test_pole_value_flips_sign_across_factorization(self, tmp_path):
        out = tmp_path / "anim"
        args = ["animate", "--model", "xy", "--gamma", "0.5", "--param-start", "1.10",
                "--param-stop", "1.20", "--param-step", "0.025", "--labels", "tot",
                "--grid-theta", "3", "--grid-phi", "4", "--out", str(out)]
        assert run_cli(args) == 0
        index = read_csv(out / "frames.csv")
        pole = {}
        for row in index:
            frame = f"frame_{int(row['frame']):04d}"
            first = read_csv(out / frame / "sphere_tot.csv")[0]
            assert float(first["theta"]) == 0.0 and float(first["phi"]) == 0.0
            pole[float(row["param"])] = float(first["value"])
        lam_f = 1.0 / math.sqrt(0.75)
        before = max(p for p in pole if p < lam_f)
        after = min(p for p in pole if p > lam_f)
        assert pole[before] > 0 > pole[after]


class TestFormulas:
    def test_ti_reference_values(self, tmp_path, capsys):
        out = tmp_path / "f"
        args = ["formulas", "--model", "ti", "--values", "1,2", "--out", str(out)]
        assert run_cli(args) == 0
        rows = read_csv(out / "formulas.csv")
        at1 = rows[0]
        assert float(at1["energy_thermo"]) == pytest.approx(-4 / math.pi, abs=1e-8)
        assert float(at1["mz_thermo"]) == pytest.approx(1 / math.pi, abs=1e-8)
        assert float(at1["energy_classical"]) == -1.25
        at2 = rows[1]
        assert float(at2["mx_thermo"]) == pytest.approx(0.4823393149801547, abs=1e-12)
        stdout = capsys.readouterr().out
        assert "energy_thermo" in stdout

    def test_ti_strong_coupling(self, tmp_path):
        # far from lambda = 1 the energy is -lambda and mz is 1/(4 lambda) to leading order
        out = tmp_path / "f"
        assert run_cli(["formulas", "--model", "ti", "--values", "1e5", "--out", str(out)]) == 0
        row = read_csv(out / "formulas.csv")[0]
        assert float(row["energy_thermo"]) == pytest.approx(-1e5, rel=1e-9)
        assert float(row["mz_thermo"]) == pytest.approx(2.5e-6, rel=1e-9)

    def test_xy_factorization_table(self, tmp_path):
        out = tmp_path / "f"
        args = ["formulas", "--model", "xy", "--values", "0.3,0.5,0.8", "--out", str(out)]
        assert run_cli(args) == 0
        rows = read_csv(out / "formulas.csv")
        got = [float(r["factorization_lambda"]) for r in rows]
        assert got == pytest.approx([1.0482848367219182, 1.1547005383792517,
                                     1.6666666666666667], abs=1e-10)

    def test_xy_ising_limit_marker(self, tmp_path):
        out = tmp_path / "f"
        assert run_cli(["formulas", "--model", "xy", "--values", "1.0",
                        "--out", str(out)]) == 0
        rows = read_csv(out / "formulas.csv")
        assert rows[0]["factorization_lambda"] == "inf"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1,nan"])
    def test_non_finite_value_exits_2(self, value, tmp_path):
        out = tmp_path / "f"
        assert run_cli(["formulas", "--model", "ti", f"--values={value}", "--out", str(out)]) == 2
        assert not (out / "formulas.csv").exists()

    def test_xxz_formulas_rejected(self, tmp_path):
        args = ["formulas", "--model", "xxz", "--values", "1", "--out", str(tmp_path / "f")]
        assert run_cli(args) == 2


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = ti\nparam-start = 0\nparam-stop = 0.2\n"
                       "param-step = 0.1\nlabels = 1\n")
        out = tmp_path / "out"
        # flag overrides the config file's stop value
        args = ["phaseline", "--config", str(cfg), "--param-stop", "0.1",
                "--out", str(out)]
        assert run_cli(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["param-stop"] == 0.1
        rows = read_csv(out / "phaseline.csv")
        assert {float(r["param"]) for r in rows} == {0.0, 0.1}

    def test_policy_spellings_agree(self, tmp_path):
        # the flag spells aligned-up, a config file may spell aligned_up
        cfg = tmp_path / "run.cfg"
        cfg.write_text("policy = aligned_up\n")
        common = ["--model", "xxz", "--labels", "1,12", "--out"]
        sweep = ["--param-start", "-2", "--param-stop", "-1.5", "--param-step", "0.25"]
        assert run_cli(["phaseline", *sweep, "--policy", "aligned-up",
                        *common, str(tmp_path / "flag")]) == 0
        assert run_cli(["phaseline", *sweep, "--config", str(cfg),
                        *common, str(tmp_path / "file")]) == 0
        assert file_sha(tmp_path / "flag" / "phaseline.csv") == \
            file_sha(tmp_path / "file" / "phaseline.csv")
        assert run_cli(["sphere", "--param-value", "-2", "--grid-theta", "3", "--grid-phi", "4",
                        "--policy", "aligned-up", *common, str(tmp_path / "sphere")]) == 0

    @pytest.mark.parametrize("point", [["--phase-theta", "4"], ["--phase-phi", "nan"]])
    def test_bad_phase_point_exits_2_before_any_solve(self, point, monkeypatch, tmp_path):
        solves = []
        real = models.ground_states  # the stacked solve every sweep walks
        monkeypatch.setattr(models, "ground_states",
                            lambda *args, **kwargs: solves.append(args) or real(*args, **kwargs))
        argv = ["phaseline", "--model", "ti", "--param-start", "0", "--param-stop", "1",
                "--param-step", "0.1", *point, "--out", str(tmp_path / "x")]
        assert run_cli(argv) == 2
        assert solves == []
        assert not (tmp_path / "x" / "phaseline.csv").exists()

    @pytest.mark.parametrize("seed", ["-1", "-2"])
    def test_negative_seed_exits_2_before_any_criterion(self, seed, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(acceptance, "run_all", lambda seed=0: runs.append(seed) or [])
        assert run_cli(["verify", "--seed", seed]) == 2
        assert runs == []
        assert "--seed" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert run_cli(["phaseline", "--config", str(cfg)]) == 2

    def test_missing_model_is_config_error(self, tmp_path):
        args = ["phaseline", "--param-start", "0", "--param-stop", "1",
                "--out", str(tmp_path / "x")]
        assert run_cli(args) == 2

    def test_bad_label_is_config_error(self, tmp_path):
        args = PHASELINE_ARGS[:-2] + ["--labels", "19", "--out", str(tmp_path / "x")]
        assert run_cli(args) == 2

    def test_missing_config_file(self, tmp_path):
        args = ["phaseline", "--config", str(tmp_path / "nope.cfg")]
        assert run_cli(args) == 2

    def test_config_keys_of_other_subcommands_are_accepted(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("model = ti\nlabels = 1\nseed = 3\nvalues = 1,2\ngrid-theta = 3\n"
                       "grid-phi = 4\nparam-value = 0.5\n")
        args = ["phaseline", "--config", str(cfg), "--param-start", "0", "--param-stop", "0.1",
                "--param-step", "0.05", "--out", str(tmp_path / "out")]
        assert run_cli(args) == 0
        config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
        assert config["seed"] == 3 and config["param-value"] == 0.5

    @pytest.mark.parametrize("argv", [
        ["sphere", "--model", "ti", "--param-value", "0", "--phase-theta", "1"],
        ["sphere", "--model", "ti", "--param-value", "0", "--param-start", "5"],
        ["verify", "--model", "ti"],
        ["formulas", "--model", "ti", "--values", "1", "--n", "8"],
        ["animate", "--model", "ti", "--phase-phi", "1"],
        ["phaseline", "--model", "ti", "--seed", "9"],
    ])
    def test_flag_the_subcommand_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        # the subcommand's own parser reports it, under its own usage line
        assert f"usage: spinphase {argv[0]} " in err and f"spinphase {argv[0]}: error" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_jump_factor_must_be_positive_finite(self, value, capsys, tmp_path):
        # the option is gone, so these values are refused like any other
        argv = ["phaseline", "--model", "xy", "--gamma", "0.5", "--param-start", "1.0",
                "--param-stop", "1.3", "--labels", "1,tot", "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--jump-factor", value])
        assert exc.value.code == 2
        assert "--jump-factor" in capsys.readouterr().err
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"jump-factor = {value}\n")
        assert run_cli(argv + ["--config", str(cfg)]) == 2
        assert not (tmp_path / "x" / "phaseline.csv").exists()

    def test_jump_factor_is_unknown(self, capsys, tmp_path):
        argv = ["phaseline", "--model", "xy", "--gamma", "0.5", "--param-start", "1.0",
                "--param-stop", "1.3", "--labels", "1,tot", "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--jump-factor", "20"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jump-factor" in capsys.readouterr().err
        cfg = tmp_path / "old.cfg"
        cfg.write_text("jump-factor = 20\n")
        assert run_cli(argv + ["--config", str(cfg)]) == 2
        assert "unknown key 'jump-factor'" in capsys.readouterr().err
        assert not (tmp_path / "x" / "phaseline.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["phaseline", "--model", "ti", "--param-start", "0", "--param-stop", "0.1",
         "--labels", "1,1"],
        ["phaseline", "--model", "ti", "--n", "2", "--param-start", "0", "--param-stop", "0.1",
         "--labels", "12,tot"],
        ["phaseline", "--model", "ti", "--param-start", "0", "--param-stop", "0.1",
         "--labels", "135,1.3.5"],
        ["sphere", "--model", "ti", "--param-value", "0", "--labels", "12,1.2"],
        ["animate", "--model", "ti", "--param-start", "0", "--param-stop", "0.1",
         "--labels", "tot,123456"],
    ])
    def test_label_set_naming_a_subset_twice_exits_2(self, argv, capsys, tmp_path):
        assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 2
        assert "same site subset twice" in capsys.readouterr().err
        assert not any((tmp_path / "x").glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["phaseline", "--model", "ti", "--param-start", "0", "--param-stop", "inf"],
        ["phaseline", "--model", "ti", "--param-start", "nan", "--param-stop", "1"],
        ["phaseline", "--model", "ti", "--param-start", "0", "--param-stop", "0.05",
         "--param-step", "0.1"],
        ["animate", "--model", "ti", "--param-start", "0", "--param-stop", "1",
         "--param-step", "0"],
        ["formulas", "--model", "ti", "--param-start", "0", "--param-stop", "1",
         "--param-step", "0"],
        ["formulas", "--model", "ti", "--param-start", "0", "--param-stop", "1",
         "--param-step", "-0.1"],
        ["formulas", "--model", "ti", "--param-start", "1", "--param-stop", "0"],
        ["formulas", "--model", "ti", "--values", ","],
        ["phaseline", "--model", "ti", "--param-start", "0", "--param-stop", "0.1",
         "--labels", ","],
        ["sphere", "--model", "ti", "--param-value", "0", "--labels", ","],
        ["animate", "--model", "ti", "--param-start", "0", "--param-stop", "0.1",
         "--labels", ","],
    ])
    def test_bad_sweep_grid_is_config_error(self, argv, tmp_path):
        assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 2
        assert not any((tmp_path / "x").glob("**/*.csv"))


README = Path(__file__).resolve().parents[1] / "README.md"


def offered_flags(parser, command):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {f for a in sub.choices[command]._actions for f in a.option_strings} - {"-h", "--help"}


class TestOptionTable:
    def test_help_lists_each_table_default(self, capsys):
        for command in COMMANDS:
            with pytest.raises(SystemExit):
                run_cli([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            for key, (default, commands, _) in OPTIONS.items():
                if command in commands and default is not None:
                    pattern = rf"--{key} \S+ [^(]*\(default {re.escape(str(default))}\)"
                    assert re.search(pattern, text), (command, key)

    def test_readme_cli_reference_names_exactly_the_offered_flags(self):
        section = README.read_text(encoding="utf-8").split("## CLI reference", 1)[1]
        section = section.split("\n## ", 1)[0]
        items = re.findall(r"^- `(\w+)`: (.*?)(?=^- `|^$)", section, re.M | re.S)
        listed = {command: set(re.findall(r"--[a-z][a-z-]*", text)) for command, text in items}
        parser = build_parser()
        assert set(listed) == set(COMMANDS)
        for command, flags in listed.items():
            assert flags == offered_flags(parser, command), command


class TestPlotStubs:
    def test_phaseline_stub_emitted_and_compiles(self, tmp_path):
        out = tmp_path / "run"
        run_cli(PHASELINE_ARGS + ["--out", str(out)])
        stub = out / "plot_phaseline.py"
        source = stub.read_text()
        compile(source, str(stub), "exec")
        for column in ("param", "label", "value", "energy", "degeneracy", "parity", "gap"):
            assert column in source
        manifest = json.loads((out / "manifest.json").read_text())
        assert "plot_phaseline.py" in manifest["files"]

    def test_sphere_stub_emitted_and_compiles(self, tmp_path):
        out = tmp_path / "sphere"
        run_cli(["sphere", "--model", "ti", "--param-value", "0.0", "--labels", "1",
                 "--grid-theta", "3", "--grid-phi", "4", "--out", str(out)])
        stub = out / "plot_sphere.py"
        source = stub.read_text()
        compile(source, str(stub), "exec")
        for column in ("theta", "phi", "value"):
            assert column in source

    @staticmethod
    def run_stub(stub, cwd):
        """Run a plot stub from `cwd` with a stand-in matplotlib.pyplot that prints
        each path passed to savefig; returns the printed paths."""
        fake = cwd / "fake" / "matplotlib"
        fake.mkdir(parents=True)
        (fake / "__init__.py").write_text("")
        (fake / "pyplot.py").write_text(
            "def savefig(path, **kwargs):\n"
            "    print(path)\n"
            "def __getattr__(name):\n"
            "    return lambda *args, **kwargs: None\n")
        done = subprocess.run([sys.executable, str(stub)], cwd=cwd, check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(fake.parent)))
        return done.stdout.split()

    def test_phaseline_stub_renders_from_anywhere(self, tmp_path):
        # the stub reads the phaseline.csv beside it, wherever it is run from
        out = tmp_path / "run"
        assert run_cli(PHASELINE_ARGS + ["--out", str(out)]) == 0
        assert self.run_stub(out / "plot_phaseline.py", tmp_path) == ["phaseline.png"]

    @pytest.mark.parametrize("command", ["sphere", "animate"])
    def test_sphere_stub_renders_every_csv(self, tmp_path, command):
        # the stub reads the CSVs below its own directory, wherever it is run from
        out = tmp_path / "out"
        args = (["sphere", "--param-value", "0.0"] if command == "sphere" else
                ["animate", "--param-start", "0.0", "--param-stop", "0.2", "--param-step", "0.1"])
        assert run_cli(args + ["--model", "ti", "--labels", "1,12", "--grid-theta", "3",
                               "--grid-phi", "4", "--out", str(out)]) == 0
        csvs = sorted(p.relative_to(out).as_posix() for p in out.rglob("sphere_*.csv"))
        assert len(csvs) == (2 if command == "sphere" else 6)
        assert self.run_stub(out / "plot_sphere.py", tmp_path) == \
            [p.replace(".csv", ".png") for p in csvs]


def render_rows(header, rows):
    """CSV bytes built one row at a time: the oracle of the column writer."""
    return "".join(",".join(row) + "\n" for row in [header, *rows]).encode("utf-8")


class TestColumnWriter:
    def test_phaseline_and_derivative_match_row_by_row_rendering(self, tmp_path):
        lam_f = 1.1547005383792517  # xy factorization point at gamma = 0.5
        out = tmp_path / "mix"
        assert run_cli(["phaseline", "--model", "xy", "--gamma", "0.5", "--policy", "mixture",
                        "--param-start", repr(lam_f), "--param-stop", "1.2", "--param-step",
                        "0.01", "--labels", "1,tot", "--out", str(out)]) == 0
        cfg = SweepConfig(spec=ModelSpec("xy", n=6, gamma=0.5), start=lam_f, stop=1.2,
                          step=0.01, labels=((1,), (1, 2, 3, 4, 5, 6)), policy="mixture")
        line = sweep(cfg)
        dvalues = {sites: first_derivative(line, sites) for sites in cfg.labels}
        rows, drows = [], []
        for i, p in enumerate(line.params):
            parity = "" if math.isnan(line.parity[i]) else str(int(line.parity[i]))
            for sites in cfg.labels:
                name = label_name(sites, 6)
                rows.append((fmt(p), name, fmt(line.values[sites][i]), fmt(line.energy[i]),
                             str(int(line.degeneracy[i])), parity, fmt(line.gap[i])))
                drows.append((fmt(p), name, fmt(dvalues[sites][i])))
        # the first point is the twofold factorization point, of no definite parity
        assert rows[0][4:6] == ("2", "") and rows[-1][5] != ""
        assert (out / "phaseline.csv").read_bytes() == render_rows(
            ("param", "label", "value", "energy", "degeneracy", "parity", "gap"), rows)
        assert (out / "derivative.csv").read_bytes() == render_rows(
            ("param", "label", "dvalue"), drows)

    def test_sphere_file_matches_row_by_row_rendering(self, tmp_path):
        out = tmp_path / "sphere"
        assert run_cli(["sphere", "--model", "ti", "--param-value", "0.7", "--labels", "12",
                        "--grid-theta", "7", "--grid-phi", "12", "--out", str(out)]) == 0
        grid = SphereGrid(7, 12)
        field = sphere_field(ground_state(ModelSpec("ti", lam=0.7)).state, (1, 2), grid)
        rows = [(fmt(theta), fmt(phi), fmt(field[i, j]))
                for i, theta in enumerate(grid.thetas) for j, phi in enumerate(grid.phis)]
        assert (out / "sphere_12.csv").read_bytes() == render_rows(("theta", "phi", "value"), rows)

    def test_frames_index_matches_row_by_row_rendering(self, tmp_path):
        out = tmp_path / "anim"
        assert run_cli(["animate", "--model", "ti", "--param-start", "0.1", "--param-stop", "0.4",
                        "--param-step", "0.1", "--labels", "1", "--grid-theta", "3",
                        "--grid-phi", "4", "--out", str(out)]) == 0
        params = SweepConfig(spec=ModelSpec("ti"), start=0.1, stop=0.4, step=0.1).params
        rows = [(str(k), fmt(p)) for k, p in enumerate(params)]
        assert len(rows) == 4
        assert (out / "frames.csv").read_bytes() == render_rows(("frame", "param"), rows)


class TestSerialization:
    def test_seventeen_digit_round_trip(self):
        from spinphase.cli import fmt

        rng = np.random.default_rng(23)
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
            assert float(fmt(x)) == x

    def test_csv_files_are_utf8_with_header(self, tmp_path):
        out = tmp_path / "run"
        run_cli(PHASELINE_ARGS + ["--out", str(out)])
        for name in ("phaseline.csv", "derivative.csv"):
            text = (out / name).read_bytes().decode("utf-8")
            header = text.splitlines()[0]
            assert header[0].isalpha()
