import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import klayer
from klayer import cli, planar2d
from klayer.cli import (
    _OPTIONS,
    COMMANDS,
    ConfigError,
    _build_parser,
    _write_csv,
    main,
    parse_config,
)
from klayer.planar2d import Star


BASE_CFG = """\
# unit-disk configuration
epsilon = 0.01
p = 2
b = 1
m = 1
n = 2
R = 1
command = steady-radial
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return path


class TestParseConfig:
    def test_happy_path(self, cfg_file):
        cfg = parse_config(str(cfg_file), {"command": "steady-radial"})
        assert cfg.command == "steady-radial"
        assert cfg.params.epsilon == 0.01
        assert cfg.params.n == 2
        assert cfg.R == 1.0

    def test_flag_overrides_file(self, cfg_file):
        cfg = parse_config(
            str(cfg_file), {"command": "steady-radial", "epsilon": 0.005}
        )
        assert cfg.params.epsilon == 0.005

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epsilon=0.01\np=2\nb=1\nn=2\nR=1\ncommand=steady-radial\n")
        with pytest.raises(ConfigError, match="'m'"):
            parse_config(str(path), {})

    def test_type_mismatch_has_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("p=2\nepsilon=zero\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(str(path), {})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frobnicate=1\n")
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config(str(path), {})

    def test_unknown_command(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CFG.replace("steady-radial", "transmogrify"))
        with pytest.raises(ConfigError, match="transmogrify"):
            parse_config(str(path), {})

    # every command-restricted option: key -> (flag, value, parsed value, commands)
    RESTRICTED = {
        "t_end": ("--t-end", "0.5", 0.5, ("evolve",)),
        "dt": ("--dt", "0.01", 0.01, ("evolve",)),
        "perturb": ("--perturb", "0.005", 0.005, ("evolve",)),
        "output_every": ("--output-every", "5", 5, ("evolve",)),
        "eps_list": ("--eps-list", "0.02 0.014 0.01", (0.02, 0.014, 0.01), ("verify", "sweep")),
        "p_list": ("--p-list", "2 3", (2.0, 3.0), ("sweep",)),
        "grid_count": ("--grid-count", "900", 900, ("steady-radial", "evolve", "verify", "sweep")),
        "level_c": ("--level-c", "0.4", 0.4, ("steady-radial", "steady-2d", "verify", "sweep")),
        # steady-2d parses the shape with the rest of its configuration
        "shape": ("--shape", "star", (Star, 1.0, 0.15, 5), ("steady-2d",)),
        "h": ("--h", "0.05", 0.05, ("steady-2d",)),
        "samples": ("--samples", "16", 16, ("steady-2d",)),
        "seed": ("--seed", "3", 3, ("evolve",)),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_tol_only_for_steady_2d(self, cfg_file, tmp_path, command):
        # widened from tol alone to every restricted option: a config-file
        # key follows the same rule as its flag.  The name predates the
        # removal of tol (see test_tol_removed)
        assert {key for key, row in _OPTIONS.items() if row[2]} == set(self.RESTRICTED)
        parser = _build_parser()
        for key, (flag, text, value, commands) in self.RESTRICTED.items():
            path = tmp_path / f"{key}.cfg"
            path.write_text(BASE_CFG + f"{key} = {text}\n")
            argv = [command, "--config", str(cfg_file), flag, text]
            if command in commands:
                assert vars(parser.parse_args(argv))[key] is not None
                parsed = getattr(parse_config(str(path), {"command": command}), key)
                if isinstance(parsed, Star):
                    parsed = (Star, parsed.r0, parsed.amplitude, parsed.k)
                assert parsed == value
            else:
                # exit code 2, an argparse error; '--h' once matched '--help'
                with pytest.raises(SystemExit, match="^2$"):
                    parser.parse_args(argv)
                with pytest.raises(ConfigError, match=f"'{key}' applies only to"):
                    parse_config(str(path), {"command": command})

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_tol_removed(self, cfg_file, tmp_path, command):
        # every nonlocal solve is a direct Newton: no command takes a
        # constraint tolerance, as a flag (argparse error, exit 2) or a key
        with pytest.raises(SystemExit, match="^2$"):
            _build_parser().parse_args([command, "--config", str(cfg_file), "--tol", "1e-6"])
        path = tmp_path / "tol.cfg"
        path.write_text(BASE_CFG + "tol = 1e-6\n")
        with pytest.raises(ConfigError, match="unknown key 'tol'"):
            parse_config(str(path), {"command": command})

    @pytest.mark.parametrize(
        "command, flag, value, key",
        [
            ("evolve", "--dt", "-0.5", "dt"),
            ("evolve", "--dt", "nan", "dt"),
            ("evolve", "--dt", "inf", "dt"),
            ("evolve", "--t-end", "0", "t_end"),
            ("evolve", "--t-end", "-1", "t_end"),
            ("evolve", "--t-end", "nan", "t_end"),
            ("evolve", "--t-end", "inf", "t_end"),
            ("evolve", "--output-every", "0", "output_every"),
            # 1000 steps of the default dt 0.02 give 9 rows; 40 steps of 0.5, 3
            ("evolve", "--output-every", "125", "output_every"),
            ("evolve", "--dt", "0.5", "dt"),
            ("steady-2d", "--n", "3", "n"),
            ("steady-2d", "--n", "1", "n"),
            ("steady-radial", "--level-c", "-1", "level_c"),
            ("steady-radial", "--level-c", "1", "level_c"),
            ("steady-radial", "--level-c", "2", "level_c"),
            ("steady-2d", "--level-c", "2", "level_c"),
            ("verify", "--eps-list", "0.001 0.002 0.004", "eps_list"),
            ("verify", "--eps-list", "0.002 0.001", "eps_list"),
            ("evolve", "--R", "0", "R"),
            ("evolve", "--R", "nan", "R"),
            ("evolve", "--R", "inf", "R"),
            ("steady-radial", "--R", "0", "R"),
            ("steady-radial", "--R", "-1", "R"),
            ("evolve", "--perturb", "nan", "perturb"),
            ("evolve", "--perturb", "inf", "perturb"),
            ("evolve", "--perturb", "1", "perturb"),
            ("evolve", "--perturb", "1.5", "perturb"),
            ("evolve", "--perturb", "-1", "perturb"),
            ("evolve", "--seed", "-1", "seed"),
            ("steady-2d", "--samples", "0", "samples"),
            ("steady-2d", "--samples", "-3", "samples"),
            ("steady-2d", "--h", "0", "h"),
            ("steady-2d", "--h", "-0.05", "h"),
            ("steady-2d", "--h", "nan", "h"),
            ("steady-2d", "--h", "inf", "h"),
            ("steady-radial", "--grid-count", "10", "grid_count"),
            ("verify", "--grid-count", "0", "grid_count"),
            ("sweep", "--grid-count", "-5", "grid_count"),
            ("sweep", "--eps-list", "0.004,-1", "eps_list"),
            ("sweep", "--p-list", "2,-1", "p_list"),
            ("sweep", "--p-list", "2,nan", "p_list"),
            ("verify", "--eps-list", "0.004,0.002,0", "eps_list"),
        ],
    )
    def test_out_of_range_rejected_before_any_output(
        self, cfg_file, tmp_path, capsys, command, flag, value, key
    ):
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfg_file), "--eps", "0.05",
                   flag, value, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"'{key}'" in err
        assert not out.exists()


def _write_csv_per_value(path, header, rows):
    """The per-value writer that _write_csv replaced: the byte reference."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


class TestWriteCsv:
    @pytest.mark.parametrize("n_rows", [9, 0])
    def test_bytes_match_per_value_writer(self, tmp_path, n_rows):
        rng = np.random.default_rng(7)
        columns = [
            np.array([-0.0, 5e-324, 1e300, -1e-300, 2.0**53, np.nan, np.inf, -np.inf, 0.1]),
            [0, -3, 7, 2**60, 1, 10**17, -(10**16), 12345678901234567, 2],
            np.linspace(-1.4142, 1.4142, 9),
            rng.uniform(0.0, 1.0, 9) ** 3,  # field-like values in (0, 1)
        ]
        columns = [col[:n_rows] for col in columns]
        _write_csv(tmp_path / "new.csv", "a,b,c,d", columns)
        _write_csv_per_value(tmp_path / "old.csv", "a,b,c,d", zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025, 3000])
    def test_text_columns_and_chunks(self, tmp_path, n_rows):
        # str columns (numpy dtype object) are written as they stand, beside
        # number columns
        rng = np.random.default_rng(11)
        special = np.array([-0.0, 5e-324, -1e-300, 1e300, np.nan, np.inf, -np.inf, 2.0**53])
        values = np.concatenate((special, rng.uniform(-2.0, 2.0, n_rows)))[:n_rows]
        coords = np.concatenate((special, np.linspace(-1.5, 1.5, 301)))
        pick = rng.integers(0, coords.size, n_rows)
        text = np.array([format(float(c), ".17g") for c in coords], dtype=object)
        _write_csv(tmp_path / "new.csv", "x,W,y", (text[pick], values, text[pick[::-1]]))
        rows = zip(coords[pick], values, coords[pick[::-1]])
        _write_csv_per_value(tmp_path / "old.csv", "x,W,y", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_distinct_bits_keep_their_text(self, tmp_path):
        # each distinct bit pattern is formatted once: -0.0 is not 0.0, and
        # NaNs of any payload and sign still print as nan
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                        dtype=np.uint64).view(float)
        col = np.array([0.0, -0.0, nans[0], np.inf, nans[1], 0.0, -0.0, -np.inf, nans[2],
                        np.inf, 0.1, 0.1])
        assert len(set(col.view(np.int64).tolist())) == 8
        _write_csv(tmp_path / "new.csv", "v,w", (col, col[::-1]))
        _write_csv_per_value(tmp_path / "old.csv", "v,w", zip(col, col[::-1]))
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "old.csv").read_text()
        assert text.splitlines()[1:3] == ["0,0.10000000000000001", "-0,0.10000000000000001"]

    def test_many_rows_few_values(self, tmp_path):
        rng = np.random.default_rng(3)
        values = np.array([-0.0, 1.0 / 3.0, 2.0**-1074, -1e300, 0.7071])
        col = values[rng.integers(0, values.size, 40_000)]
        ramp = np.arange(40_000) * 0.01  # every value distinct
        _write_csv(tmp_path / "new.csv", "a,b", (col, ramp))
        _write_csv_per_value(tmp_path / "old.csv", "a,b", zip(col, ramp))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_zero_rows(self, tmp_path):
        empty = np.array([], dtype=object)
        _write_csv(tmp_path / "new.csv", "k,a,b", (empty, np.array([]), []))
        assert (tmp_path / "new.csv").read_bytes() == b"k,a,b\n"

    @pytest.mark.parametrize("length", [0, 1, 4])
    @pytest.mark.parametrize("short", [0, 1, 2])
    def test_unequal_lengths_rejected(self, tmp_path, short, length):
        # a short column raises, whichever it is, before the file is opened;
        # one of length 1 is not broadcast
        columns = [np.arange(5.0), np.arange(5.0), np.array(list("abcde"), dtype=object)]
        columns[short] = columns[short][:length]
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "new.csv", "a,b,c", columns)
        assert not (tmp_path / "new.csv").exists()


class TestRunSteadyRadial:
    def test_exit_zero_and_outputs(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["steady-radial", "--config", str(cfg_file), "--grid-count", "1200",
                   "--out", str(out)])
        assert rc == 0
        prof = (out / "steady_profile.csv").read_text().splitlines()
        assert prof[0] == "r,W,U"
        assert len(prof) == 1201
        summary = (out / "steady_summary.csv").read_text()
        assert "lambda_eps" in summary

    def test_deterministic_bytes(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            argv = ["--config", str(cfg_file), "--grid-count", "1200", "--out", str(out)]
            assert main(["steady-radial", *argv]) == 0
        assert (out1 / "steady_profile.csv").read_bytes() == (
            out2 / "steady_profile.csv"
        ).read_bytes()

    def test_unwritable_output_dir(self, cfg_file):
        rc = main(
            ["steady-radial", "--config", str(cfg_file), "--out", "/dev/null/nested"]
        )
        assert rc == 1

    def test_unwritable_output_dir_fails_before_solving(self, cfg_file, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError("read-only directory")

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the writability check")

        monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
        monkeypatch.setattr(cli, "solve_nonlocal", no_solve)
        out = tmp_path / "out"
        assert main(["steady-radial", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert list(out.iterdir()) == []

    def test_keeps_a_file_named_like_the_probe(self, cfg_file, tmp_path):
        # the writability probe used to touch and then delete out/.write_probe
        out = tmp_path / "out"
        out.mkdir()
        (out / ".write_probe").write_text("keep me")
        argv = ["--config", str(cfg_file), "--grid-count", "1200", "--out", str(out)]
        assert main(["steady-radial", *argv]) == 0
        assert (out / ".write_probe").read_text() == "keep me"
        assert sorted(f.name for f in out.iterdir()) == [
            ".write_probe", "steady_profile.csv", "steady_summary.csv"]

    def test_writes_only_csv(self, cfg_file, tmp_path):
        out = tmp_path / "radial"
        rc = main(["steady-radial", "--config", str(cfg_file), "--grid-count", "1200",
                   "--out", str(out)])
        assert rc == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "steady_profile.csv", "steady_summary.csv"]
        # there is no --plots option
        with pytest.raises(SystemExit):
            main(["steady-radial", "--config", str(cfg_file), "--out", str(out), "--plots"])

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epsilon=0.01\n")
        rc = main(["steady-radial", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1

    def test_level_not_reached_gives_nan_thickness(self, tmp_path):
        # W >= 0.992 on the unit disk, so the default level b/2 is never met
        argv = ["--eps", "2", "--p", "1", "--b", "1", "--m", "0.2", "--n", "2", "--R", "1"]
        assert main(["steady-radial", *argv, "--out", str(tmp_path / "r")]) == 0
        assert main(["sweep", *argv, "--out", str(tmp_path / "s")]) == 0
        lines = (tmp_path / "r" / "steady_summary.csv").read_text().splitlines()
        summary = dict(line.split(",") for line in lines[1:])
        header, row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        swept = dict(zip(header.split(","), row.split(",")))
        assert summary["thickness"] == swept["thickness"] == "nan"
        for key in ("lambda_eps", "amplitude", "sigma", "slope_W", "slope_U"):
            assert summary[key] == swept[key]


class TestRunSweep:
    def test_sweep_csv_sorted(self, cfg_file, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--config",
                str(cfg_file),
                "--out",
                str(out),
                "--eps-list",
                "0.02 0.01",
                "--p-list",
                "2 3",
                "--grid-count",
                "900",
            ]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "eps,p,lambda_eps,amplitude,sigma,slope_W,slope_U,thickness"
        assert len(lines) == 5
        keys = [tuple(map(float, ln.split(",")[:2])) for ln in lines[1:]]
        assert keys == sorted(keys)

    def test_sweep_deterministic(self, cfg_file, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            rc = main(
                [
                    "sweep",
                    "--config",
                    str(cfg_file),
                    "--out",
                    str(out),
                    "--eps-list",
                    "0.02,0.01",
                    "--grid-count",
                    "900",
                ]
            )
            assert rc == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]


class TestRunEvolve:
    def test_short_run_outputs(self, cfg_file, tmp_path):
        out = tmp_path / "ev"
        rc = main(
            [
                "evolve",
                "--config",
                str(cfg_file),
                "--out",
                str(out),
                "--eps",
                "0.05",
                "--grid-count",
                "160",
                "--t-end",
                "0.5",
                "--perturb",
                "0.005",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        diag = (out / "evolve_diagnostics.csv").read_text().splitlines()
        assert diag[0] == "t,mass,linf_u,l2_u,linf_w,l2_w,energy"
        data = np.array([[float(x) for x in ln.split(",")] for ln in diag[1:]])
        mass = data[:, 1]
        assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-9
        assert "mu_hat" in (out / "evolve_summary.csv").read_text()

    @pytest.mark.parametrize("every, rows", [(124, 10), (125, 9)])
    def test_schedule_records_enough_rows_for_the_fit(self, cfg_file, tmp_path, capsys,
                                                      every, rows):
        # 1000 steps: the rows at t = 0, after each 124th step and after the
        # last are the 10 the decay-rate fit needs; each 125th step gives 9,
        # refused before any solve, leaving the existing --out empty
        out = tmp_path / "ev"
        out.mkdir()
        rc = main(["evolve", "--config", str(cfg_file), "--out", str(out), "--eps", "0.05",
                   "--grid-count", "64", "--t-end", "1", "--output-every", str(every)])
        if rows < 10:
            assert rc == 1
            assert f"give {rows} diagnostic rows" in capsys.readouterr().err
            assert list(out.iterdir()) == []
        else:
            assert rc == 0
            diag = (out / "evolve_diagnostics.csv").read_text().splitlines()
            assert len(diag) == 1 + rows
            assert float(diag[-1].split(",")[0]) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_bytes(self, cfg_file, tmp_path):
        outs = (tmp_path / "e1", tmp_path / "e2")
        for out in outs:
            argv = ["evolve", "--config", str(cfg_file), "--out", str(out),
                    "--eps", "0.05", "--grid-count", "128", "--t-end", "0.5",
                    "--seed", "5"]
            assert main(argv) == 0
        for name in ("evolve_diagnostics.csv", "evolve_summary.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestRunSteady2D:
    def test_field_csv(self, cfg_file, tmp_path):
        out = tmp_path / "s2d"
        rc = main(
            [
                "steady-2d",
                "--config",
                str(cfg_file),
                "--eps",
                "0.05",
                "--shape",
                "disk:r=1",
                "--h",
                "0.05",
                "--samples",
                "16",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = (out / "steady_field.csv").read_text().splitlines()
        assert lines[0] == "x,y,W,U"
        assert len(lines) > 100
        table = (out / "curvature_thickness.csv").read_text().splitlines()
        assert table[0] == "arclength,curvature,thickness"

    @pytest.mark.parametrize("shape", ["disk", "ellipse:a=1.4142,b=0.7071", "star"])
    def test_field_csv_bytes(self, cfg_file, tmp_path, monkeypatch, shape):
        # oracle: each value of each row through the per-value writer, with
        # x and y from the meshgrid of the grid coordinates, over 1024 rows
        solve = planar2d.solve_nonlocal_2d
        solved = []

        def capturing(params, grid):
            solved.append((grid, solve(params, grid)))
            return solved[-1][1]

        monkeypatch.setattr(planar2d, "solve_nonlocal_2d", capturing)
        out = tmp_path / "s2d"
        rc = main(["steady-2d", "--config", str(cfg_file), "--eps", "0.05", "--shape", shape,
                   "--h", "0.05", "--samples", "8", "--out", str(out)])
        assert rc == 0
        ((grid, res),) = solved
        X, Y = np.meshgrid(grid.coords, grid.coords, indexing="ij")
        mask = grid.inside
        assert mask.sum() > 1024
        rows = zip(X[mask], Y[mask], res.W.values[mask], res.U.values[mask])
        _write_csv_per_value(tmp_path / "ref.csv", "x,y,W,U", rows)
        assert (out / "steady_field.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "shape, named",
        [
            ("ellipse:aa=2", "'aa'"),
            ("disk:radius=3", "'radius'"),
            ("star:r0=1,amp=0.3", "'amp'"),
            ("star:k=2.5", "k=2.5"),
            ("disk:3", "'3'"),
            # non-finite sizes: the shapes' own ValueError, not an overflow
            # in the grid build or in int(k)
            ("disk:r=inf", "disk:r=inf"),
            ("ellipse:a=inf", "ellipse:a=inf"),
            ("star:r0=inf", "star:r0=inf"),
            ("star:k=inf", "star:k=inf"),
            ("disk:r=nan", "disk:r=nan"),
            ("ellipse:a=nan", "ellipse:a=nan"),
            ("star:r0=nan", "star:r0=nan"),
        ],
    )
    def test_bad_shape_rejected(self, cfg_file, tmp_path, capsys, shape, named):
        out = tmp_path / "bad_shape"
        rc = main(["steady-2d", "--config", str(cfg_file), "--eps", "0.05",
                   "--shape", shape, "--h", "0.05", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_rejected(self, cfg_file, tmp_path, capsys, samples):
        out = tmp_path / "no_samples"
        rc = main(["steady-2d", "--config", str(cfg_file), "--eps", "0.05",
                   "--shape", "disk", "--h", "0.05", "--samples", samples, "--out", str(out)])
        assert rc == 1
        assert "'samples'" in capsys.readouterr().err
        assert not out.exists()


class TestRunVerify:
    def test_acceptance_configuration_passes(self, cfg_file, tmp_path):
        out = tmp_path / "verify_acc"
        rc = main(
            [
                "verify",
                "--config",
                str(cfg_file),
                "--out",
                str(out),
                "--eps-list",
                "0.004 0.002 0.001",
                "--grid-count",
                "2500",
            ]
        )
        assert rc == 0
        lines = (out / "verify_report.csv").read_text().splitlines()
        assert all(ln.endswith(",1") for ln in lines[1:])

    def test_report_rows_and_exit(self, cfg_file, tmp_path):
        out = tmp_path / "verify"
        rc = main(
            [
                "verify",
                "--config",
                str(cfg_file),
                "--out",
                str(out),
                "--eps-list",
                "0.02 0.014 0.01",
                "--grid-count",
                "1500",
            ]
        )
        # coarse epsilons may overshoot the gap gates; both outcomes are
        # legitimate exits here, the report itself is what is checked
        assert rc in (0, 2)
        lines = (out / "verify_report.csv").read_text().splitlines()
        assert lines[0] == "quantity,predicted,extrapolated,relative_gap,pass"
        assert len(lines) == 5
        quantities = [ln.split(",")[0] for ln in lines[1:]]
        assert quantities == ["slope_W", "slope_U", "lambda_eps", "thickness"]


@pytest.mark.parametrize(
    "argv", [[name, "-h"] for name in COMMANDS] + [["-h"], ["transmogrify"], []]
)
def test_main_parses_as_the_full_parser(argv, capsys):
    """main builds the options of the invoked command only; its help and
    error texts and exit codes are those of the parser of every command."""
    with pytest.raises(SystemExit) as full:
        _build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as one:
        main(argv)
    assert one.value.code == full.value.code
    assert capsys.readouterr() == expected


def test_readme_lists_every_option():
    """The README's CLI section has one table row per config key, giving its
    flag and the commands that take it, as _OPTIONS declares them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) >= 3:
            rows[cells[0].strip("`")] = cells[1:3]
    for key, (_, flag, commands) in _OPTIONS.items():
        assert key in rows, f"README has no row for '{key}'"
        flag_cell, commands_cell = rows[key]
        if flag:
            assert f"`{flag}`" in flag_cell, key
        listed = re.findall(r"`([a-z0-9-]+)`", commands_cell)
        assert tuple(listed) == commands and (commands or commands_cell == "every"), key


ROOT = Path(__file__).resolve().parents[1]


def _fresh_import(code: str) -> set:
    """The words that code, run in a fresh interpreter on src/, prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.split())


def test_import_footprint():
    """A fresh `import klayer.cli` loads every solver module but none of the
    scipy subpackages klayer does not use, which would cost start-up time and
    memory on every CLI call."""
    eager = {"klayer.planar2d", "klayer.evolve_radial"}
    forbidden = {"scipy.optimize", "scipy.interpolate", "scipy.fft", "scipy.spatial"}
    loaded = _fresh_import(
        "import sys, klayer.cli; "
        f"print(*(m for m in {sorted(eager | forbidden)!r} if m in sys.modules))"
    )
    assert eager <= loaded
    assert not loaded & forbidden


def test_package_loads_no_submodule():
    """`import klayer` loads only the package; the time-stepping path does
    not load the steady ball domain."""
    listing = "print(*(m for m in sys.modules if m.startswith('klayer.')))"
    assert _fresh_import(f"import sys, klayer; {listing}") == set()
    assert "klayer.mass_constraint" not in _fresh_import(
        f"import sys, klayer.evolve_radial; {listing}"
    )


def test_every_public_name_has_one_home():
    """Each name a module lists in __all__ is defined in that module."""
    for info in pkgutil.iter_modules(klayer.__path__, "klayer."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            home = getattr(getattr(module, name), "__module__", module.__name__)
            assert home == module.__name__, f"{module.__name__}.{name} is defined in {home}"


def test_tracer_targets_resolve():
    """Every (module, attribute) the benchmark tracer wraps exists after
    `import klayer.cli`; a missing one makes its per-layer metrics absent."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode next to the benchmark
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = dont_write
    importlib.import_module("klayer.cli")
    for module_name, attr, span_name, _ in tracer.TARGETS:
        owner = sys.modules.get(module_name)
        assert owner is not None, f"{module_name} not loaded by klayer.cli ({span_name})"
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{attr} missing ({span_name})"
