import csv
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest

from sislab import models, spectral
from sislab.cli import main
from sislab.config import (
    ConfigError,
    PRESETS,
    SweepConfig,
    load_config,
    load_sweep_config,
    parse_config_text,
    preset_config,
)
from sislab.mesh import Field, build_grid
from sislab.output import (
    emit_csv,
    emit_svg,
    emit_sweep,
    emit_sweep_svg,
    read_run,
)
from sislab.sweep import SweepPoint, SweepResult


# The scenario table: coefficient families, dispersal rates, model variants.
PRESET_TABLE = {
    "sim1a": ("mass_action_ds0", "0.5", "4 - pi*sin(pi*x)", 0.0, 1.0),
    "sim1b": ("mass_action_ds0", "2", "4 - pi*sin(pi*x)", 0.0, 1.0),
    "sim1c": ("mass_action_ds0", "0.5*(1 + x)", "4 - pi*sin(pi*x)", 0.0, 1.0),
    "sim2a": ("mass_action_di0", "0.2", "4 - pi*sin(pi*x)", 1.0, 0.0),
    "sim2b": ("mass_action_di0", "1", "4 - pi*sin(pi*x)", 1.0, 0.0),
    "sim2c": ("mass_action_di0", "2", "14 - 4*pi*sin(4*pi*x)", 1.0, 0.0),
    "sim3a": ("std_incidence_ds0", "1 + sin(pi*x)", "1.5", 0.0, 1.0),
    "sim3b": ("std_incidence_ds0", "2.5 + sin(pi*x)", "1.5 + sin(pi*x)", 0.0, 1.0),
    "sim3c": ("std_incidence_ds0", "2 - sin(pi*x)", "1", 0.0, 1.0),
    "sim4a": ("std_incidence_di0", "2 - abs(x - 0.5)^0.5", "1.5", 1.0, 0.0),
    "sim4b": ("std_incidence_di0", "2 - sin(pi*x)", "1.5", 1.0, 0.0),
}


class TestPresets:
    def test_catalogue_is_complete(self):
        assert sorted(PRESETS) == sorted(PRESET_TABLE)

    @pytest.mark.parametrize("name", sorted(PRESET_TABLE))
    def test_preset_fidelity(self, name):
        model, beta, gamma, d_S, d_I = PRESET_TABLE[name]
        cfg = preset_config(name)
        assert cfg.model == model
        assert cfg.beta_expr == beta
        assert cfg.gamma_expr == gamma
        assert cfg.d_S == d_S and cfg.d_I == d_I
        assert cfg.S0_expr == "2 + cos(pi*x)"
        if name == "sim1c":
            assert cfg.I0_expr == "max(a + cos(pi*x), 0)"
            assert cfg.params == {"a": 1.5}
        else:
            assert cfg.I0_expr == "1.5 + cos(pi*x)"
        assert cfg.nx == 201

    def test_every_preset_carries_population_3_5(self):
        from sislab.mesh import quadrature

        for name in PRESET_TABLE:
            spec, grid, S0, I0 = preset_config(name).build()
            assert quadrature(S0.grid, S0.values) + quadrature(I0.grid, I0.values) \
                == pytest.approx(3.5, abs=2e-4)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("sim9z")


class TestConfigParsing:
    def test_key_value_lines_with_comments(self):
        entries = parse_config_text(
            "# run setup\npreset = sim1b\nT = 10  # short\n\nnx = 101\n")
        assert entries["preset"] == ("sim1b", 2)
        assert entries["T"] == ("10", 3)
        assert entries["nx"] == ("101", 5)

    def test_malformed_line_reports_its_number(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("preset = sim1a\nnot a pair\n", source="cfg")

    def test_empty_key_reports_its_line(self):
        with pytest.raises(ConfigError, match="^cfg:2: empty key$"):
            parse_config_text("preset = sim1a\n = 5\n", source="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("T = 1\nT = 2\n")

    def test_empty_file_lists_required_keys(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        for key in ("model", "beta_expr", "gamma_expr", "S0_expr", "I0_expr"):
            assert key in str(info.value)

    def test_unknown_key_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("preset = sim1a\nbogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_preset_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset = sim1b\nT = 5\nnx = 51\nparam.a = 2.0\n")
        cfg = load_config(path)
        assert cfg.preset == "sim1b"
        assert cfg.T == 5.0 and cfg.nx == 51
        assert cfg.beta_expr == "2"
        assert cfg.params["a"] == 2.0

    def test_dt_tol_is_a_positive_number_or_none(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset = sim1a\ndt_tol = 1e-6\n")
        cfg = load_config(path)
        assert cfg.dt_tol == 1e-6 and cfg.run_kwargs()["dt_tol"] == 1e-6
        assert load_config(None, {"preset": "sim1a"}).run_kwargs()["dt_tol"] is None
        assert load_config(None, {"preset": "sim1b"}).dt_tol == 3e-7
        for none in ("none", "None"):
            assert load_config(path, {"preset": "sim1b", "dt_tol": none}).dt_tol is None
        path.write_text("preset = sim1a\ndt_tol = 0\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: dt_tol expects a positive "
                                              r"finite number or none, got '0'$"):
            load_config(path)

    def test_full_explicit_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "model = std_incidence_ds0\nbeta_expr = 2.5 + sin(pi*x)\n"
            "gamma_expr = 1.5 + sin(pi*x)\nS0_expr = 2 + cos(pi*x)\n"
            "I0_expr = 1.5 + cos(pi*x)\nd_S = 0\nd_I = 1\ndt = 2e-3\n")
        cfg = load_config(path)
        assert cfg.model == "std_incidence_ds0"
        assert cfg.dt == 2e-3

    def test_type_errors_are_specific(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset = sim1a\nnx = many\n")
        with pytest.raises(ConfigError, match="integer"):
            load_config(path)
        path.write_text("preset = sim1a\nT = long\n")
        with pytest.raises(ConfigError, match="T expects a real number, got 'long'"):
            load_config(path)

    def test_sweep_config(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "preset = sim1c\nsweep_parameter = a\nsweep_lo = 0.2\n"
            "sweep_hi = 1.2\nsweep_count = 21\nsweep_observable = I_mass_at_T\n")
        sw = load_sweep_config(path)
        assert sw.parameter == "a"
        assert sw.count == 21
        assert sw.base.preset == "sim1c"

    def test_sweep_rejects_bad_ranges(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "preset = sim1c\nsweep_parameter = a\nsweep_lo = 2\n"
            "sweep_hi = 1\nsweep_count = 5\n")
        with pytest.raises(ConfigError, match="lo < hi"):
            load_sweep_config(path)
        path.write_text(
            "preset = sim1c\nsweep_parameter = a\nsweep_lo = 0\n"
            "sweep_hi = 1\nsweep_count = 1\n")
        with pytest.raises(ConfigError, match="at least 2"):
            load_sweep_config(path)

    def test_sweep_names_its_missing_key(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("preset = sim1c\nsweep_parameter = a\nsweep_lo = 0.5\n"
                        "sweep_count = 3\n")
        with pytest.raises(ConfigError, match=r"sweep needs sweep_parameter, sweep_lo, "
                                              r"sweep_hi, sweep_count \(missing sweep_hi\)"):
            load_sweep_config(path)

    @pytest.mark.parametrize("lo, hi, count, observable, message", [
        (2.0, 1.0, 5, "I_mass_at_T", "sweep range needs lo < hi"),
        (1.0, 1.0, 5, "I_mass_at_T", "sweep range needs lo < hi"),
        (0.5, 1.5, 1, "I_mass_at_T", "sweep needs at least 2 points"),
        (0.5, 1.5, 3, "bogus", "unknown observable 'bogus'; choose from I_mass_at_T, "
                               "final_sup_I, concentration_fraction"),
        (0.5, 1.5, 3, "concentration_fraction", "mass_action_ds0 records no concentration "
                                                "fraction; only mass_action_di0 does"),
    ])
    def test_sweep_config_built_in_code_checks_itself(self, lo, hi, count, observable,
                                                       message):
        base = preset_config("sim1c", nx=41, T=0.5)
        with pytest.raises(ConfigError) as rejected:
            SweepConfig(base, "a", lo, hi, count, observable)
        assert str(rejected.value) == message

    @pytest.mark.parametrize("parameter", ["aa", "nx"])
    def test_sweep_rejects_a_parameter_it_cannot_vary(self, parameter):
        # neither a sweepable run field nor an expression constant: every
        # point would run the same configuration
        base = preset_config("sim1c", nx=41, T=0.5)
        with pytest.raises(ConfigError, match=f"unknown sweep parameter '{parameter}'.*d_I.*a"):
            SweepConfig(base, parameter, 0.5, 1.5, 3, "I_mass_at_T")


@pytest.fixture(scope="module")
def tiny_run():
    cfg = preset_config("sim1b", nx=41, T=1.0, dt=1e-3, snapshot_every=0.25)
    spec, grid, S0, I0 = cfg.build()
    return cfg, models.run(spec, S0, I0, **cfg.run_kwargs())


# a sweep whose a = 0.5 point fails with an error text that holds commas
COMMA_SWEEP = ("preset = sim1c\nnx = 41\nT = 0.2\n"
               "I0_expr = sqrt(max(a - 1, -1) + 1.2*cos(pi*x)^2)\n"
               "sweep_parameter = a\nsweep_lo = 0.5\nsweep_hi = 1.5\nsweep_count = 3\n")


@pytest.fixture(scope="module")
def comma_sweep_rows(tmp_path_factory):
    """The rows of the comma sweep's sweep.csv, as csv.reader reads them."""
    tmp = tmp_path_factory.mktemp("comma_sweep")
    (tmp / "sweep.cfg").write_text(COMMA_SWEEP)
    assert main(["sweep", "--config", str(tmp / "sweep.cfg"), "--out", str(tmp)]) == 0
    return _csv_rows(tmp / "sweep.csv")


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCsvEmission:
    def test_profile_shape_and_roundtrip(self, tiny_run, tmp_path):
        cfg, traj = tiny_run
        emit_csv(traj, tmp_path)
        rebuilt = read_run(traj.spec, tmp_path)
        assert len(rebuilt.snapshots) == len(traj.snapshots)
        final = rebuilt.final
        assert np.array_equal(final.S.values, traj.final.S.values)   # bit-exact round trip
        assert np.array_equal(final.I.values, traj.final.I.values)
        assert final.I.grid.nodes.shape == (41,)

    def test_single_snapshot_row_count(self, tmp_path):
        cfg = preset_config("sim1b", nx=3, T=0.5, dt=1e-3, snapshot_every=1.0)
        spec, grid, S0, I0 = cfg.build()
        traj = models.run(spec, S0, I0, **cfg.run_kwargs())
        profiles, _ = emit_csv(traj, tmp_path)
        lines = profiles.read_text().splitlines()
        # header + 3 rows per snapshot (initial + final)
        assert lines[0] == "t,x,S,I"
        assert len(lines) == 1 + 3 * len(traj.snapshots)

    def test_absent_diagnostics_are_empty_cells(self, tiny_run, tmp_path):
        cfg, traj = tiny_run
        _, diagnostics = emit_csv(traj, tmp_path)
        rows = diagnostics.read_text().splitlines()
        # susceptible-locked mass action records no energy functional
        assert rows[1].split(",")[2] == ""
        header = rows[0].split(",")
        parsed = [dict(zip(header, row.split(","))) for row in rows[1:]]
        assert parsed[0]["lyapunov"] == ""
        assert float(parsed[-1]["total_mass"]) == pytest.approx(traj.N, rel=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            cfg = preset_config("sim3b", nx=31, T=0.5, snapshot_every=0.25)
            spec, grid, S0, I0 = cfg.build()
            traj = models.run(spec, S0, I0, **cfg.run_kwargs())
            p, d = emit_csv(traj, tmp_path / sub)
            outs.append(p.read_bytes() + d.read_bytes())
        assert outs[0] == outs[1]

    def test_profiles_keep_the_per_row_format(self, tmp_path):
        # signed zero, a subnormal, a large value, a sum that is not its
        # literal, and t and x that are not dyadic, against the row format
        # written out value by value
        g = build_grid(0.0, 1.0, 4)
        spec = models.ModelSpec(models.Variant.MASS_ACTION_DS0, Field(g, 2.0), Field(g, 1.0),
                                d_S=0.0, d_I=1.0)
        states = [(0.0, [1.0, -0.0, 5e-324, 1e22], [0.1 + 0.2, 2.0, 0.0, 3.5]),
                  (0.1 * 3, [0.1 + 0.2, 1e22, -0.0, 7.0], [5e-324, 1.0 / 3.0, 1e-300, 0.0])]
        traj = models.Trajectory(spec, [models.State(t, Field(g, S), Field(g, I), None)
                                        for t, S, I in states], diagnostics=[], N=1.0)
        profiles, _ = emit_csv(traj, tmp_path)
        want = "t,x,S,I\n" + "".join(
            f"{repr(float(t))},{repr(float(x))},{repr(float(s))},{repr(float(i))}\n"
            for t, S, I in states for x, s, i in zip(g.nodes, S, I))
        assert profiles.read_bytes() == want.encode()

    def test_trajectory_rebuild(self, tiny_run, tmp_path):
        cfg, traj = tiny_run
        emit_csv(traj, tmp_path)
        spec, grid, S0, I0 = cfg.build()
        rebuilt = read_run(spec, tmp_path)
        assert rebuilt.N == pytest.approx(traj.N, rel=1e-12)
        assert len(rebuilt.snapshots) == len(traj.snapshots)
        assert rebuilt.diagnostics == []

    def test_a_roundoff_negative_density_reloads(self, tiny_run, tmp_path):
        # Crank-Nicolson may leave a density below zero by roundoff
        cfg, traj = tiny_run
        profiles, _ = emit_csv(traj, tmp_path)
        lines = profiles.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",-1e-12"
        profiles.write_text("\n".join(lines) + "\n")
        assert read_run(traj.spec, tmp_path).final.I.values[-1] == -1e-12

    def test_reloaded_run_has_no_exposure_factor(self, tiny_run, tmp_path):
        cfg, traj = tiny_run
        spec = traj.spec
        assert traj.final.J is not None
        emit_csv(traj, tmp_path)
        rebuilt = read_run(spec, tmp_path)
        assert rebuilt.final.J is None
        # stepping on from a reloaded state works
        kernel = models._Kernel([spec], 1e-3)
        J0 = np.zeros((1, spec.grid.nx))
        stepped = kernel.advance(rebuilt.final.S.values[None], rebuilt.final.I.values[None],
                                 J0, 1)
        assert np.array_equal(stepped[0], kernel.advance(traj.final.S.values[None],
                                                         traj.final.I.values[None], J0, 1)[0])


    @pytest.mark.parametrize("preset, overrides", [
        ("sim1b", {}), ("sim2b", {}), ("sim3b", {}), ("sim4b", {}),
        ("sim1b", {"model": "full", "d_S": 1.0}),
    ], ids=["mass_action_ds0", "mass_action_di0", "std_incidence_ds0",
            "std_incidence_di0", "full"])
    def test_every_csv_is_a_rectangular_table_that_round_trips(self, tmp_path, preset,
                                                               overrides):
        cfg = preset_config(preset, nx=41, T=0.5, snapshot_every=0.25, **overrides)
        spec, grid, S0, I0 = cfg.build()
        traj = models.run(spec, S0, I0, **cfg.run_kwargs())
        for path in emit_csv(traj, tmp_path):
            header, *rows = _csv_rows(path)
            assert rows
            assert all(len(row) == len(header) for row in rows), path.name
        rebuilt = read_run(spec, tmp_path)
        assert len(rebuilt.snapshots) == len(traj.snapshots)
        for back, snap in zip(rebuilt.snapshots, traj.snapshots):
            assert back.t == snap.t
            assert np.array_equal(back.S.values, snap.S.values)
            assert np.array_equal(back.I.values, snap.I.values)

    def test_sweep_csv_with_a_failing_point_is_rectangular(self, comma_sweep_rows):
        header, *rows = comma_sweep_rows
        assert header == ["a", "I_mass_at_T", "error"]
        assert [len(row) for row in rows] == [3, 3, 3]
        assert [row[2] == "" for row in rows] == [False, True, True]

    def test_sweep_text_cells_are_quoted_as_csv_quotes_them(self, tmp_path):
        errors = [None, "plain text", "a, b", 'say "no"', "two\nlines", "cr\rhere", ""]
        points = [SweepPoint(0.25 * k, None if e else 0.1 * k, e)
                  for k, e in enumerate(errors)]
        path = emit_sweep(SweepResult("I_mass_at_T", "a", points, None), tmp_path)
        rows = [["a", "I_mass_at_T", "error"]]
        rows += [[repr(p.parameter), "" if p.value is None else repr(p.value), p.error or ""]
                 for p in points]
        expected = ""
        for row in rows:
            # csv quotes a line break of its own line terminator, "\r\n" by default
            line = io.StringIO()
            csv.writer(line).writerow(row)
            expected += line.getvalue().removesuffix("\r\n") + "\n"
        assert path.read_bytes() == expected.encode()
        assert [row[2] for row in _csv_rows(path)[1:]] == [e or "" for e in errors]


class TestSvgEmission:
    def test_final_profiles_has_two_series(self, tiny_run, tmp_path):
        cfg, traj = tiny_run
        path = emit_svg(traj, tmp_path / "p.svg", "final_profiles")
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "<svg" in text and "</svg>" in text

    def test_mass_series_has_one_point_per_snapshot(self, tiny_run, tmp_path):
        cfg, traj = tiny_run
        text = emit_svg(traj, tmp_path / "m.svg", "mass_series").read_text()
        assert text.count("<polyline") == 1
        assert "total population" in text
        points = text.split("<polyline", 1)[1].split('points="', 1)[1].split('"', 1)[0]
        assert len(points.split()) == len(traj.snapshots) == 5

    @staticmethod
    def _y_pixels(text):
        points = text.split("<polyline", 1)[1].split('points="', 1)[1].split('"', 1)[0]
        return {xy.split(",")[1] for xy in points.split()}

    def test_a_mass_series_constant_to_roundoff_plots_as_one_flat_line(self, tiny_run,
                                                                      tmp_path):
        cfg, traj = tiny_run
        wobble = [1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 2e-16, 1.0]
        records = [dataclasses.replace(r, total_mass=traj.N * f)
                   for r, f in zip(traj.diagnostics, wobble)]
        assert len({r.total_mass for r in records}) > 1
        flat = dataclasses.replace(traj, diagnostics=records)
        text = emit_svg(flat, tmp_path / "m.svg", "mass_series").read_text()
        assert len(self._y_pixels(text)) == 1
        # a series that moves by more than roundoff still fills the plot
        records[2] = dataclasses.replace(records[2], total_mass=traj.N * (1 - 1e-9))
        text = emit_svg(dataclasses.replace(traj, diagnostics=records), tmp_path / "v.svg",
                        "mass_series").read_text()
        assert len(self._y_pixels(text)) == 2

    def test_a_series_without_a_finite_value_is_an_error(self, tiny_run, tmp_path):
        cfg, traj = tiny_run
        records = [dataclasses.replace(r, total_mass=math.nan) for r in traj.diagnostics]
        with pytest.raises(ValueError, match="^no finite data to plot$"):
            emit_svg(dataclasses.replace(traj, diagnostics=records), tmp_path / "m.svg",
                     "mass_series")

    def test_a_sweep_without_a_finite_value_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="^no data for kind 'sweep_curve'$"):
            emit_sweep_svg([(0.5, None, "failed"), (1.0, math.inf, None)], tmp_path / "s.svg")

    def test_a_one_point_sweep_plots_at_the_left_edge(self, tmp_path):
        # one parameter value spans no x range: the point sits at the axis' start
        text = emit_sweep_svg([(0.5, 2.0)], tmp_path / "s.svg", knee=0.5).read_text()
        points = text.split("<polyline", 1)[1].split('points="', 1)[1].split('"', 1)[0]
        assert points.split(",")[0] == "70.00"
        assert '<line x1="70.0"' in text

    def test_missing_energy_series_is_an_error(self, tiny_run, tmp_path):
        cfg, traj = tiny_run
        with pytest.raises(ValueError, match="no data for kind"):
            emit_svg(traj, tmp_path / "v.svg", "lyapunov_series")

    def test_sweep_curve_with_knee_annotation(self, tmp_path):
        table = [(0.1 * k, 0.0 if k < 5 else (k - 5) * 0.2) for k in range(11)]
        path = emit_sweep_svg(table, tmp_path / "s.svg", knee=0.5)
        text = path.read_text()
        assert "knee at 0.5" in text
        assert text.count("<polyline") == 1

    def test_unknown_kind_rejected(self, tiny_run, tmp_path):
        cfg, traj = tiny_run
        with pytest.raises(ValueError, match="unknown plot kind"):
            emit_svg(traj, tmp_path / "x.svg", "sweep_curve")


class TestCli:
    def test_simulate_and_classify_roundtrip(self, tmp_path, capsys):
        run_dir = tmp_path / "out"
        rc = main(["simulate", "--preset", "sim1b",
                   "--set", "nx=41", "--set", "T=12", "--set", "dt=2e-3",
                   "--out", str(run_dir), "--svg", "final_profiles"])
        assert rc == 0
        assert (run_dir / "profiles.csv").exists()
        assert (run_dir / "diagnostics.csv").exists()
        assert (run_dir / "final_profiles.svg").exists()
        summary = json.loads((run_dir / "run.json").read_text())
        assert summary["model"] == "mass_action_ds0"
        assert summary["N"] == pytest.approx(3.5, abs=1e-3)

        rc = main(["classify", "--preset", "sim1b", "--set", "nx=41",
                   "--run-dir", str(run_dir), "--tol", "0.05"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "T32_ENDEMIC_UNIFORM" in out
        assert "PASS" in out

    def test_classify_failure_exit_code(self, tmp_path, capsys):
        run_dir = tmp_path / "out"
        main(["simulate", "--preset", "sim1b", "--set", "nx=41",
              "--set", "T=0.5", "--set", "dt=2e-3", "--out", str(run_dir)])
        rc = main(["classify", "--preset", "sim1b", "--set", "nx=41",
                   "--run-dir", str(run_dir), "--tol", "1e-6"])
        assert rc == 2

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_classify_refuses_a_tolerance_before_it_simulates(self, monkeypatch, capsys,
                                                              tol):
        def no_run(*args, **kwargs):
            raise AssertionError("classify simulated with a tolerance it must refuse")

        monkeypatch.setattr(models, "run", no_run)
        rc = main(["classify", "--preset", "sim1b", "--set", "nx=21", "--tol", tol])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == f"error: tol must be positive and finite, got {float(tol)!r}\n"

    def test_classify_refuses_a_model_without_a_prediction_before_it_simulates(
            self, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("classify simulated a model it cannot predict")

        monkeypatch.setattr(models, "run", no_run)
        rc = main(["classify", "--preset", "sim3c", "--set", "model=full", "--set", "d_S=1",
                   "--set", "steady_tol=0"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == "error: regime prediction covers only the degenerate systems\n"

    def test_classify_of_an_indeterminate_prediction_gives_no_verdict(self, capsys):
        # N = 2.82712 lies between int r and N*, where no decision rule applies
        rc = main(["classify", "--preset", "sim1c", "--set", "param.a=0.8", "--set", "T=1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("predicted regime: INDETERMINATE")
        assert "  note: N=2.82712" in out
        assert out.endswith("verdict: none (indeterminate prediction)\n")

    def test_eigen_subcommand(self, capsys):
        rc = main(["eigen", "--d", "1.0", "--h", "cos(2*pi*x)", "--nx", "101"])
        assert rc == 0
        assert "sigma" in capsys.readouterr().out

    def test_eigen_r0_mode(self, capsys):
        rc = main(["eigen", "--preset", "sim3b", "--set", "nx=101"])
        assert rc == 0
        assert "R0" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value,key", [("--d", "0.01", "d_I"), ("--nx", "41", "nx"),
                                                ("--x-min", "0.1", "x_min"),
                                                ("--x-max", "2", "x_max")])
    def test_eigen_of_a_configured_run_rejects_the_potential_flags(self, capsys, flag,
                                                                   value, key):
        rc = main(["eigen", "--preset", "sim3b", "--set", "nx=41", flag, value])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {flag}: used only with --h; for a configured "
                                f"run give --set {key}=...\n")

    def test_eigen_of_locked_infecteds_reports_the_small_dispersal_limits(self, capsys):
        rc = main(["eigen", "--preset", "sim2b", "--set", "nx=41"])
        assert rc == 0
        r0_line, sigma_line = capsys.readouterr().out.splitlines()
        assert r0_line.endswith("(d_I -> 0 limit: max beta/gamma)")
        assert sigma_line.endswith("(d_I -> 0 limit: max(beta - gamma))")
        r0, sigma = (float(line.split(" = ")[1].split()[0])
                     for line in (r0_line, sigma_line))
        assert r0 == pytest.approx(1 / (4 - np.pi), rel=1e-12)
        assert sigma == pytest.approx(np.pi - 3, rel=1e-12)

    def test_threshold_subcommand(self, capsys):
        rc = main(["threshold", "--preset", "sim1b", "--set", "nx=41"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical population" in out

    def test_threshold_prints_its_certificate(self, capsys):
        rc = main(["threshold", "--preset", "sim1c", "--set", "nx=41"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        certificate = next(line for line in out.splitlines()
                           if line.startswith("certified: N* <= dual bound = "))
        assert float(certificate.split()[-1]) <= 1e-6

    def test_threshold_prints_its_eigen_work_on_one_line(self, capsys):
        rc = main(["threshold", "--preset", "sim1c", "--set", "nx=41"])
        assert rc == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("ascent steps = "))
        steps, solves, iterations = (int(part.split(" = ")[1])
                                     for part in line.split("  "))
        assert steps >= 1
        assert solves > steps
        assert iterations >= solves

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "preset = sim1c\nnx = 41\nT = 2\ndt = 2e-3\n"
            "sweep_parameter = a\nsweep_lo = 0.5\nsweep_hi = 1.5\n"
            "sweep_count = 3\nsweep_observable = I_mass_at_T\n")
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
                   "--svg"])
        assert rc == 0
        table = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert table[0] == "a,I_mass_at_T,error"
        assert len(table) == 4
        assert (tmp_path / "sw" / "sweep.svg").exists()

    def test_sweep_error_text_with_a_comma_stays_one_cell(self, comma_sweep_rows):
        rows = comma_sweep_rows
        assert [len(row) for row in rows] == [3, 3, 3, 3]
        assert rows[1][:2] == ["0.5", ""]
        assert rows[1][2].startswith(
            "ExpressionDomainError: sqrt of a negative value in "
            "'sqrt(max(a - 1, -1) + 1.2*cos(pi*x)^2)' at node x=")

    def test_classify_run_dir_reads_only_the_profiles(self, tmp_path, capsys):
        run_dir = tmp_path / "out"
        assert main(["simulate", "--preset", "sim2b", "--set", "nx=41", "--set", "T=2",
                     "--out", str(run_dir)]) == 0
        classify = ["classify", "--preset", "sim2b", "--set", "nx=41",
                    "--run-dir", str(run_dir)]
        capsys.readouterr()
        rc = main(classify)
        with_diagnostics = capsys.readouterr()
        (run_dir / "diagnostics.csv").unlink()
        assert main(classify) == rc
        assert capsys.readouterr() == with_diagnostics

    @pytest.mark.parametrize("preset, sets", [
        ("sim1b", []), ("sim2b", []), ("sim3b", []), ("sim4b", []),
        ("sim1b", ["--set", "model=full", "--set", "d_S=1"]),
    ], ids=["mass_action_ds0", "mass_action_di0", "std_incidence_ds0",
            "std_incidence_di0", "full"])
    def test_classify_of_a_run_directory_matches_classify_of_the_run(self, tmp_path, capsys,
                                                                     preset, sets):
        args = ["--preset", preset, "--set", "nx=41", "--set", "T=1", *sets]
        assert main(["simulate", *args, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["classify", *args])
        in_process = capsys.readouterr()
        assert main(["classify", *args, "--run-dir", str(tmp_path)]) == rc
        assert capsys.readouterr() == in_process

    @pytest.mark.parametrize("case", ["header_only", "five_cells", "other_grid", "nan_cell",
                                      "inf_cell", "diagnostics_csv", "other_initial_state",
                                      "no_initial_snapshot"])
    def test_unusable_profiles_are_one_error_line(self, tmp_path, capsys, case):
        run_dir = tmp_path / "out"
        sets = ["--set", "nx=41", "--set", "T=0.5"]
        if case == "other_grid":
            sets += ["--set", "x_max=2"]
        elif case == "other_initial_state":
            sets += ["--set", "I0_expr=1.5"]
        assert main(["simulate", "--preset", "sim1b", *sets, "--out", str(run_dir)]) == 0
        profiles = run_dir / "profiles.csv"
        lines = profiles.read_text().splitlines()
        if case == "header_only":
            lines = lines[:1]
        elif case == "diagnostics_csv":
            lines = (run_dir / "diagnostics.csv").read_text().splitlines()
        elif case == "five_cells":
            lines[2] += ",0"
        elif case == "no_initial_snapshot":
            del lines[1:1 + 41]
        elif case in ("nan_cell", "inf_cell"):
            lines[2] = lines[2].rsplit(",", 1)[0] + "," + case[:3]
        profiles.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["classify", "--preset", "sim1b", "--set", "nx=41",
                   "--run-dir", str(run_dir)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert str(profiles) in captured.err
        if case in ("five_cells", "nan_cell", "inf_cell"):
            assert "line 3" in captured.err
        if case == "diagnostics_csv":
            assert captured.err == f"error: {profiles} is not a profiles.csv\n"
        if case in ("other_initial_state", "no_initial_snapshot"):
            # a run of other data would be judged against this prediction
            assert captured.err == (f"error: {profiles} does not start from the "
                                    f"configured S0 and I0 at t = 0\n")

    @pytest.mark.parametrize("run_json", ["of_its_model", "unreadable", "absent"])
    def test_a_run_directory_of_another_model_is_one_error_line(self, tmp_path, capsys,
                                                                run_json):
        # sim1b and sim3b start from the same data; run.json names the model
        # of the run, profiles.csv does not
        run_dir = tmp_path / "out"
        sets = ["--set", "nx=41", "--set", "T=0.5"]
        assert main(["simulate", "--preset", "sim1b", *sets, "--out", str(run_dir)]) == 0
        summary = run_dir / "run.json"
        if run_json == "unreadable":
            summary.write_text("[1]\n")
        elif run_json == "absent":
            summary.unlink()
        capsys.readouterr()
        rc = main(["classify", "--preset", "sim3b", *sets, "--run-dir", str(run_dir)])
        captured = capsys.readouterr()
        if run_json == "absent":
            # without run.json the run is judged as the configured model
            assert rc == 2 and captured.err == ""
            assert "predicted regime: T42_ENDEMIC" in captured.out
            return
        assert rc == 1 and captured.out == ""
        assert captured.err == {
            "of_its_model": f"error: {summary} names model mass_action_ds0, not the "
                            f"configured std_incidence_ds0\n",
            "unreadable": f"error: {summary} is not a run.json that names a model\n",
        }[run_json]

    def test_expression_overflow_is_one_error_line(self, capsys):
        # numpy's overflow warning would repeat the error on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["eigen", "--h", "exp(1000*x)", "--nx", "41"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: exp() overflowed in 'exp(1000*x)' at node x=")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("preset, item", [("sim1b", "beta_expr=1e200*1e200"),
                                              ("sim3b", "gamma_expr=1e200*1e200"),
                                              ("sim1b", "S0_expr=1e200*1e200")])
    def test_a_coefficient_that_is_not_finite_is_one_error_line(self, tmp_path, capsys,
                                                                preset, item):
        # a coefficient that overflows must stop the run before it starts:
        # inside it numpy only warns, and the run ends in a wrong state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--preset", preset, "--set", item, "--set", "T=0.1",
                       "--set", "nx=21", "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: a value that is not finite in '1e200*1e200' at node x=")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("args, variant", [
        (["--preset", "sim3a"], "std_incidence_ds0"),
        (["--preset", "sim3b"], "std_incidence_ds0"),
        (["--preset", "sim1b", "--set", "model=full", "--set", "d_S=1"], "full"),
        (["--preset", "sim4b"], "std_incidence_di0"),
    ])
    def test_threshold_of_another_variant_is_one_error_line(self, capsys, args, variant):
        # N* rests on the mass-action lockdown identity, so it exists for
        # mass_action_ds0 alone
        assert main(["threshold", *args, "--set", "nx=41"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: threshold applies to mass_action_ds0 only, "
                                f"not {variant}\n")

    @pytest.mark.parametrize("args", [
        ["eigen", "--h", "1", "--x-max", "inf", "--nx", "21"],
        ["simulate", "--preset", "sim1b", "--set", "beta_expr=2", "--set", "gamma_expr=1",
         "--set", "S0_expr=1", "--set", "I0_expr=1", "--set", "T=0.01", "--set", "nx=21",
         "--set", "x_max=inf"],
    ], ids=["eigen", "simulate"])
    def test_a_non_finite_grid_endpoint_is_one_error_line(self, tmp_path, capsys, args):
        # an infinite domain would run on nan node spacing: eigen to its
        # iteration cap, simulate to a mass check after numpy's warnings
        run_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*args, *(["--out", str(run_dir)] if args[0] == "simulate" else [])])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: grid endpoints must be finite, got [0.0, inf]\n"
        assert captured.out == ""
        assert not run_dir.exists()

    def test_config_errors_exit_one(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("args, error", [
        (["simulate", "--set", "T=1"], "give --config and/or --preset"),
        (["sweep", "--preset", "sim1c"], "sweep needs --config with sweep_* keys"),
    ])
    def test_a_command_without_its_config_is_one_error_line(self, capsys, args, error):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""

    def test_sweep_set_without_equals_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("preset = sim1c\nsweep_parameter = a\nsweep_lo = 0.5\n"
                       "sweep_hi = 1.5\nsweep_count = 3\n")
        rc = main(["sweep", "--config", str(cfg), "--set", "T"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --set expects KEY=VALUE, got 'T'\n"

    @pytest.mark.parametrize("parameter", ["aa", "nx"])
    def test_sweep_of_an_unknown_parameter_is_one_error_line(self, tmp_path, capsys,
                                                             parameter):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"preset = sim1c\nnx = 41\nT = 0.5\nsweep_parameter = {parameter}\n"
                       "sweep_lo = 0.5\nsweep_hi = 1.5\nsweep_count = 3\n")
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown sweep parameter '{parameter}'")
        assert err.count("\n") == 1
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("text, error", [
        ("sweep_observable = concentration_fraction\n",
         "mass_action_ds0 records no concentration fraction; only mass_action_di0 does"),
        ("model = bogus\n",
         "unknown model variant 'bogus'; expected one of full, mass_action_ds0, "
         "mass_action_di0, std_incidence_ds0, std_incidence_di0"),
    ], ids=["observable", "model"])
    def test_a_sweep_that_cannot_succeed_runs_no_point(self, tmp_path, capsys, text, error):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("preset = sim1c\nnx = 41\nT = 0.5\nsweep_parameter = a\n"
                       "sweep_lo = 0.5\nsweep_hi = 1.5\nsweep_count = 4\n" + text)
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""
        assert not (tmp_path / "sw").exists()

    def test_a_run_that_would_take_no_step_is_one_error_line(self, tmp_path, capsys):
        run_dir = tmp_path / "out"
        rc = main(["simulate", "--preset", "sim1b", "--set", "T=0.0004",
                   "--out", str(run_dir)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: T=0.0004 is at most half a step of dt=0.001, "
                                "so the run would take no step\n")
        assert captured.out == ""
        assert not run_dir.exists()

    def test_solver_failure_is_one_error_line(self, monkeypatch, capsys):
        # no residual meets this tolerance, so the iteration runs to its cap
        monkeypatch.setattr(spectral, "_TOL", 1e-300)
        rc = main(["eigen", "--d", "1", "--h", "x", "--nx", "41"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: principal eigenvalue iteration did not converge "
                              "after 10000 iterations")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args", [["--preset", "sim1a", "--tol", "0"],
                                      ["--preset", "sim1a", "--tol", "-1"],
                                      ["--h", "x", "--tol", "1e-6"]])
    def test_eigen_has_no_tolerance_option(self, capsys, args):
        # the stopping tolerance is spectral._TOL, so --tol is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["eigen", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --tol" in captured.err
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    def test_eigen_of_a_subnormal_rate_prints_no_warning(self, capsys):
        # gamma/beta overflows at x = 0; that ratio is left out of the shift
        rc = main(["eigen", "--preset", "sim3b", "--set", "beta_expr=1e-310 + x",
                   "--set", "nx=41"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("R0 = 0.250288406369227  (d_I=1)\n")
        assert captured.err == ""

    @pytest.mark.parametrize("item, name", [
        ("d_I=inf", "d_I"), ("d_I=1e400", "d_I"), ("dt=inf", "dt"), ("T=inf", "T"),
        ("dt=nan", "dt"), ("T=nan", "T"), ("snapshot_every=nan", "snapshot_every"),
        ("steady_tol=nan", "steady_tol"),
    ])
    def test_nonfinite_run_input_is_one_error_line(self, tmp_path, capsys, item, name):
        run_dir = tmp_path / "out"
        rc = main(["simulate", "--preset", "sim1a", "--set", item, "--out", str(run_dir)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} must be ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not list(run_dir.glob("*.csv"))

    @pytest.mark.parametrize("value", ["nan", "0", "-1e-6", "inf", "1e400", "tight"])
    def test_a_dt_tol_that_is_not_positive_and_finite_is_one_error_line(
            self, tmp_path, capsys, value):
        run_dir = tmp_path / "out"
        rc = main(["simulate", "--preset", "sim1b", "--set", f"dt_tol={value}",
                   "--out", str(run_dir)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        expects = "a real number" if value == "tight" else "a positive finite number or none"
        assert captured.err == f"error: <config>: dt_tol expects {expects}, got {value!r}\n"
        assert not run_dir.exists()

    def test_simulate_takes_dt_tol_from_the_command_line(self, tmp_path, capsys, monkeypatch):
        seen = []
        run = models.run

        def recording(*args, **kwargs):
            seen.append(kwargs["dt_tol"])
            return run(*args, **kwargs)

        monkeypatch.setattr(models, "run", recording)
        for value in ("1e-5", "none"):
            rc = main(["simulate", "--preset", "sim1a", "--set", "nx=21", "--set", "T=0.5",
                       "--set", f"dt_tol={value}", "--out", str(tmp_path / value)])
            assert rc == 0
        assert seen == [1e-5, None]

    def test_a_dt_too_small_to_count_steps_is_one_error_line(self, tmp_path, capsys):
        run_dir = tmp_path / "out"
        rc = main(["simulate", "--preset", "sim1b", "--set", "dt=1e-310",
                   "--out", str(run_dir)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == "error: dt=1e-310 is too small to count the steps of T=200.0\n"
        assert not run_dir.exists()

    def test_an_expression_too_deep_to_parse_is_one_error_line(self, capsys):
        rc = main(["eigen", "--h", "+".join(["x"] * 1000), "--nx", "5"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == ("error: expression too long or too deeply nested "
                                "(at position 0)\n")

    @pytest.mark.parametrize("name", ["x", "pi"])
    def test_a_constant_named_like_a_symbol_is_one_error_line(self, tmp_path, capsys, name):
        # expressions read x and pi themselves, so such a constant would be ignored
        run_dir = tmp_path / "out"
        rc = main(["simulate", "--preset", "sim1b", "--set", f"param.{name}=5",
                   "--set", "T=0.1", "--out", str(run_dir)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: constant name {name!r} is reserved by the " \
                               f"expression grammar\n"
        assert captured.out == ""
        assert not run_dir.exists()

    @pytest.mark.parametrize("args", [["--h", "x", "--d", "inf", "--nx", "41"],
                                      ["--preset", "sim1a", "--set", "d_I=inf"]])
    def test_eigen_rejects_an_infinite_diffusion_rate(self, capsys, args):
        assert main(["eigen", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "must be" in captured.err and "finite" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_eigen_iteration_cap_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 1)
        rc = main(["eigen", "--h", "cos(2*pi*x)", "--d", "1e-3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: principal eigenvalue iteration did not converge "
                              "after 1 iterations")
        assert err.count("\n") == 1

    def test_simulate_keeps_the_snapshots_before_a_step_size_error(self, tmp_path, capsys):
        # the sim1b spike of TestStep::test_rejects_oversized_steps fails
        # between t = 1 and 1.2 at fixed dt
        run_dir = tmp_path / "out"
        rc = main(["simulate", "--preset", "sim1b", "--set", "dt_tol=none",
                   "--set", "nx=21", "--set", "dt=0.05",
                   "--set", "beta_expr=1", "--set", "gamma_expr=2",
                   "--set", "S0_expr=1 + 9*exp(-((x-0.5)/0.005)^2)",
                   "--set", "I0_expr=0.001", "--set", "T=4", "--set", "snapshot_every=0.2",
                   "--out", str(run_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dt=0.05 is too large for these data")
        assert err.count("\n") == 1
        spec = preset_config("sim1b", nx=21).build()[0]
        assert [s.t for s in read_run(spec, run_dir).snapshots] \
            == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert len((run_dir / "diagnostics.csv").read_text().splitlines()) == 1 + 6
        summary = json.loads((run_dir / "run.json").read_text())
        assert summary["snapshots"] == 6
        assert summary["error"] == err.removeprefix("error: ").rstrip("\n")
