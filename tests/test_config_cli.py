import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcfsolve import (ConfigError, RunConfig, build_problem, emit_outputs, field_table,
                      parse_config, soliton)
from mcfsolve.cli import main as cli_main


MINIMAL = {"geometry": {"kind": "interval", "a": -1.0, "b": 1.0},
           "angle": {"phi": "const:0.0"}}


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.solver["N_r"] == 200
        assert cfg.solver["scheme"] == "semi_implicit"
        assert cfg.solver["dt"] is None

    def test_steep_angle_rejected(self):
        bad = {**MINIMAL, "angle": {"phi": "const:0.99"}}
        with pytest.raises(ConfigError, match="too steep"):
            parse_config(bad)

    def test_steep_fourier_rejected(self):
        bad = {"geometry": {"kind": "polar_disk", "R": 1.0},
               "angle": {"phi": "fourier:0.5,0.5"}}
        with pytest.raises(ConfigError, match="too steep"):
            parse_config(bad)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="top-level"):
            parse_config({**MINIMAL, "extra": 1})
        with pytest.raises(ConfigError, match="solver"):
            parse_config({**MINIMAL, "solver": {"NR": 100}})
        with pytest.raises(ConfigError, match="solver"):
            parse_config({**MINIMAL, "solver": {"eps_ratio": 0.5}})
        with pytest.raises(ConfigError, match="top-level"):
            parse_config({**MINIMAL, "seed": 0})
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({"geometry": {"kind": "interval", "a": -1, "b": 1, "x": 0},
                          "angle": {"phi": "const:0.0"}})

    def test_preset_expands_to_oracle(self):
        cfg = parse_config({"preset": "grim_reaper"})
        assert cfg.geometry["kind"] == "interval"
        phi = float(cfg.angle.split(":")[1])
        assert phi == pytest.approx(-math.sin(0.5))
        assert phi == pytest.approx(-0.479426, abs=1e-6)

    def test_preset_with_override(self):
        cfg = parse_config({"preset": "grim_reaper", "solver": {"N_r": 100}})
        assert cfg.solver["N_r"] == 100

    def test_safety_is_an_unknown_key(self):
        # the explicit step's safety factor is a constant of the flow; dt sets any step
        with pytest.raises(ConfigError, match=re.escape("solver: unknown keys ['safety']")):
            parse_config({**MINIMAL, "solver": {"safety": 0.4}})
        assert "safety" not in parse_config(MINIMAL).resolved()["solver"]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config({"preset": "nope"})

    def test_dt_forms(self):
        assert parse_config({**MINIMAL, "solver": {"dt": "auto"}}).solver["dt"] is None
        assert parse_config({**MINIMAL, "solver": {"dt": None}}).solver["dt"] is None
        assert parse_config({**MINIMAL, "solver": {"dt": 0.01}}).solver["dt"] == 0.01
        with pytest.raises(ConfigError):
            parse_config({**MINIMAL, "solver": {"dt": -1.0}})

    @pytest.mark.parametrize("override,field", [
        ({"solver": {"N_theta": None}}, "solver.N_theta"),
        ({"solver": 5}, "solver"),
        ({"solver": {"N_r": 8.5}}, "solver.N_r"),
        ({"solver": {"dt": [0.1]}}, "solver.dt"),
        ({"solver": {"tol": float("nan")}}, "solver.tol"),
        ({"solver": {"scheme": "implicit"}}, "solver.scheme"),
        ({"solver": {"max_iter": 0}}, "solver.max_iter"),
        ({"angle": {"phi": "const:nan"}}, "angle.phi"),
        ({"angle": {"phi": "fourier:0.1"}}, "angle.phi"),
        ({"preset": ["grim_reaper"]}, "preset"),
        ({"geometry": {"kind": "interval", "a": None, "b": 1}}, "geometry.a"),
        ({"geometry": {"kind": "interval", "a": -1, "b": True}}, "geometry.b"),
        ({"geometry": {"kind": "polar_disk", "R": [1]}}, "geometry.R"),
        ({"geometry": {"kind": "polar_disk", "R": float("inf")}}, "geometry.R"),
        ({"geometry": {"kind": "radial_ball", "n": None, "R": 1}}, "geometry.n"),
        ({"geometry": {"kind": "radial_ball", "n": 2.5, "R": 1}}, "geometry.n"),
        ({"geometry": {"kind": "radial_ball", "R": 1,
                       "curvature": {"model": "hyperbolic", "K": "1"}}}, "geometry.curvature.K"),
    ])
    def test_malformed_values_name_their_field(self, override, field):
        with pytest.raises(ConfigError, match=f"^{field}:"):
            parse_config({**MINIMAL, **override})

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_arbitrary_json_gives_config_or_config_error(self, data):
        scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
                   | st.sampled_from(["auto", "explicit", "const:0.1", "fourier:0.1,0.2"]))
        value = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                             | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                             max_leaves=6)
        spec = st.builds(lambda head, body: f"{head}:{body}",
                         st.sampled_from(["const", "fourier", "other"]),
                         st.text(max_size=12) | st.lists(st.floats(), max_size=4).map(
                             lambda cs: ",".join(repr(c) for c in cs)))
        keys = st.sampled_from(["N_r", "N_theta", "scheme", "dt", "tol", "max_iter",
                                "safety", "extra"])
        curvature = st.dictionaries(st.sampled_from(["model", "K", "extra"]),
                                    st.sampled_from(["flat", "hyperbolic", "pinched_ch"]) | value)
        geometry = st.builds(
            lambda kind, rest, curv: {"kind": kind, **rest, **curv},
            st.sampled_from(["interval", "radial_ball", "polar_disk", "other"]),
            st.dictionaries(st.sampled_from(["a", "b", "R", "n", "extra"]), value),
            st.just({}) | (curvature | value).map(lambda c: {"curvature": c}))
        cfg = {"geometry": data.draw(st.sampled_from([MINIMAL["geometry"],
                                                      {"kind": "polar_disk", "R": 1.0}])
                                     | geometry | value),
               "angle": data.draw(value | st.dictionaries(st.just("phi"), spec | value)),
               "solver": data.draw(value | st.dictionaries(keys, value))}
        try:
            parsed = parse_config(cfg)
        except ConfigError:
            return
        assert isinstance(parsed, RunConfig)

    def test_round_trip(self):
        cfg = parse_config({"preset": "grim_reaper", "solver": {"N_r": 64}})
        resolved = cfg.resolved()
        again = parse_config(resolved)
        assert again.resolved() == resolved

    def test_round_trip_through_file(self, tmp_path):
        cfg = parse_config({"preset": "grim_reaper", "solver": {"N_r": 64}})
        emit_outputs(tmp_path, cfg, {})
        again = parse_config(tmp_path / "resolved_config.json")
        assert again.resolved() == cfg.resolved()

    def test_build_problem(self):
        geom, grid, angle = build_problem({"preset": "grim_reaper"})
        assert grid.n_nodes == 201
        assert angle.phi0 == pytest.approx(math.sin(0.5))


class TestEmitOutputs:
    def test_deterministic_bytes(self, tmp_path):
        cfg = parse_config(MINIMAL)
        payload = {"report.json": {"a": 1 / 3, "b": [1.0, 2.0]},
                   "t.csv": (("x", "y"), [(0.1, 0.2), (0.3, 0.4)])}
        emit_outputs(tmp_path / "one", cfg, payload)
        emit_outputs(tmp_path / "two", cfg, payload)
        for name in ["resolved_config.json", *payload]:
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b

    def test_shortest_round_trip_floats(self, tmp_path):
        emit_outputs(tmp_path, parse_config(MINIMAL), {"v.csv": (("x",), [(0.1,)])})
        assert (tmp_path / "v.csv").read_text() == "x\n0.1\n"

    def test_integers_stay_integers(self, tmp_path):
        rows = [(0, 0.5), (np.int64(1), np.float64(0.25)), (2, 1.0)]
        emit_outputs(tmp_path, parse_config(MINIMAL), {"v.csv": (("level", "h"), rows)})
        assert (tmp_path / "v.csv").read_text() == "level,h\n0,0.5\n1,0.25\n2,1.0\n"

    def test_returns_config_then_each_file(self, tmp_path):
        cfg = parse_config({"preset": "grim_reaper", "solver": {"N_r": 64}})
        written = emit_outputs(tmp_path / "out", cfg, {"a.csv": (("x",), [(1.0,)]),
                                                       "b.json": {"k": 1}})
        out = tmp_path / "out"
        assert written == [out / "resolved_config.json", out / "a.csv", out / "b.json"]
        assert json.loads((out / "resolved_config.json").read_text()) == cfg.resolved()

    def test_numpy_scalars_write_plain_json(self, tmp_path):
        report = {"value": np.float64(0.1), "pass": np.bool_(True), "fail": np.bool_(False),
                  "count": np.int64(3), "trace": np.array([0.5, 1.5])}
        emit_outputs(tmp_path, parse_config(MINIMAL), {"report.json": report})
        text = (tmp_path / "report.json").read_text()
        assert json.loads(text) == {"value": 0.1, "pass": True, "fail": False, "count": 3,
                                    "trace": [0.5, 1.5]}
        assert '"pass": true' in text and text.endswith("}\n")


class TestFieldTable:
    def test_disk_rows_ring_by_ring(self, tmp_path):
        cfg = parse_config({"geometry": {"kind": "polar_disk", "R": 1.0},
                            "solver": {"N_r": 8, "N_theta": 8}})
        geom, grid, angle = build_problem(cfg)
        values = np.random.default_rng(3).standard_normal(grid.shape)
        header, rows = field_table(grid, values)
        assert header == ("r", "theta", "value")
        assert len(rows) == grid.n_nodes * grid.n_theta
        n = grid.n_theta
        # the coordinates are their shortest round-trip text, each formatted once
        for k, row in enumerate(rows):
            assert row == (repr(grid.nodes.tolist()[k // n]), repr(grid.theta.tolist()[k % n]),
                           values[k // n, k % n])
        assert len({id(row[0]) for row in rows}) == grid.n_nodes
        assert len({id(row[1]) for row in rows}) == grid.n_theta
        emit_outputs(tmp_path, cfg, {"u.csv": (header, rows)})
        lines = (tmp_path / "u.csv").read_text().splitlines()
        assert lines[0] == "r,theta,value"
        want = [(grid.nodes[k // n], grid.theta[k % n], values[k // n, k % n])
                for k in range(len(rows))]
        assert [tuple(map(float, line.split(","))) for line in lines[1:]] == want

    @pytest.mark.parametrize("geometry,coord", [
        ({"kind": "radial_ball", "n": 3, "R": 1.0}, "r"),
        ({"kind": "interval", "a": -1.0, "b": 1.0}, "x"),
    ])
    def test_radial_headers(self, geometry, coord):
        geom, grid, angle = build_problem({"geometry": geometry, "solver": {"N_r": 8}})
        values = np.linspace(0.0, 1.0, grid.n_nodes)
        header, rows = field_table(grid, values)
        assert header == (coord, "value")
        assert [(float(x), v) for x, v in rows] == list(zip(grid.nodes, values))
        assert all(x == repr(float(x)) for x, _ in rows)


class TestCli:
    def test_soliton_outputs(self, tmp_path):
        out = tmp_path / "sol"
        rc = cli_main(["soliton", "--config", "grim_reaper", "--out", str(out)])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert {"u_inf.csv", "report.json", "resolved_config.json"} <= names
        report = json.loads((out / "report.json").read_text())
        assert report["C_quad"] == pytest.approx(0.5, abs=1e-3)
        first = (out / "u_inf.csv").read_text().splitlines()[0]
        assert first == "x,value"

    def test_soliton_report_counts_factorizations_and_corrections(self, tmp_path):
        out = tmp_path / "sol"
        assert cli_main(["soliton", "--config", "grim_reaper", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        # one Jacobian, factored once, then chord corrections on its LU
        assert report["newton_iterations"] == [1]
        assert report["chord_corrections"][0] > 0

    def test_flow_snapshot_count(self, tmp_path):
        out = tmp_path / "flow"
        cfg = dict(MINIMAL)
        cfg["angle"] = {"phi": "const:-0.2"}
        cfg["solver"] = {"N_r": 32}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli_main(["flow", "--config", str(path), "--t-end", "3.0",
                       "--snapshot-interval", "1.0", "--out", str(out)])
        assert rc == 0
        snaps = sorted(p.name for p in out.iterdir() if p.name.startswith("u_t"))
        assert snaps == ["u_t0.csv", "u_t1.csv", "u_t2.csv", "u_t3.csv"]

    def test_check_exit_codes(self, tmp_path):
        good = {"geometry": {"kind": "radial_ball", "n": 2, "R": 0.3,
                             "curvature": {"model": "hyperbolic", "K": 1.0}},
                "angle": {"phi": "const:0.05"}}
        p = tmp_path / "good.json"
        p.write_text(json.dumps(good))
        assert cli_main(["check", "--config", str(p), "--out", str(tmp_path / "g")]) == 0
        bad = dict(good)
        bad["geometry"] = {**good["geometry"], "R": 0.4}
        p2 = tmp_path / "bad.json"
        p2.write_text(json.dumps(bad))
        assert cli_main(["check", "--config", str(p2), "--out", str(tmp_path / "b")]) == 2

    @pytest.mark.parametrize("sub,options", [
        ("flow", ["--t-end", "1", "--snapshot-interval", "0"]),
        ("verify", ["--tol", "nan"]),
    ])
    def test_bad_run_length_exits_1(self, tmp_path, capsys, sub, options):
        # bad input is an error, exit 1, not a traceback or a failed verification
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, "angle": {"phi": "const:-0.2"},
                                    "solver": {"N_r": 32}}))
        assert cli_main([sub, "--config", str(path), *options,
                         "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_verify_rejects_tol_before_solving(self, tmp_path, capsys, monkeypatch, tol):
        def never(*args, **kwargs):
            pytest.fail("verify solved for the translator before checking --tol")

        monkeypatch.setattr(soliton, "solve_soliton", never)
        assert cli_main(["verify", "--config", "grim_reaper", "--tol", tol,
                         "--out", str(tmp_path / "x")]) == 1
        assert "--tol must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_study_outputs(self, tmp_path):
        out = tmp_path / "study"
        assert cli_main(["study", "--config", "grim_reaper", "--levels", "3",
                         "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == "level,h_r,C_quad,C_error,u_error"
        assert [float(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2]
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
        report = json.loads((out / "report.json").read_text())
        assert len(report["c_orders"]) == 2 and len(report["u_orders"]) == 2

    @pytest.mark.parametrize("sub,geometry,options", [
        ("soliton", MINIMAL["geometry"], []),
        ("flow", MINIMAL["geometry"], ["--t-end", "0.5"]),
        ("check", {"kind": "radial_ball", "n": 2, "R": 0.3,
                   "curvature": {"model": "hyperbolic", "K": 1.0}}, []),
        ("verify", MINIMAL["geometry"], []),
        ("study", MINIMAL["geometry"], ["--levels", "3"]),
    ])
    def test_every_subcommand_writes_resolved_config(self, tmp_path, sub, geometry, options):
        cfg = {"geometry": geometry, "angle": {"phi": "const:-0.05"}, "solver": {"N_r": 16}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / sub
        assert cli_main([sub, "--config", str(path), *options, "--out", str(out)]) == 0
        assert json.loads((out / "resolved_config.json").read_text()) == \
            parse_config(cfg).resolved()

    def test_study_too_few_levels_exits_1(self, tmp_path, capsys):
        assert cli_main(["study", "--config", "grim_reaper", "--levels", "2",
                         "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_error_exit_code(self, tmp_path):
        assert cli_main(["soliton", "--config", str(tmp_path / "missing.json"),
                         "--out", str(tmp_path / "x")]) == 1

    def test_malformed_solver_block_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, "solver": {"N_theta": None}}))
        assert cli_main(["soliton", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        assert "solver.N_theta" in capsys.readouterr().err

    def test_malformed_geometry_block_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, "geometry": {"kind": "radial_ball", "n": None,
                                                             "R": 1}}))
        assert cli_main(["soliton", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        assert "geometry.n" in capsys.readouterr().err

    def test_verify_passes_on_oracle(self, tmp_path):
        out = tmp_path / "v"
        rc = cli_main(["verify", "--config", "grim_reaper", "--tol", "1e-3",
                       "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["pass"] is True

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli_main(["soliton", "--config", "grim_reaper", "--out", str(a)])
        cli_main(["soliton", "--config", "grim_reaper", "--out", str(b)])
        for name in ("report.json", "u_inf.csv", "resolved_config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_phi_override(self, tmp_path):
        # the preset plus an angle block in a config file, not a flag
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "grim_reaper", "angle": {"phi": "const:0.0"}}))
        out = tmp_path / "p"
        rc = cli_main(["soliton", "--config", str(path), "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert abs(rep["C_quad"]) < 1e-12

    @pytest.mark.parametrize("argv", [
        ["soliton", "--config", "grim_reaper", "--bogus"],
        ["soliton", "--config", "grim_reaper", "--phi", "const:0.0"],
        ["flow", "--config", "grim_reaper", "--t-end", "1", "--dt", "0.01"],
        ["check", "--config", "grim_reaper", "--phi0", "0.1"],
        ["soliton"],
        ["nope", "--config", "grim_reaper"],
    ])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        # 2 means a failed verification, so a mistyped command must not return it
        assert cli_main([*argv, "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0
        assert cli_main(["soliton", "--help"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_readme_commands_use_defined_flags(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        commands = [line.split("#")[0].split()[1:] for line in readme.splitlines()
                    if line.startswith("mcfsolve ")]
        assert len(commands) >= 5
        for words in commands:
            sub = words[0]
            capsys.readouterr()
            assert cli_main([sub, "--help"]) == 0, f"README runs unknown subcommand {sub!r}"
            defined = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
            for flag in (w for w in words if w.startswith("--")):
                assert flag in defined, f"README passes {flag} to mcfsolve {sub}"
