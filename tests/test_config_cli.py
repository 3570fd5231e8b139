import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from mcfsolve import ConfigError, RunConfig, build_problem, emit_outputs, parse_config
from mcfsolve.cli import main as cli_main


MINIMAL = {"geometry": {"kind": "interval", "a": -1.0, "b": 1.0},
           "angle": {"phi": "const:0.0"}}


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.solver.n_r == 200
        assert cfg.solver.scheme == "semi_implicit"
        assert cfg.solver.dt is None

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
        assert cfg.solver.n_r == 100
        assert cfg.preset == "grim_reaper"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config({"preset": "nope"})

    def test_dt_forms(self):
        assert parse_config({**MINIMAL, "solver": {"dt": "auto"}}).solver.dt is None
        assert parse_config({**MINIMAL, "solver": {"dt": None}}).solver.dt is None
        assert parse_config({**MINIMAL, "solver": {"dt": 0.01}}).solver.dt == 0.01
        with pytest.raises(ConfigError):
            parse_config({**MINIMAL, "solver": {"dt": -1.0}})

    @pytest.mark.parametrize("override,field", [
        ({"solver": {"N_theta": None}}, "solver.N_theta"),
        ({"solver": 5}, "solver"),
        ({"solver": {"N_r": 8.5}}, "solver.N_r"),
        ({"solver": {"dt": [0.1]}}, "solver.dt"),
        ({"solver": {"tol": float("nan")}}, "solver.tol"),
        ({"solver": {"safety": 2.0}}, "solver.safety"),
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
        emit_outputs(tmp_path, {"resolved_config.json": ("json", cfg.resolved())})
        again = parse_config(tmp_path / "resolved_config.json")
        assert again.resolved() == cfg.resolved()

    def test_build_problem(self):
        geom, grid, angle = build_problem({"preset": "grim_reaper"})
        assert grid.n_nodes == 201
        assert angle.phi0 == pytest.approx(math.sin(0.5))


class TestEmitOutputs:
    def test_deterministic_bytes(self, tmp_path):
        payload = {"report.json": ("json", {"a": 1 / 3, "b": [1.0, 2.0]}),
                   "t.csv": ("csv", ("x", "y"), [(0.1, 0.2), (0.3, 0.4)])}
        emit_outputs(tmp_path / "one", payload)
        emit_outputs(tmp_path / "two", payload)
        for name in payload:
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b

    def test_shortest_round_trip_floats(self, tmp_path):
        emit_outputs(tmp_path, {"v.csv": ("csv", ("x",), [(0.1,)])})
        assert (tmp_path / "v.csv").read_text() == "x\n0.1\n"


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
        out = tmp_path / "p"
        rc = cli_main(["soliton", "--config", "grim_reaper", "--phi", "const:0.0",
                       "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert abs(rep["C_quad"]) < 1e-12
