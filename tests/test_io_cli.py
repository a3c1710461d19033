import csv
import io
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcma import cli
from hcma.io import (_SCHEMA, MAGIC, ConfigError, ExperimentConfig, Snapshot,
                     SnapshotError, load_config, report_json,
                     write_fields_csv)

SMALL_CONFIG = """\
[grid]
nt = 9
nx = 16
ny = 16

[profile]
kind = annulus
epsilon = 1e-3

[boundary]
phi1 = 1,0,0.005,0

[run]
seed = 0

[trace]
starts = 0.0,0.25,0.5
step = 0.05
"""


def write_config(tmp_path, text=SMALL_CONFIG, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def snapshot_bytes(dims, modulus, echo: bytes, payload: bytes) -> bytes:
    """Raw snapshot with a valid header around arbitrary contents."""
    return (MAGIC + struct.pack("<IIII", 1, *dims)
            + struct.pack("<dd", modulus.real, modulus.imag)
            + struct.pack("<IId", 1, 0, 0.0) + struct.pack("<I", len(echo))
            + echo + payload)


# snapshot v1 config echoes of the default config and of one that sets
# every key to a non-default value
DEFAULT_ECHO = """\
[grid]
nt = 9
nx = 16
ny = 16
modulus = 0.0+1.0j

[profile]
kind = annulus
epsilon = 0.001
epsilon0 = 0.25
schedule =\x20

[boundary]
phi0 =\x20
phi1 =\x20

[sweep]
lambdas =\x20

[solver]
newton_tol = 1e-10
max_newton_iters = 50
max_halvings = 30
admissibility_margin = 1e-08

[run]
out_dir = out
seed = 0
checks = all

[trace]
starts =\x20
step = 0.01
"""
FULL_ECHO = """\
[grid]
nt = 17
nx = 24
ny = 20
modulus = 0.25+1.5j

[profile]
kind = constant
epsilon = 0.002
epsilon0 = 0.5
schedule = 0.1, 0.01, 0.001

[boundary]
phi0 = 0,1,0.001,-0.002
phi1 = 1,0,0.005,0.0; 2,-1,0.0,0.0001

[sweep]
lambdas = 0.0, 0.5, 1.0

[solver]
newton_tol = 1e-12
max_newton_iters = 7
max_halvings = 12
admissibility_margin = 1e-09

[run]
out_dir = results/run 1
seed = 42
checks = convexity, lq_ratio

[trace]
starts = 0.0,0.25,0.5; 0.5,0.1,0.9
step = 0.05
"""
VALID_ECHO = ExperimentConfig().serialize().encode()
CONFIG_KEYS = [(sec, key) for sec, keys in sorted(_SCHEMA.items())
               for key in sorted(keys)]


@st.composite
def config_texts(draw):
    """INI text over the real sections and keys with arbitrary values."""
    chars = st.one_of(st.sampled_from("%()$:;,.-+ej0123456789 \n="),
                      st.characters())
    pairs = draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=6,
                          unique=True))
    lines = []
    for sec in sorted({sec for sec, _ in pairs}):
        lines.append(f"[{sec}]")
        for key in (k for s, k in pairs if s == sec):
            lines.append(f"{key} = {draw(st.text(chars, max_size=20))}")
    return "\n".join(lines)


@st.composite
def snapshot_files(draw):
    dims = draw(st.tuples(*[st.integers(0, 5)] * 3))
    modulus = draw(st.one_of(
        st.sampled_from([1j, 1 + 0j, 0.3 + 1.1j]),
        st.complex_numbers(allow_nan=True, allow_infinity=True)))
    echo = draw(st.one_of(
        st.sampled_from([VALID_ECHO,
                         VALID_ECHO.replace(b"epsilon = 0.001",
                                            b"epsilon = -1.0"),
                         VALID_ECHO.replace(b"kind = annulus",
                                            b"kind = constant").replace(
                             b"epsilon0 = 0.25", b"epsilon0 = 0.0"),
                         b"\xff\xfe" + VALID_ECHO]),
        st.binary(max_size=40)))
    n = dims[0] * dims[1] * dims[2]
    payload = draw(st.one_of(
        st.lists(st.floats(), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype="<f8").tobytes()),
        st.binary(max_size=64)))
    return snapshot_bytes(dims, modulus, echo, payload)


class TestConfigParse:
    def test_defaults(self):
        cfg = ExperimentConfig.parse("")
        assert cfg.nt == 9 and cfg.profile_kind == "annulus"
        assert cfg.checks is None

    def test_small_config(self):
        cfg = ExperimentConfig.parse(SMALL_CONFIG)
        assert cfg.epsilon == 1e-3
        assert cfg.phi1_modes == ((1, 0, 0.005 + 0j),)
        assert cfg.trace_starts == ((0.0, 0.25, 0.5),)

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[nope]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[grid]\nnz = 4\n")

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[boundary]\nphi1 = 1,0,0.005\n")

    def test_bad_profile_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[profile]\nkind = mystery\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[grid]\nnt = nine\n")

    def test_round_trip_idempotent(self):
        cfg = ExperimentConfig.parse(SMALL_CONFIG)
        again = ExperimentConfig.parse(cfg.serialize())
        assert again == cfg
        assert again.serialize() == cfg.serialize()

    def test_factories(self):
        cfg = ExperimentConfig.parse(SMALL_CONFIG)
        grid = cfg.make_grid()
        assert grid.shape == (9, 16, 16)
        assert cfg.make_profile().epsilon == 1e-3
        assert cfg.make_boundary().phi1 == ((1, 0, 0.005 + 0j),)

    def test_percent_is_literal(self):
        cfg = ExperimentConfig.parse("[run]\nout_dir = 100%\n")
        assert cfg.out_dir == "100%"

    @given(st.one_of(st.text(), config_texts()))
    @settings(max_examples=300, deadline=None)
    def test_only_config_error_escapes(self, text):
        try:
            ExperimentConfig.parse(text)
        except ConfigError:
            pass

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("cfg, echo", [
        (ExperimentConfig(), DEFAULT_ECHO),
        (ExperimentConfig(
            nt=17, nx=24, ny=20, modulus=0.25 + 1.5j, profile_kind="constant",
            epsilon=0.002, epsilon0=0.5, schedule=(0.1, 0.01, 0.001),
            phi0_modes=((0, 1, 0.001 - 0.002j),),
            phi1_modes=((1, 0, 0.005 + 0j), (2, -1, 0.0001j)),
            lambdas=(0.0, 0.5, 1.0), newton_tol=1e-12, max_newton_iters=7,
            max_halvings=12, admissibility_margin=1e-9,
            out_dir="results/run 1", seed=42, checks=("convexity", "lq_ratio"),
            trace_starts=((0.0, 0.25, 0.5), (0.5, 0.1, 0.9)), trace_step=0.05),
         FULL_ECHO),
    ])
    def test_echo_text_is_pinned(self, cfg, echo):
        """The config echo is part of snapshot format v1."""
        assert cfg.serialize() == echo
        assert ExperimentConfig.parse(echo) == cfg


class TestSnapshot:
    def make_snapshot(self, grid_small):
        from hcma import AnnulusProfile, newton_solve
        cfg = ExperimentConfig.parse(SMALL_CONFIG)
        sol = newton_solve(grid_small, cfg.make_boundary(),
                           AnnulusProfile(1e-3))
        return Snapshot.from_solution(sol, cfg), sol

    def test_bitwise_round_trip(self, tmp_path, grid_small):
        snap, sol = self.make_snapshot(grid_small)
        p = tmp_path / "a.snap"
        snap.save(p)
        back = Snapshot.load(p)
        assert back.values.tobytes() == sol.phi.values.tobytes()
        assert back.config_text == snap.config_text
        assert back.converged and back.modulus == 1j

    def test_save_load_save_identical_bytes(self, tmp_path, grid_small):
        snap, _ = self.make_snapshot(grid_small)
        p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
        snap.save(p1)
        Snapshot.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_to_solution(self, tmp_path, grid_small):
        snap, sol = self.make_snapshot(grid_small)
        back, cfg = snap.to_solution()
        assert np.array_equal(back.phi.values, sol.phi.values)
        assert cfg.epsilon == 1e-3

    def test_bad_magic(self, tmp_path, grid_small):
        snap, _ = self.make_snapshot(grid_small)
        p = tmp_path / "a.snap"
        snap.save(p)
        raw = bytearray(p.read_bytes())
        raw[:8] = b"NOTASNAP"
        p.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            Snapshot.load(p)

    def test_truncated_payload(self, tmp_path, grid_small):
        snap, _ = self.make_snapshot(grid_small)
        p = tmp_path / "a.snap"
        snap.save(p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(SnapshotError):
            Snapshot.load(p)

    def test_wrong_version(self, tmp_path, grid_small):
        snap, _ = self.make_snapshot(grid_small)
        p = tmp_path / "a.snap"
        snap.save(p)
        raw = bytearray(p.read_bytes())
        raw[8] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            Snapshot.load(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            Snapshot.load(tmp_path / "nope.snap")

    @pytest.mark.parametrize("dims, modulus, echo, values", [
        ((3, 4, 4), 1j, b"\xff" + VALID_ECHO, np.zeros(48)),
        ((0, 0, 0), 1j, VALID_ECHO, np.zeros(0)),
        ((3, 4, 4), 1 + 0j, VALID_ECHO, np.zeros(48)),
        ((3, 4, 4), 1j, VALID_ECHO, np.full(48, np.nan)),
    ])
    def test_malformed_is_snapshot_error(self, tmp_path, dims, modulus, echo,
                                         values):
        p = tmp_path / "m.snap"
        p.write_bytes(snapshot_bytes(dims, modulus, echo,
                                     values.astype("<f8").tobytes()))
        with pytest.raises(SnapshotError):
            Snapshot.load(p).to_solution()

    @given(snapshot_files())
    @settings(max_examples=300, deadline=None)
    def test_only_snapshot_or_config_error_escapes(self, tmp_path_factory,
                                                   raw):
        p = tmp_path_factory.mktemp("fuzz") / "f.snap"
        p.write_bytes(raw)
        try:
            Snapshot.load(p).to_solution()
        except (SnapshotError, ConfigError):
            pass


class TestReports:
    def test_deterministic_after_stripping_timestamp(self):
        d = {"meta": {"seed": 0}, "checks": [{"name": "x", "pass": True}]}
        j1 = json.loads(report_json(d))
        j2 = json.loads(report_json(d))
        j1["meta"].pop("timestamp")
        j2["meta"].pop("timestamp")
        assert j1 == j2

    def test_fields_csv(self, tmp_path, grid_small):
        p = tmp_path / "f.csv"
        write_fields_csv(p, grid_small, {"one": np.ones(grid_small.shape)})
        lines = p.read_text().splitlines()
        assert lines[0] == "it,ix,iy,one"
        assert len(lines) == 1 + grid_small.n_nodes

    def test_fields_csv_bytes(self, tmp_path):
        from hcma import make_grid
        grid = make_grid(3, 4, 5)
        special = [1e300, -1e-300, -0.0, 1.0 / 3.0, 5e-324, 0.1, -7.0]
        u = np.resize(special, grid.n_nodes).reshape(grid.shape)
        fields = {"u": u, "v": -2.0 * u[::-1]}
        p = tmp_path / "f.csv"
        write_fields_csv(p, grid, fields)
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(["it", "ix", "iy", "u", "v"])
        for node in np.ndindex(grid.shape):
            w.writerow(list(node) + [repr(float(f[node]))
                                     for f in fields.values()])
        assert p.read_bytes() == expected.getvalue().encode("utf-8")


class TestCliEndToEnd:
    def test_solve_verify_trace_plotdata(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
        snap = os.path.join(out, "solution.snap")
        assert os.path.exists(snap)
        summary = json.loads(
            open(os.path.join(out, "summary.json")).read())
        assert summary["summary"]["final_residual"] < 1e-10

        assert cli.main(["verify", "--snapshot", snap, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert all(c["pass"] or c["vacuous"] for c in report["checks"])
        assert os.path.exists(os.path.join(out, "fields.csv"))

        assert cli.main(["trace", "--snapshot", snap, "--config", cfg,
                         "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "leaf_000.csv"))
        diag = json.loads(
            open(os.path.join(out, "trace_diagnostics.json")).read())
        assert diag["checks"][0]["in_hypothesis"]

        assert cli.main(["plotdata", "--snapshot", snap, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "jetmap.csv"))

    def test_report_reproducible(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        cli.main(["solve", "--config", cfg, "--out", out])
        snap = os.path.join(out, "solution.snap")
        o1, o2 = str(tmp_path / "v1"), str(tmp_path / "v2")
        cli.main(["verify", "--snapshot", snap, "--out", o1])
        cli.main(["verify", "--snapshot", snap, "--out", o2])
        r1 = json.loads(open(os.path.join(o1, "report.json")).read())
        r2 = json.loads(open(os.path.join(o2, "report.json")).read())
        r1["meta"].pop("timestamp")
        r2["meta"].pop("timestamp")
        assert r1 == r2

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "[nope]\nx = 1\n")
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.ini"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_nonconvex_boundary_exit_2(self, tmp_path):
        text = SMALL_CONFIG.replace("phi1 = 1,0,0.005,0", "phi1 = 1,0,0.2,0")
        cfg = write_config(tmp_path, text)
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    def test_solver_failure_exit_3(self, tmp_path):
        text = SMALL_CONFIG + "\n[solver]\nnewton_tol = 1e-16\nmax_newton_iters = 0\n"
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["solve", "--config", cfg, "--out", out]) == 3
        assert os.path.exists(os.path.join(out, "diagnostics.snap"))
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert "failure" in summary

    def test_unconverged_snapshot_verify_exit_4(self, tmp_path):
        text = SMALL_CONFIG + "\n[solver]\nmax_newton_iters = 0\n"
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["solve", "--config", cfg, "--out", out]) == 3
        v = str(tmp_path / "v")
        assert cli.main(["verify", "--snapshot",
                         os.path.join(out, "diagnostics.snap"),
                         "--out", v]) == 4
        report = json.loads(open(os.path.join(v, "report.json")).read())
        rec = next(c for c in report["checks"] if c["name"] == "converged")
        assert not rec["pass"] and not rec["vacuous"]
        assert rec["measured"] > 1e-3 and rec["extra"]["iterations"] == 0
        assert "not converged" in rec["note"]

    def test_percent_in_config_exit_2(self, tmp_path):
        text = SMALL_CONFIG.replace("epsilon = 1e-3", "epsilon = 1e-3%")
        cfg = write_config(tmp_path, text)
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("dims, echo", [
        ((3, 4, 4), b"\xff\xfe" + VALID_ECHO), ((0, 0, 0), VALID_ECHO)])
    def test_malformed_snapshot_exit_2(self, tmp_path, dims, echo):
        p = tmp_path / "m.snap"
        n = dims[0] * dims[1] * dims[2]
        p.write_bytes(snapshot_bytes(dims, 1j, echo, bytes(8 * n)))
        assert cli.main(["verify", "--snapshot", str(p),
                         "--out", str(tmp_path / "o")]) == 2

    def test_corrupted_snapshot_exit_2(self, tmp_path):
        p = tmp_path / "bad.snap"
        p.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        assert cli.main(["verify", "--snapshot", str(p),
                         "--out", str(tmp_path / "o")]) == 2

    def test_injected_violation_exit_4(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        cli.main(["solve", "--config", cfg, "--out", out])
        snap_path = os.path.join(out, "solution.snap")
        snap = Snapshot.load(snap_path)
        nt, nx = snap.nt, snap.nx
        t = np.linspace(0, 1, nt)[:, None, None]
        x = (np.arange(nx) / nx)[None, :, None]
        snap.values = snap.values + 0.3 * np.cos(2 * np.pi * x) * np.sin(
            np.pi * t)
        bad = str(tmp_path / "bad.snap")
        snap.save(bad)
        assert cli.main(["verify", "--snapshot", bad,
                         "--out", str(tmp_path / "v")]) == 4

    def test_unknown_check_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        cli.main(["solve", "--config", cfg, "--out", out])
        assert cli.main(["verify", "--snapshot",
                         os.path.join(out, "solution.snap"),
                         "--out", out, "--checks", "nope"]) == 2

    def test_empty_sweep_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    def test_sweep_with_schedule(self, tmp_path):
        text = SMALL_CONFIG.replace(
            "epsilon = 1e-3", "epsilon = 1e-3\nschedule = 1e-2, 1e-3")
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "eps_000.snap"))
        rep = json.loads(open(os.path.join(out, "sweep_report.json")).read())
        names = {c["name"] for c in rep["checks"]}
        assert "eps_monotone_limit" in names
        assert "metric_lower_bound_stability" in names

    def test_sweep_with_lambdas(self, tmp_path):
        text = SMALL_CONFIG + "\n[sweep]\nlambdas = 0.0, 0.5, 1.0\n"
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "lambda_002.snap"))

    def test_rung_snapshots_echo_their_own_parameter(self, tmp_path):
        text = SMALL_CONFIG.replace(
            "epsilon = 1e-3", "epsilon = 1e-3\nschedule = 1e-1, 1e-2")
        cfg = write_config(tmp_path, text + "\n[sweep]\nlambdas = 0.0, 1.0\n")
        out = str(tmp_path / "o")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        v = str(tmp_path / "v")
        assert cli.main(["verify", "--snapshot",
                         os.path.join(out, "eps_000.snap"), "--out", v]) == 0
        report = json.loads(open(os.path.join(v, "report.json")).read())
        assert report["meta"]["profile"] == "annulus(eps=0.1)"
        with open(os.path.join(v, "fields.csv"), newline="") as fh:
            res = [abs(float(row["residual"])) for row in csv.DictReader(fh)]
        assert max(res) <= 1e-9
        rung0 = Snapshot.load(os.path.join(out, "lambda_000.snap"))
        _, echo = rung0.to_solution()
        assert [amp for _, _, amp in echo.phi1_modes] == [0j]

    def test_bad_trace_start_exit_2(self, tmp_path):
        text = SMALL_CONFIG.replace("starts = 0.0,0.25,0.5",
                                    "starts = 1.5,0.25,0.5")
        cfg = write_config(tmp_path, text, name="bad_trace.ini")
        out = str(tmp_path / "out")
        cli.main(["solve", "--config", write_config(tmp_path), "--out", out])
        assert cli.main(["trace", "--snapshot",
                         os.path.join(out, "solution.snap"),
                         "--config", cfg, "--out", out]) == 2
