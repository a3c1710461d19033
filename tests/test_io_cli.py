import csv
import io
import json
import math
import os
import pathlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcma.io
from hcma import AnnulusProfile, BoundarySpec, cli, make_grid
from hcma.grid import ScalarField, spatial_ab
from hcma.io import (_SCHEMA, MAGIC, ConfigError, ExperimentConfig, Snapshot,
                     SnapshotError, load_config, report_json, write_csv,
                     write_fields_csv, write_leaf_csv)
from hcma.leaves import leaf_fields, trace_leaf
from hcma.solver import Solution
from hcma.verify import CHECKS, jet_map_export
from oracle import field_from, residual_grid

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

    @pytest.mark.parametrize("line", ["out_dir = ml/a\n  b",
                                      "checks = convexity\n  lq_ratio"])
    def test_line_break_in_value_rejected(self, line):
        with pytest.raises(ConfigError, match="line break"):
            ExperimentConfig.parse(f"[run]\n{line}\n")

    @pytest.mark.parametrize("text", [
        "[run]\nchecks = convexity,\n  lq_ratio\n",
        "[profile]\nschedule = 1e-2,\n  1e-3\n",
        "[boundary]\nphi1 = 1,0,0.005,0;\n  2,0,0.001,0\n",
        "[sweep]\nlambdas = 0.5,\n  1.0\n",
        "[trace]\nstarts = 0,0.25,0.5;\n  0.5,0.1,0.9\n"])
    def test_multiline_list_round_trips(self, text):
        cfg = ExperimentConfig.parse(text)
        assert cfg != ExperimentConfig()
        assert ExperimentConfig.parse(cfg.serialize()) == cfg

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

    def test_numpy_epsilon_round_trips(self, tmp_path, grid_small):
        from hcma import continuation_solve
        cfg = ExperimentConfig.parse(SMALL_CONFIG)
        sol = list(continuation_solve(grid_small, cfg.make_boundary(),
                                      np.geomspace(1e-2, 1e-3, 2)))[-1]
        assert isinstance(sol.profile.epsilon, np.float64)
        p = tmp_path / "a.snap"
        Snapshot.from_solution(sol, cfg).save(p)
        back, echo = Snapshot.load(p).to_solution()
        assert echo.epsilon == 1e-3 and back.profile.epsilon == 1e-3
        assert np.array_equal(back.phi.values, sol.phi.values)

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


# --- the earlier row-loop CSV writers, kept as references --------------------

SPECIAL = [1e300, -1e-300, -0.0, 1.0 / 3.0, 5e-324, 0.1, -7.0,
           float("nan"), float("inf"), float("-inf")]


def csv_bytes(rows) -> bytes:
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue().encode("utf-8")


def reference_fields_csv(grid, fields) -> bytes:
    columns = np.indices(grid.shape).reshape(3, -1).tolist()
    columns += [map(repr, np.asarray(f, dtype=float).ravel().tolist())
                for f in fields.values()]
    return csv_bytes([["it", "ix", "iy"] + list(fields), *zip(*columns)])


def reference_leaf_csv(path_obj) -> bytes:
    rows = [["t", "re_z", "im_z", "q_b"]]
    for t, z, qb in zip(path_obj.ts, path_obj.zs, path_obj.qb_samples):
        rows.append([repr(float(t)), repr(float(z.real)),
                     repr(float(z.imag)), repr(float(qb))])
    return csv_bytes(rows)


def reference_jetmap_csv(points, record) -> bytes:
    a_ref = float(np.median(points[:, 2]))
    delta = record.extra.get("delta")
    radii = (("cone_C0", 1.0 + a_ref),
             ("cone_intersection",
              None if delta is None else 1.0 + a_ref - delta),
             ("upper_bound", record.extra["S"] - 1.0 - a_ref))
    rows = [["section", "col1", "col2", "col3"]]
    for re_b, im_b, a in points:
        rows.append(["jets", repr(float(re_b)), repr(float(im_b)),
                     repr(float(a))])
    for section, r in radii:
        if r is None:
            rows.append(["note", f"{section} omitted",
                         record.extra.get("delta_note", ""), ""])
            continue
        for th in np.linspace(0.0, 2.0 * math.pi, 129):
            rows.append([section, repr(r * math.cos(th)),
                         repr(r * math.sin(th)), repr(a_ref)])
    return csv_bytes(rows)


def block_sizes(monkeypatch):
    """Sets io.CSV_BLOCK_ROWS to 2, 7 and its own value in turn: the small
    blocks split every table, and the pieces of a column, mid-way."""
    for block in (2, 7, hcma.io.CSV_BLOCK_ROWS):
        monkeypatch.setattr(hcma.io, "CSV_BLOCK_ROWS", block)
        yield block


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

    def test_fields_csv_bytes(self, tmp_path, monkeypatch):
        grid = make_grid(3, 4, 5)
        u = np.resize(SPECIAL, grid.n_nodes).reshape(grid.shape)
        fields = {"u": u, "v": -2.0 * u[::-1]}
        p = tmp_path / "f.csv"
        for _ in block_sizes(monkeypatch):
            write_fields_csv(p, grid, fields)
            assert p.read_bytes() == reference_fields_csv(grid, fields)

    def test_leaf_csv_bytes(self, tmp_path, monkeypatch, grid_small):
        # 1 + a < 0 near t = 1 along x = 0, so the leaf aborts
        phi = field_from(
            grid_small, lambda t, x, y: 0.15 * np.cos(2 * np.pi * x) * t**2)
        path = trace_leaf(grid_small, leaf_fields(phi), (0.0, 0.5j), 0.05)
        assert path.aborted and path.n_samples > 7
        path.qb_samples[-1] = np.nan
        p = tmp_path / "leaf.csv"
        for _ in block_sizes(monkeypatch):
            write_leaf_csv(p, path)
            assert p.read_bytes() == reference_leaf_csv(path)
        assert p.read_bytes().endswith(b",nan\r\n")

    @pytest.mark.parametrize("note", [None, 'gap "delta" < 0, at (0, 3, 5)'],
                             ids=["cones", "note"])
    def test_jetmap_csv_bytes(self, tmp_path, monkeypatch, solved_snapshot,
                              note):
        points, record = jet_map_export(
            Snapshot.load(solved_snapshot).to_solution()[0])
        points = points.copy()
        points[:len(SPECIAL), 0] = SPECIAL
        points[:len(SPECIAL), 1] = SPECIAL[::-1]
        if note is not None:
            del record.extra["delta"]
            record.extra["delta_note"] = note
        monkeypatch.setattr(cli, "jet_map_export", lambda sol: (points,
                                                                record))
        out = tmp_path / "p"
        for _ in block_sizes(monkeypatch):
            assert cli.main(["plotdata", "--snapshot", solved_snapshot,
                             "--out", str(out)]) == 0
            got = (out / "jetmap.csv").read_bytes()
            assert got == reference_jetmap_csv(points, record)
        assert (b"\r\nnote,cone_intersection omitted,"
                b'"gap ""delta"" < 0, at (0, 3, 5)",\r\n' in got) == bool(note)

    def test_write_csv_quotes_only_text_cells_that_need_it(
            self, tmp_path, monkeypatch):
        header = ["n", "x", 'mixed, "in pieces"', "text"]
        columns = [np.arange(-2, 3, dtype=np.int32),
                   np.array([0.1, -0.0, np.nan, np.inf, 5e-324]),
                   ([1, 2.5], ["x"], np.array([-np.inf]), [""]),
                   ["plain", "a, b", 'say "hi"', "cr\r", "lf\n"]]
        want = csv_bytes([header,
                          ["-2", "0.1", "1", "plain"],
                          ["-1", "-0.0", "2.5", "a, b"],
                          ["0", "nan", "x", 'say "hi"'],
                          ["1", "inf", "-inf", "cr\r"],
                          ["2", "5e-324", "", "lf\n"]])
        p = tmp_path / "t.csv"
        for _ in block_sizes(monkeypatch):
            write_csv(p, header, columns)
            assert p.read_bytes() == want

    def test_write_csv_rejects_ragged_columns(self, tmp_path):
        p = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(p, ["a", "b"], [np.arange(3), ([1], [2.0])])


def readme_config() -> str:
    """The ini block of README's "Config format" section, verbatim."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


def readme_quick_start() -> str:
    """The python block of README's "Library quick start" section."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(capsys):
    namespace = {}
    exec(readme_quick_start(), namespace)
    assert namespace["report"].all_pass
    assert capsys.readouterr().out == "True\n"


@pytest.mark.parametrize("rung", ["cold", "lambda"])
def test_final_residual_is_the_evaluators(tmp_path, monkeypatch, rung):
    # Newton's final_residual is solver.residual's max-norm on the returned
    # phi, bitwise, and the largest |residual| of hcma verify's fields.csv,
    # which calls solver.residual once, looked up at call time
    import hcma.solver
    config = load_config(write_config(tmp_path))
    grid, boundary = config.make_grid(), config.make_boundary()
    profile = config.make_profile()
    if rung == "cold":
        sol = hcma.solver.newton_solve(grid, boundary, profile)
    else:       # the last rung starts from the secant prediction
        *_, sol = hcma.solver.lambda_sweep(grid, boundary, [0.0, 0.5, 1.0],
                                           profile)
    assert sol.converged and sol.iterations > 0
    assert residual_grid(sol.phi, profile)[1] == sol.final_residual
    snap = str(tmp_path / "a.snap")
    Snapshot.from_solution(sol, config).save(snap)
    calls = []
    real = hcma.solver.residual
    monkeypatch.setattr(hcma.solver, "residual",
                        lambda *args: calls.append(args) or real(*args))
    assert cli.main(["verify", "--snapshot", snap,
                     "--out", str(tmp_path / "v")]) == 0
    assert len(calls) == 1
    with open(tmp_path / "v" / "fields.csv", newline="") as fh:
        res = [abs(float(row["residual"])) for row in csv.DictReader(fh)]
    assert max(res) == sol.final_residual


class TestCliEndToEnd:
    def test_readme_config_solves(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)         # its out_dir is relative
        cfg = write_config(tmp_path, readme_config())
        config = hcma.io.load_config(cfg)
        assert config.make_grid().lattice.modulus == 1j
        assert config.schedule == (1e-2, 1e-3)
        assert cli.main(["solve", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["summary"]["snapshots"] == [
            "solution_000.snap", "solution_001.snap"]

    def test_solve_verify_trace_plotdata(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
        snap = os.path.join(out, "solution.snap")
        assert os.path.exists(snap)
        summary = json.loads(pathlib.Path(out, "summary.json").read_text())
        assert summary["summary"]["final_residual"] < 1e-10

        assert cli.main(["verify", "--snapshot", snap, "--out", out]) == 0
        report = json.loads(pathlib.Path(out, "report.json").read_text())
        assert all(c["pass"] or c["vacuous"] for c in report["checks"])
        assert os.path.exists(os.path.join(out, "fields.csv"))

        assert cli.main(["trace", "--snapshot", snap, "--config", cfg,
                         "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "leaf_000.csv"))
        diag = json.loads(
            pathlib.Path(out, "trace_diagnostics.json").read_text())
        assert diag["checks"][0]["in_hypothesis"]

        assert cli.main(["plotdata", "--snapshot", snap, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "jetmap.csv"))

    @pytest.mark.parametrize("modulus", ["0.0+1.0j", "0.3+1.1j"])
    def test_solve_summary_reads_the_snapshot(self, tmp_path, modulus):
        """summary.json's min_one_plus_a (interior) and max_Q (whole grid)
        are those of the a and b of the snapshot it names, bitwise."""
        cfg = write_config(tmp_path, SMALL_CONFIG.replace(
            "[grid]\n", f"[grid]\nmodulus = {modulus}\n"))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())["summary"]
        snap = Snapshot.load(out / summary["snapshots"][-1])
        grid = make_grid(snap.nt, snap.nx, snap.ny, snap.modulus)
        a, b = spatial_ab(grid, snap.values)
        assert snap.modulus == complex(modulus)
        assert summary["min_one_plus_a"] == float((1.0 + a[1:-1]).min())
        assert summary["max_Q"] == float(
            (np.abs(b) ** 2 / (1.0 + a) ** 2).max())

    def test_jetmap_cells_are_plain_floats(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
        assert cli.main(["plotdata", "--snapshot",
                         os.path.join(out, "solution.snap"),
                         "--out", out]) == 0
        with open(os.path.join(out, "jetmap.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {r[0] for r in rows} == {"jets", "cone_C0",
                                        "cone_intersection", "upper_bound"}
        for row in rows:
            for cell in row[1:]:
                float(cell)

    def test_report_reproducible(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        cli.main(["solve", "--config", cfg, "--out", out])
        snap = os.path.join(out, "solution.snap")
        o1, o2 = str(tmp_path / "v1"), str(tmp_path / "v2")
        cli.main(["verify", "--snapshot", snap, "--out", o1])
        cli.main(["verify", "--snapshot", snap, "--out", o2])
        r1 = json.loads(pathlib.Path(o1, "report.json").read_text())
        r2 = json.loads(pathlib.Path(o2, "report.json").read_text())
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
        summary = json.loads(pathlib.Path(out, "summary.json").read_text())
        assert "failure" in summary

    def test_huge_representable_epsilon_exit_3(self, tmp_path, capsys):
        # the right-hand side and its norm are finite, so the input is
        # accepted; its Newton steps then fail as a linear-solve-failure
        cfg = write_config(tmp_path, SMALL_CONFIG.replace(
            "epsilon = 1e-3", "epsilon = 1e150"))
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(
            "error: solver failed: linear-solve-failure: ")

    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch):
        import hcma.solver

        def gmres(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(hcma.solver.spla, "gmres", gmres)
        out = str(tmp_path / "o")
        assert cli.main(["solve", "--config", write_config(tmp_path),
                         "--out", out]) == 3
        assert capsys.readouterr().err == (
            "error: solver failed: linear-solve-failure: out of memory for a "
            f"gmres workspace of {11 * 7 * 16 * 16 * 8} bytes\n")

    def test_unconverged_snapshot_verify_exit_4(self, tmp_path):
        text = SMALL_CONFIG + "\n[solver]\nmax_newton_iters = 0\n"
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["solve", "--config", cfg, "--out", out]) == 3
        v = str(tmp_path / "v")
        assert cli.main(["verify", "--snapshot",
                         os.path.join(out, "diagnostics.snap"),
                         "--out", v]) == 4
        report = json.loads(pathlib.Path(v, "report.json").read_text())
        rec = next(c for c in report["checks"] if c["name"] == "converged")
        assert not rec["pass"] and not rec["vacuous"]
        assert rec["measured"] > 1e-3 and rec["extra"]["iterations"] == 0
        assert "not converged" in rec["note"]

    def test_edited_boundary_echo_verify_exit_4(self, tmp_path,
                                                solved_snapshot):
        # phi keeps the t = 1 plane of amplitude 0.005; the echo claims half
        snap = Snapshot.load(solved_snapshot)
        old = "phi1 = 1,0,0.005,0.0\n"
        assert old in snap.config_text
        snap.config_text = snap.config_text.replace(old,
                                                    "phi1 = 1,0,0.0025,0.0\n")
        edited, v = tmp_path / "edited.snap", tmp_path / "v"
        snap.save(edited)
        assert cli.main(["verify", "--snapshot", str(edited),
                         "--out", str(v)]) == 4
        report = json.loads((v / "report.json").read_text())
        rec = report["checks"][0]
        assert rec["name"] == "converged" and not rec["pass"]
        assert rec["extra"]["boundary_gap"] == pytest.approx(0.0025,
                                                             rel=1e-12)
        assert rec["note"].startswith("boundary planes 2.500e-03 from")
        # no estimate check sees it
        assert all(c["pass"] or c["vacuous"] for c in report["checks"][1:])

    @pytest.mark.parametrize("line", ["out_dir = ml/a\n  b",
                                      "checks = convexity\n  lq_ratio"])
    def test_line_break_in_value_exit_2(self, tmp_path, line):
        cfg = write_config(tmp_path,
                           SMALL_CONFIG.replace("seed = 0", f"seed = 0\n{line}"))
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

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
        rep = json.loads(pathlib.Path(out, "sweep_report.json").read_text())
        names = {c["name"] for c in rep["checks"]}
        assert "eps_monotone_limit" in names
        assert "metric_lower_bound_stability" in names

    def test_sweep_with_lambdas(self, tmp_path):
        text = SMALL_CONFIG + "\n[sweep]\nlambdas = 0.0, 0.5, 1.0\n"
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "lambda_002.snap"))

    def test_sweep_failure_mid_ladder_keeps_converged_rungs(self, tmp_path,
                                                            capsys):
        # rung 0 (lambda = 0) starts at the discrete solution and takes 0
        # steps; rung 1 needs 2
        text = SMALL_CONFIG + ("\n[solver]\nmax_newton_iters = 1\n"
                               "\n[sweep]\nlambdas = 0.0, 1.0\n")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", write_config(tmp_path, text),
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: continuation rung 1 (lambda=1.0) failed: "
            "max-iterations-exceeded\n")
        assert sorted(os.listdir(out)) == ["lambda_000.snap"]
        sol, _ = Snapshot.load(out / "lambda_000.snap").to_solution()
        assert sol.converged and sol.iterations == 0

    def test_solve_failure_mid_schedule_keeps_converged_rungs(self, tmp_path,
                                                              capsys):
        # zero boundary data: rung 0 starts at the discrete solution and
        # takes 0 steps; rung 1 needs 1
        text = SMALL_CONFIG.replace(
            "epsilon = 1e-3", "epsilon = 1e-3\nschedule = 1e-2, 1e-3"
        ).replace("phi1 = 1,0,0.005,0\n", "") + (
            "\n[solver]\nmax_newton_iters = 0\n")
        out = tmp_path / "o"
        assert cli.main(["solve", "--config", write_config(tmp_path, text),
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: solver failed: max-iterations-exceeded\n")
        assert sorted(os.listdir(out)) == [
            "diagnostics.snap", "solution_000.snap", "summary.json"]
        sol, _ = Snapshot.load(out / "solution_000.snap").to_solution()
        assert sol.converged and sol.iterations == 0
        assert not Snapshot.load(out / "diagnostics.snap").converged
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failure"]["message"] == "max-iterations-exceeded"
        assert summary["meta"]["profile"] == "annulus(eps=0.001)"

    def test_rung_snapshots_echo_their_own_parameter(self, tmp_path):
        text = SMALL_CONFIG.replace(
            "epsilon = 1e-3", "epsilon = 1e-3\nschedule = 1e-1, 1e-2")
        cfg = write_config(tmp_path, text + "\n[sweep]\nlambdas = 0.0, 1.0\n")
        out = str(tmp_path / "o")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        v = str(tmp_path / "v")
        assert cli.main(["verify", "--snapshot",
                         os.path.join(out, "eps_000.snap"), "--out", v]) == 0
        report = json.loads(pathlib.Path(v, "report.json").read_text())
        assert report["meta"]["profile"] == "annulus(eps=0.1)"
        with open(os.path.join(v, "fields.csv"), newline="") as fh:
            res = [abs(float(row["residual"])) for row in csv.DictReader(fh)]
        assert max(res) <= 1e-9
        rung0 = Snapshot.load(os.path.join(out, "lambda_000.snap"))
        _, echo = rung0.to_solution()
        assert [amp for _, _, amp in echo.phi1_modes] == [0j]

    def test_trace_of_a_tall_snapshot(self, tmp_path):
        # every leaf's last RK4 stage reaches t = 1, where a grid of 16386
        # or more planes once read a plane past the end
        grid = make_grid(16386, 4, 4)
        t = grid.t_values[:, None, None]
        snap = str(tmp_path / "tall.snap")
        Snapshot(config_text=SMALL_CONFIG, nt=grid.nt, nx=grid.nx,
                 ny=grid.ny, modulus=1j, converged=True, iterations=0,
                 final_residual=0.0,
                 values=np.broadcast_to(t * t, grid.shape)).save(snap)
        out = str(tmp_path / "out")
        assert cli.main(["trace", "--snapshot", snap, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "leaf_000.csv"))

    def test_bad_trace_start_exit_2(self, tmp_path):
        text = SMALL_CONFIG.replace("starts = 0.0,0.25,0.5",
                                    "starts = 1.5,0.25,0.5")
        cfg = write_config(tmp_path, text, name="bad_trace.ini")
        out = str(tmp_path / "out")
        cli.main(["solve", "--config", write_config(tmp_path), "--out", out])
        assert cli.main(["trace", "--snapshot",
                         os.path.join(out, "solution.snap"),
                         "--config", cfg, "--out", out]) == 2


def _solver_key(line):
    return ("[run]", f"[solver]\n{line}\n\n[run]")


SWEEP_CONFIG = SMALL_CONFIG + "\n[sweep]\nlambdas = 0.0, 1.0\n"
# label -> (text, replacement) of a value the solver would reject
REJECTED = {
    "newton_tol=0": _solver_key("newton_tol = 0"),
    "newton_tol=nan": _solver_key("newton_tol = nan"),
    "max_newton_iters=-1": _solver_key("max_newton_iters = -1"),
    "max_halvings=-1": _solver_key("max_halvings = -1"),
    "margin=nan": _solver_key("admissibility_margin = nan"),
    "epsilon=-1": ("epsilon = 1e-3", "epsilon = -1"),
    "epsilon=nan": ("epsilon = 1e-3", "epsilon = nan"),
    "epsilon=inf": ("epsilon = 1e-3", "epsilon = inf"),
    "epsilon=1e308": ("epsilon = 1e-3", "epsilon = 1e308"),
    "epsilon=1e300": ("epsilon = 1e-3", "epsilon = 1e300"),  # norm overflows
    # more float64 bytes than numpy can index
    "nt=2**63-1": ("nt = 9", "nt = 9223372036854775807"),
    "modulus=nan+1j": ("ny = 16", "ny = 16\nmodulus = nan+1j"),
    "phi1-nan": ("phi1 = 1,0,0.005,0", "phi1 = 1,0,nan,0"),
    "phi1-1e308": ("phi1 = 1,0,0.005,0", "phi1 = 1,0,1e308,0"),
    "phi1-inf": ("phi1 = 1,0,0.005,0", "phi1 = 1,0,inf,0"),
    # Wirtinger coefficients or wave numbers that square past the float range
    "modulus=1e-200j": ("ny = 16", "ny = 16\nmodulus = 1e-200j"),
    "modulus=1e300+1j": ("ny = 16", "ny = 16\nmodulus = 1e300+1j"),
    "phi1-kx=10**160": ("phi1 = 1,0,0.005,0", f"phi1 = {10**160},0,1e-3,0"),
    "phi1-kx=10**400": ("phi1 = 1,0,0.005,0", f"phi1 = {10**400},0,1e-3,0"),
    # two (0, 0) modes, each finite, whose sum on the grid is not
    "phi1-sum=-1.8e308": ("phi1 = 1,0,0.005,0",
                          "phi1 = 0,0,-8.99e307,0; 0,0,-8.99e307,0"),
}
SWEEP_REJECTED = {
    "schedule-increasing": ("epsilon = 1e-3",
                            "epsilon = 1e-3\nschedule = 1e-3, 1e-2"),
    "schedule-nan": ("epsilon = 1e-3", "epsilon = 1e-3\nschedule = 1e-2, nan"),
    "lambdas-0,2": ("lambdas = 0.0, 1.0", "lambdas = 0, 2"),
    "lambdas-0,nan": ("lambdas = 0.0, 1.0", "lambdas = 0, nan"),
}
# (subcommand, flag) pairs the subcommand does not read
UNREAD_FLAGS = [("solve", "--snapshot"), ("solve", "--seed"),
                ("solve", "--checks"), ("verify", "--config"),
                ("sweep", "--snapshot"), ("sweep", "--seed"),
                ("sweep", "--checks"), ("trace", "--seed"),
                ("trace", "--checks"), ("plotdata", "--config"),
                ("plotdata", "--seed"), ("plotdata", "--checks")]
REQUIRED = {"solve": "--config", "sweep": "--config", "verify": "--snapshot",
            "trace": "--snapshot", "plotdata": "--snapshot"}
NUMERIC_KEYS = ["nt", "nx", "ny", "modulus", "epsilon", "epsilon0", "schedule",
                "newton_tol", "max_newton_iters", "max_halvings",
                "admissibility_margin", "seed", "lambdas", "step"]


def _rejected_cases():
    for command, table in (("solve", REJECTED),
                           ("sweep", {**REJECTED, **SWEEP_REJECTED})):
        for label, edit in table.items():
            yield pytest.param(command, edit, id=f"{command}-{label}")


@pytest.fixture(scope="module")
def solved_snapshot(tmp_path_factory):
    out = tmp_path_factory.mktemp("solved")
    cfg = write_config(out)
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    return str(out / "solution.snap")


class TestCliFrontDoor:
    @pytest.mark.parametrize("command, edit", _rejected_cases())
    def test_rejected_before_any_solve(self, tmp_path, capsys, command, edit):
        old, new = edit
        assert old in SWEEP_CONFIG
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace(old, new))
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_solve_ignores_the_lambda_ladder(self, tmp_path):
        cfg = write_config(tmp_path,
                           SMALL_CONFIG + "\n[sweep]\nlambdas = 0, 2\n")
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("starts", ["0.1,nan,0.1", "0.1,0.1,inf",
                                        "0.5,0.2,0.2; nan,0.1,0.1"])
    def test_bad_trace_start_writes_nothing(self, tmp_path, capsys,
                                            solved_snapshot, starts):
        cfg = write_config(tmp_path, SMALL_CONFIG.replace(
            "starts = 0.0,0.25,0.5", f"starts = {starts}"))
        out = tmp_path / "o"
        assert cli.main(["trace", "--snapshot", solved_snapshot,
                         "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: leaf ")
        assert not out.exists()

    def test_step_too_small_to_advance_t_writes_nothing(
            self, tmp_path, capsys, solved_snapshot, rk4_step_limit):
        cfg = write_config(tmp_path, SMALL_CONFIG.replace(
            "starts = 0.0,0.25,0.5\nstep = 0.05",
            "starts = 0.5,0.25,0.5\nstep = 1e-17"))
        out = tmp_path / "o"
        assert cli.main(["trace", "--snapshot", solved_snapshot,
                         "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: leaf 0: step 1e-17 is too small to advance t\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_cold_start_overflow_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG.replace(
            "phi1 = 1,0,0.005,0", "phi1 = 0,0,1.7e308,0"))
        out = tmp_path / "o"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: cold start not finite: field contains non-finite "
            "values\n")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_verify_overflowing_residual_writes_nan(self, tmp_path):
        # 1e308 t^2 is finite, its second t-difference is not
        grid = make_grid(9, 16, 16)
        t = grid.t_values[:, None, None]
        huge = Solution(phi=ScalarField(grid, 1e308 * t * t * np.ones(
            grid.shape)), grid=grid, profile=AnnulusProfile(1e-3),
            boundary=BoundarySpec(), converged=False, final_residual=0.0,
            iterations=0)
        snap = str(tmp_path / "huge.snap")
        Snapshot.from_solution(huge, ExperimentConfig()).save(snap)
        v = tmp_path / "v"
        assert cli.main(["verify", "--snapshot", snap, "--out", str(v)]) == 4
        with open(v / "fields.csv", newline="") as fh:
            res = [row["residual"] for row in csv.DictReader(fh)]
        assert set(res) == {"nan"}

    @pytest.mark.parametrize("modulus", ["0.0+1.0j", "0.3+1.1j"])
    def test_verify_fields_csv_jet_columns(self, tmp_path, modulus):
        # a, |b| and Q = |b|^2/(1+a)^2 of the snapshot's phi, bitwise
        cfg = write_config(tmp_path, SMALL_CONFIG.replace(
            "ny = 16\n", f"ny = 16\nmodulus = {modulus}\n"))
        assert cli.main(["solve", "--config", cfg, "--out",
                         str(tmp_path)]) == 0
        snap, v = str(tmp_path / "solution.snap"), tmp_path / "v"
        assert cli.main(["verify", "--snapshot", snap, "--out", str(v)]) == 0
        sol, _ = Snapshot.load(snap).to_solution()
        a, b = spatial_ab(sol.grid, sol.phi.values)
        want = {"a": a, "abs_b": np.abs(b),
                "Q": np.abs(b) ** 2 / (1.0 + a) ** 2}
        with open(v / "fields.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for name, arr in want.items():
            assert [row[name] for row in rows] == list(
                map(repr, arr.ravel().tolist())), name

    def test_checks_all_overrides_the_echo(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG.replace(
            "seed = 0", "seed = 0\nchecks = convexity"))
        out = tmp_path / "o"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        snap = str(out / "solution.snap")
        for flags, names in (([], ["convexity"]),
                             (["--checks", "all"], [*CHECKS, "jet_map"])):
            v = tmp_path / f"v{len(flags)}"
            assert cli.main(["verify", "--snapshot", snap,
                             "--out", str(v), *flags]) == 0
            report = json.loads((v / "report.json").read_text())
            assert [c["name"] for c in report["checks"]] == names

    def test_unknown_check_named_once_writes_nothing(self, tmp_path, capsys,
                                                     solved_snapshot):
        out = tmp_path / "o"
        assert cli.main(["verify", "--snapshot", solved_snapshot,
                         "--out", str(out), "--checks", "nope"]) == 2
        assert capsys.readouterr().err == "error: unknown check 'nope'\n"
        assert not out.exists()

    def test_degenerate_boundary_node_exit_4(self, tmp_path, capsys):
        # phi = 0.05 t(t-1), zero on both t-planes except 1/256 at node
        # (0, 3, 5), where 1 + a = 0 and b = 0: the boundary Q there is 0/0
        grid = make_grid(9, 16, 16)
        t = grid.t_values[:, None, None]
        values = 0.05 * t * (t - 1.0) * np.ones(grid.shape)
        values[0, 3, 5] = 1.0 / 256.0
        spike = Solution(phi=ScalarField(grid, values), grid=grid,
                         profile=AnnulusProfile(1e-3), boundary=BoundarySpec(),
                         converged=True, final_residual=0.0, iterations=0)
        snap = str(tmp_path / "spike.snap")
        Snapshot.from_solution(spike, ExperimentConfig()).save(snap)
        v = tmp_path / "v"
        assert cli.main(["verify", "--snapshot", snap, "--out", str(v)]) == 4
        assert "Traceback" not in capsys.readouterr().err
        report = {c["name"]: c for c in
                  json.loads((v / "report.json").read_text())["checks"]}
        assert report["ekq_subharmonic"]["vacuous"]
        assert report["ekq_subharmonic"]["note"] == "boundary Q = nan >= 1"
        assert report["lq_ratio"]["vacuous"]
        assert report["lq_ratio"]["note"] == "composite Q not finite"
        assert not (report["max_principle_Q"]["pass"]
                    or report["max_principle_Q"]["vacuous"])

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, solved_snapshot,
                                   command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        src = (["--config", write_config(tmp_path)] if command == "solve"
               else ["--snapshot", solved_snapshot])
        assert cli.main([command, *src, "--out", str(blocker / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB", ""])
    @pytest.mark.parametrize("command, callee", [
        ("solve", "newton_solve"), ("sweep", "lambda_sweep"),
        ("verify", "run_checks"), ("trace", "trace_leaf"),
        ("plotdata", "jet_map_export")])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys,
                                             monkeypatch, solved_snapshot,
                                             command, callee, message):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(cli, callee, exhausted)
        cfg = write_config(tmp_path,
                           SMALL_CONFIG + "\n[sweep]\nlambdas = 0.0, 1.0\n")
        src = (["--config", cfg] if command in ("solve", "sweep") else
               ["--snapshot", solved_snapshot]
               + (["--config", cfg] if command == "trace" else []))
        assert cli.main([command, *src, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"error: out of memory: {message or 'allocation failed'}\n")

    @pytest.mark.parametrize("modulus", [complex(float("nan"), 1.0),
                                         complex(0.0, float("inf")),
                                         1e-200j, 1e300 + 1j])
    def test_verify_non_finite_modulus_exit_2(self, tmp_path, capsys,
                                              modulus):
        p = tmp_path / "m.snap"
        p.write_bytes(snapshot_bytes((9, 16, 16), modulus, VALID_ECHO,
                                     bytes(8 * 9 * 16 * 16)))
        out = tmp_path / "o"
        assert cli.main(["verify", "--snapshot", str(p),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, command,
                                          flag):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, REQUIRED[command], "x", flag, "1",
                      "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_missing_input_is_a_usage_error(self, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command])
        assert exc.value.code == 2

    @given(key=st.sampled_from(NUMERIC_KEYS),
           value=st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e308"]),
           kind=st.sampled_from(["annulus", "constant"]))
    @settings(max_examples=100, deadline=None)
    def test_one_extreme_value_never_raises(self, tmp_path_factory, key,
                                            value, kind):
        # every key name is unique across sections
        text = ExperimentConfig.parse(
            SMALL_CONFIG.replace("kind = annulus", f"kind = {kind}")
            + "\n[solver]\nmax_newton_iters = 3\n").serialize()
        text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} = ")
                         else line for line in text.splitlines())
        tmp = tmp_path_factory.mktemp("extreme")
        cfg = write_config(tmp, text)
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp / "o")]) in (0, 2, 3)


def extreme(tame):
    """tame, or any finite float from subnormal to 1e308 of either sign."""
    return st.one_of(st.just(tame),
                     st.floats(allow_nan=False, allow_infinity=False))


# small wave numbers, or any up to 10**400, past the float range
WAVE_NUMBERS = st.one_of(st.integers(-2, 2), st.integers(-10**400, 10**400))


@st.composite
def extreme_configs(draw):
    """Tiny-grid configs whose numbers are each tame or extreme."""
    modes = st.lists(st.tuples(WAVE_NUMBERS, WAVE_NUMBERS, st.builds(
        complex, extreme(0.005), extreme(0.0))), max_size=2)
    return ExperimentConfig(
        nt=draw(st.integers(3, 9)), nx=draw(st.integers(4, 8)),
        ny=draw(st.integers(4, 8)),
        modulus=complex(draw(extreme(0.3)), draw(extreme(1.1))),
        profile_kind=draw(st.sampled_from(["annulus", "constant"])),
        epsilon=draw(extreme(1e-3)), epsilon0=draw(extreme(0.25)),
        phi0_modes=tuple(draw(modes)), phi1_modes=tuple(draw(modes)),
        newton_tol=draw(extreme(1e-10)),
        admissibility_margin=draw(extreme(1e-8)))


class TestCliFuzz:
    @given(config=extreme_configs())
    @settings(max_examples=150, deadline=None)
    def test_solve_then_verify_exit_codes(self, tmp_path_factory, config):
        # numpy's overflow warnings print and the CLI carries on; here they
        # would be errors, so they are ignored and only exit codes are read
        tmp = tmp_path_factory.mktemp("fuzz")
        cfg = write_config(tmp, config.serialize())
        out = tmp / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(["solve", "--config", cfg, "--out", str(out)])
            assert code in (0, 2, 3)
            if code == 2:       # rejected before anything is written
                assert not out.exists()
            for snap in sorted(out.glob("*.snap")) if out.exists() else []:
                assert cli.main(["verify", "--snapshot", str(snap),
                                 "--out", str(tmp / "v")]) in (0, 2, 3, 4)
