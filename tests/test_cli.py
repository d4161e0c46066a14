"""End-to-end tests for the command-line interface."""

import contextlib
import io
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from motifembed import cli, pipeline
from motifembed.cli import _write_vector_tsv, bench_scaling, main, read_config_file
from motifembed.generators import erdos_renyi
from motifembed.graph import load_edge_list
from motifembed.matrices import MotifMatrixKind
from motifembed.orbits import count_edge_orbits, node_motif_features


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text("0 1\n1 2\n0 2\n")
    return path


@pytest.fixture
def ring_graph(tmp_path):
    # 30-node ring with chords: sparse enough for linkpred negatives
    rng = np.random.default_rng(11)
    edges = {(i, (i + 1) % 30) for i in range(30)}
    while len(edges) < 55:
        u, v = sorted(rng.integers(0, 30, 2).tolist())
        if u != v:
            edges.add((u, v))
    path = tmp_path / "ring.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)))
    return path


def run_cli(args, env_extra=None, capsys=None):
    """Invoke main() in-process; returns (exit_code, ""). capsys is accepted
    so call sites read captured output themselves after the call."""
    del capsys  # output stays in the caller's capture buffer
    env_backup = {}
    if env_extra:
        for key, value in env_extra.items():
            env_backup[key] = os.environ.get(key)
            os.environ[key] = value
    try:
        code = main(args)
    finally:
        for key, old in env_backup.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old
    return code, ""


def run_python(args):
    """A fresh interpreter that imports the package under test, also from a
    checkout that is not installed."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})


def read_body(path):
    """File content minus the leading comment header."""
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


class TestCountOrbits:
    def test_triangle_counts(self, triangle, tmp_path):
        out = tmp_path / "counts.tsv"
        code, _ = run_cli(["count-orbits", "--input", str(triangle), "--out", str(out)])
        assert code == 0
        body = read_body(out)
        header = body[0].split("\t")
        assert header == ["u", "v"] + [f"O{i}" for i in range(1, 14)]
        rows = [ln.split("\t") for ln in body[1:]]
        assert len(rows) == 3
        o3_col = header.index("O3")
        for row in rows:
            assert row[o3_col] == "1"
            # triangle has no 4-node motifs
            assert all(c == "0" for c in row[o3_col + 1:])

    def test_original_labels_preserved(self, tmp_path):
        path = tmp_path / "big_labels.edges"
        path.write_text("100 200\n200 305\n100 305\n")
        out = tmp_path / "counts.tsv"
        code, _ = run_cli(["count-orbits", "--input", str(path), "--out", str(out)])
        assert code == 0
        pairs = {tuple(ln.split("\t")[:2]) for ln in read_body(out)[1:]}
        assert pairs == {("100", "200"), ("100", "305"), ("200", "305")}

    def test_one_indexed_input(self, tmp_path):
        path = tmp_path / "one.edges"
        path.write_text("1 2\n2 3\n1 3\n")
        out = tmp_path / "counts.tsv"
        code, _ = run_cli(
            ["count-orbits", "--input", str(path), "--one-indexed", "--out", str(out)]
        )
        assert code == 0
        assert read_body(out)[1].split("\t")[:2] == ["1", "2"]

    def test_missing_input_fails_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.edges"
        code, _ = run_cli(["count-orbits", "--input", str(missing)], capsys=capsys)
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_input_directory_is_a_one_line_error(self, tmp_path, capsys):
        code, _ = run_cli(["count-orbits", "--input", str(tmp_path)], capsys=capsys)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_malformed_line_reports_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\nnot numbers\n")
        code, _ = run_cli(["count-orbits", "--input", str(path)], capsys=capsys)
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestMotifMatrix:
    def test_matrixmarket_export(self, triangle, tmp_path):
        out = tmp_path / "tri.mtx"
        code, _ = run_cli(
            ["motif-matrix", "--input", str(triangle), "--orbit", "3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("%%MatrixMarket matrix coordinate")
        assert any("orbit=3" in ln for ln in lines if ln.startswith("%"))
        import scipy.io

        mat = scipy.io.mmread(out).tocsr()
        assert mat.shape == (3, 3)
        dense = mat.toarray()
        assert np.allclose(dense, np.ones((3, 3)) - np.eye(3))

    def test_bare_out_name_is_overwritten_in_place(self, triangle, tmp_path):
        out = tmp_path / "w"
        for orbit in ("3", "1"):
            code, _ = run_cli(
                ["motif-matrix", "--input", str(triangle), "--orbit", orbit, "--out", str(out)]
            )
            assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tri.edges", "w"]
        assert "orbit=1" in out.read_text()

    @pytest.mark.parametrize("text_only", [False, True])
    def test_stdout_gets_the_bytes_written_to_out(self, triangle, tmp_path, capsysbinary, text_only):
        argv = ["motif-matrix", "--input", str(triangle), "--orbit", "3"]
        out = tmp_path / "tri.mtx"
        assert run_cli(argv + ["--out", str(out)])[0] == 0
        if text_only:  # a stdout without a binary buffer
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert run_cli(argv)[0] == 0
            written = stdout.getvalue().encode()
        else:
            assert run_cli(argv)[0] == 0
            written = capsysbinary.readouterr().out
        assert written == out.read_bytes()

    def test_orbit_out_of_range(self, triangle, capsys):
        code, _ = run_cli(
            ["motif-matrix", "--input", str(triangle), "--orbit", "14"], capsys=capsys
        )
        assert code == 1
        assert "orbit" in capsys.readouterr().err

    def test_delta_filters_everything(self, triangle, tmp_path):
        out = tmp_path / "empty.mtx"
        code, _ = run_cli(
            ["motif-matrix", "--input", str(triangle), "--orbit", "3",
             "--delta", "2", "--out", str(out)]
        )
        assert code == 0
        import scipy.io

        assert scipy.io.mmread(out).nnz == 0


class TestEmbed:
    def test_writes_vectors(self, ring_graph, tmp_path):
        out = tmp_path / "z.tsv"
        code, _ = run_cli(
            ["embed", "--input", str(ring_graph), "--dl", "2", "--d", "8",
             "--k", "1", "--out", str(out)]
        )
        assert code == 0
        body = read_body(out)
        assert len(body) == 30
        first = body[0].split("\t")
        assert first[0] == "0"
        assert len(first) == 1 + 8
        float(first[1])  # parses

    def test_seventeen_significant_digits(self, ring_graph, tmp_path):
        out = tmp_path / "z.tsv"
        run_cli(["embed", "--input", str(ring_graph), "--dl", "2", "--d", "8",
                 "--k", "1", "--out", str(out)])
        values = [
            float(tok)
            for ln in read_body(out)
            for tok in ln.split("\t")[1:]
        ]
        # round-trip exactness is the point of .17g
        texts = [
            tok for ln in read_body(out) for tok in ln.split("\t")[1:]
        ]
        assert all(float(t) == v for t, v in zip(texts, values))

    def test_y_out(self, ring_graph, tmp_path):
        z_out = tmp_path / "z.tsv"
        y_out = tmp_path / "y.tsv"
        code, _ = run_cli(
            ["embed", "--input", str(ring_graph), "--dl", "2", "--d", "8",
             "--k", "1", "--out", str(z_out), "--y-out", str(y_out)]
        )
        assert code == 0
        y_body = read_body(y_out)
        assert len(y_body) == 30
        # 13 orbits x 1 step x rank 2 columns
        assert len(y_body[0].split("\t")) == 1 + 26

    def test_y_out_of_kind_w_holds_one_block_per_orbit_at_every_step_count(self, ring_graph, tmp_path):
        y_out = tmp_path / "y.tsv"
        code, _ = run_cli(["embed", "--input", str(ring_graph), "--dl", "2", "--d", "8", "--k", "3",
                           "--out", str(tmp_path / "z.tsv"), "--y-out", str(y_out)])
        assert code == 0
        rows = np.array([ln.split("\t") for ln in read_body(y_out)], dtype=float)
        # 13 orbits x rank 2: the one-step blocks, fused at sqrt(3)
        assert rows.shape == (30, 1 + 26)
        g = load_edge_list(str(ring_graph))
        cfg = pipeline.PipelineConfig(max_steps=3, local_rank=2, global_rank=8)
        local = pipeline.local_embeddings(g, pipeline.orbit_weights(g, count_edge_orbits(g), cfg), cfg)
        np.testing.assert_array_equal(rows[:, 1:], np.sqrt(3.0) * local.matrix)

    def test_y_out_of_lnorm_with_diffusion_holds_every_step_and_the_attributes(self, ring_graph, tmp_path):
        y_out = tmp_path / "y.tsv"
        code, _ = run_cli(["embed", "--input", str(ring_graph), "--kind", "lnorm", "--diffusion", "linear",
                           "--dl", "2", "--d", "8", "--k", "3", "--out", str(tmp_path / "z.tsv"),
                           "--y-out", str(y_out)])
        assert code == 0
        # 3 steps x 13 orbits x rank 2 local columns, then 13 orbits x 52 diffused features
        g = load_edge_list(str(ring_graph))
        cfg = pipeline.PipelineConfig(max_steps=3, local_rank=2, global_rank=8, kind=MotifMatrixKind("lnorm"),
                                      diffusion=pipeline.DiffusionConfig(pipeline.DiffusionVariant.LINEAR))
        counts = count_edge_orbits(g)
        weights = pipeline.orbit_weights(g, counts, cfg)
        expected = np.hstack([
            pipeline.local_embeddings(g, weights, cfg).matrix,
            pipeline.diffuse_attributes(g, weights, node_motif_features(g, counts), cfg),
        ])
        assert expected.shape == (30, 3 * 13 * 2 + 13 * 52)
        text = io.StringIO()
        _write_vector_tsv(text, g.labels, expected)
        assert read_body(y_out) == text.getvalue().splitlines()

    def test_writes_d_values_when_the_blocks_are_narrower(self, tmp_path):
        # 60 nodes at --dl 4 and the default --k 2 of kind w: both steps fuse
        # the 13 one-step blocks, of rank 52, so the fusion pads its 128
        # columns with zeros from column 52 on
        g = erdos_renyi(60, 0.15, seed=4)
        path = tmp_path / "gnp.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist())))
        out = tmp_path / "z.tsv"
        assert run_cli(["embed", "--input", str(path), "--dl", "4", "--out", str(out)])[0] == 0
        assert "# d=128" in out.read_text().splitlines()
        rows = np.array([ln.split("\t") for ln in read_body(out)], dtype=float)
        assert rows.shape == (60, 1 + 128)
        one_step = pipeline.embed_graph(g, pipeline.PipelineConfig(max_steps=1, local_rank=4))
        rank = np.linalg.matrix_rank(one_step.concatenated.matrix)
        assert rank == 52
        assert rows[:, 1 : rank + 1].any(axis=0).all() and not rows[:, rank + 1 :].any()

    @pytest.mark.parametrize(
        "y_name, exists",
        [("z.tsv", False), ("./sub/../z.tsv", False), ("symlink.tsv", False),
         ("z.tsv", True), ("symlink.tsv", True), ("hardlink.tsv", True)],
    )
    def test_y_out_naming_the_out_file_is_a_one_line_error(
        self, ring_graph, tmp_path, capsys, monkeypatch, y_name, exists
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        out = tmp_path / "z.tsv"
        (tmp_path / "symlink.tsv").symlink_to(out)
        if exists:
            out.write_text("kept\n")
            (tmp_path / "hardlink.tsv").hardlink_to(out)
        read = []
        monkeypatch.setattr(cli, "load_input_graph", lambda args: read.append(args))
        code, _ = run_cli(["embed", "--input", str(ring_graph), "--out", "z.tsv", "--y-out", y_name],
                          capsys=capsys)
        assert code == 1 and read == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--y-out" in err
        if exists:
            assert out.read_text() == "kept\n"
        else:
            assert not out.exists()

    def test_header_values_reproduce_output(self, ring_graph, tmp_path):
        """The reproducibility invariant: re-run with the header's values."""
        runs = [
            ["count-orbits"],
            ["motif-matrix", "--orbit", "2", "--kind", "lnorm"],
            ["embed", "--dl", "2", "--d", "8", "--k", "1", "--diffusion", "linear", "--seed", "9"],
            ["linkpred", "--kind", "p", "--dl", "2", "--d", "8", "--k", "1", "--seeds", "1", "--seed", "9"],
        ]
        for argv in runs:
            first, second = tmp_path / "a.out", tmp_path / "b.out"
            assert run_cli([*argv, "--input", str(ring_graph), "--out", str(first)])[0] == 0
            lines = first.read_text().splitlines()
            if argv[0] == "motif-matrix":
                # one '%' comment line after the MatrixMarket banner
                header = [item for ln in lines[1:] if ln.startswith("%") for item in ln[1:].split("; ")]
            else:
                header = [ln[2:] for ln in lines[: next(i for i, ln in enumerate(lines) if ln[0] != "#")]]
            assert header[0] == f"subcommand={argv[0]}"
            cfg = tmp_path / "header.cfg"
            cfg.write_text("".join(line + "\n" for line in header[1:]))
            assert run_cli([argv[0], "--config", str(cfg), "--out", str(second)])[0] == 0
            assert second.read_bytes() == first.read_bytes(), argv[0]

    def test_rejects_auto_k(self, ring_graph, capsys):
        code, _ = run_cli(["embed", "--input", str(ring_graph), "--k", "auto"],
                          capsys=capsys)
        assert code == 1
        assert "auto" in capsys.readouterr().err

    def test_label_beyond_int64_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "huge.edges"
        path.write_text("0 1\n1 2\n2 99999999999999999999\n")
        code, _ = run_cli(["embed", "--input", str(path), "--dl", "1", "--d", "2",
                           "--k", "1", "--out", str(tmp_path / "z.tsv")], capsys=capsys)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 3" in err and "int64" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("target", ["dir", "missing/z.tsv"])
    def test_unopenable_out_is_a_one_line_error(self, triangle, tmp_path, capsys, target):
        out = tmp_path / target if target != "dir" else tmp_path
        code, _ = run_cli(["embed", "--input", str(triangle), "--k", "1", "--dl", "2",
                           "--d", "2", "--out", str(out)], capsys=capsys)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_vector_writer_matches_per_value_formatting(self):
        import io

        matrix = np.array(
            [
                [0.0, -0.0, 1e-300, -1e-300, 1.0 / 3.0],
                [1e300, -1.7976931348623157e308, 123456789.12345678, 5e-324, 2.0],
                [np.pi, -np.e, 1e16, 1e17, 0.1],
            ]
        )
        labels = np.array([-7, 0, 2**62])
        out = io.StringIO()
        _write_vector_tsv(out, labels, matrix)
        expect = "".join(
            str(int(label)) + "\t" + "\t".join(format(x, ".17g") for x in row) + "\n"
            for label, row in zip(labels, matrix)
        )
        assert out.getvalue() == expect


def per_value_tsv(labels, matrix):
    """The vector TSV as the per-value formatting it must equal."""
    return "".join(
        str(int(label)) + "".join("\t" + format(x, ".17g") for x in row) + "\n"
        for label, row in zip(labels, matrix.tolist())
    )


def written_tsv(labels, matrix):
    out = io.StringIO()
    _write_vector_tsv(out, labels, matrix)
    return out.getvalue()


@st.composite
def labelled_matrices(draw):
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    values = st.one_of(st.floats(), st.floats(-1e17, 1e17), st.floats(-1e-3, 1e-3))
    matrix = draw(hnp.arrays(np.float64, (rows, cols), elements=values))
    labels = draw(hnp.arrays(np.int64, rows, elements=st.integers(-(2**63), 2**63 - 1)))
    return labels, matrix


class TestVectorWriter:
    @given(labelled_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_value_formatting_on_any_matrix(self, case):
        labels, matrix = case
        assert written_tsv(labels, matrix) == per_value_tsv(labels, matrix)

    def test_matches_at_every_power_of_ten(self):
        powers = np.array([float(f"1e{e}") for e in range(-330, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        matrix = np.concatenate([values, -values]).reshape(-1, 6)
        labels = np.arange(len(matrix)) - 100
        assert written_tsv(labels, matrix) == per_value_tsv(labels, matrix)

    @pytest.mark.parametrize(
        "values",
        [
            # the ends of fixed notation, where %g turns exponential, and the
            # decades next to them
            [1e-4, 9.9999999999999991e-05, 1.0000000000000001e-04, 1e-5, 9.9999999999999999e-05,
             9.99999999999999999e-06, 1e-6, 1.5e-6, 9.99999999999999999e-07],
            [1e16, 9999999999999998.0, 1.0000000000000002e16, 1e17, 99999999999999984.0,
             1.0000000000000002e17, 12345678901234567.0, 2.0**53, 2.0**53 + 2],
            # short decimals, and doubles halfway between two 17-digit
            # decimals, which round to the even one
            [0.5, 2.5, 0.1, 0.25, 1.5, 3.5, 0.125, 100.0, 1234.5],
            [1000000000000000.25, 1000000000000000.75, 100000000000000.125, 100000000000000.375,
             10000000000000.0625, 1000000000000.03125],
            # at most two integer digits
            [10.0, 12.5, 37.25, 99.99, 10.000000000000002, 0.5],
            [5e-324, 0.0, -0.0, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             np.inf, -np.inf, np.nan],
        ],
    )
    def test_matches_on_boundary_values(self, values):
        matrix = np.array([values, [-v for v in values]])
        labels = np.array([0, -(2**63)])
        assert written_tsv(labels, matrix) == per_value_tsv(labels, matrix)

    def test_exponent_off_by_one_from_log10_is_settled(self):
        # log10 may miss the exponent by one next to a power of ten; the
        # digits come out the same from either neighbour
        values = np.array([1e-5, 9.9999999999999995e-05, 0.001, 1.0, 100.0, 99.999999999999986, 1e15])
        exact = np.array([int(f"{v:.16e}"[-3:]) for v in values])
        digits = np.array([int(f"{v:.16e}"[:18].replace(".", "")) for v in values])
        tables = cli._g17_tables()
        for guess in (exact - 1, exact + 1):
            x, d, ok = cli._settle(values, guess, tables)
            assert ok.all() and (x == exact).all() and (d == digits).all()

    @pytest.mark.parametrize("shape", [(301, 128), (41, 1092)])
    def test_matches_across_chunk_ends(self, shape):
        # 128 and 15 rows per chunk: neither row count is a multiple; the
        # 1092 columns are embed-skewed's --y-out width
        rng = np.random.default_rng(sum(shape))
        matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3, shape)
        matrix[rng.random(shape) < 0.4] = 0.0
        assert shape[0] % max(1, cli._CHUNK_VALUES // shape[1]) != 0
        labels = rng.permutation(shape[0]) * 7
        assert written_tsv(labels, matrix) == per_value_tsv(labels, matrix)

    @staticmethod
    def chunk_with(wide, seed=0):
        """One writer chunk of values in [1e-4, 1) in magnitude, whose cells
        fit the 3-word layout, with ``wide`` spread over it."""
        rng = np.random.default_rng(seed)
        values = rng.uniform(1e-4, 1.0, cli._CHUNK_VALUES) * rng.choice([-1.0, 1.0], cli._CHUNK_VALUES)
        values[rng.choice(values.size, len(wide), replace=False)] = wide
        return values

    def assert_written_exactly(self, values):
        matrix = values.reshape(-1, 128)
        labels = np.arange(len(matrix))
        assert written_tsv(labels, matrix) == per_value_tsv(labels, matrix)

    @pytest.mark.parametrize(
        "wide",
        [
            [12.5, -1234.5678, 2.0**60, 9999999999999998.0, 1.0000000000000002e16, 1e17, -3e-7, 1.5e-300],
            [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -1.2345678901234567e-99],
        ],
        ids=["exponents", "specials"],
    )
    def test_a_few_wide_values_keep_their_chunk_3_words_wide(self, wide):
        values = self.chunk_with(wide)
        assert len(cli._g17_words(values)) == 3
        self.assert_written_exactly(values)

    def test_small_exponents_fit_3_words_however_many(self):
        # "d.ddde-05" and "e-06" cells are laid out with the others, not one at a time
        rng = np.random.default_rng(1)
        small = rng.uniform(1e-6, 1e-4, cli._CHUNK_VALUES // 2) * rng.choice([-1.0, 1.0], cli._CHUNK_VALUES // 2)
        small[:4] = [1e-5, -9.9999999999999995e-06, 1e-6, -1.0000000000000001e-05]
        values = self.chunk_with(small)
        assert len(cli._g17_words(values)) == 3
        self.assert_written_exactly(values)

    def test_more_wide_values_than_the_bound_widen_the_chunk(self):
        bound = cli._CHUNK_VALUES // cli._FEW_WIDE
        rng = np.random.default_rng(2)
        at_bound = self.chunk_with(rng.uniform(10.0, 1e6, bound))
        assert len(cli._g17_words(at_bound)) == 3
        past = self.chunk_with(rng.uniform(10.0, 1e6, bound + 1))
        assert len(cli._g17_words(past)) == 6  # head, two integer-part words, point, fraction
        self.assert_written_exactly(at_bound)
        self.assert_written_exactly(past)

    def test_a_3_digit_exponent_widens_the_chunk(self):
        wide = [-1.2345678901234567e-300]  # "\t" and 24 characters: a 25-byte cell
        assert len("\t" + format(wide[0], ".17g")) == 25
        values = self.chunk_with(wide)
        assert len(cli._g17_words(values)) == 4
        self.assert_written_exactly(values)

    def test_memory_stays_flat_with_the_matrix_size(self):
        class Sink:
            def write(self, text):
                pass

        matrix = np.random.default_rng(0).standard_normal((20_000, 128))
        labels = np.arange(20_000)
        tracemalloc.start()
        try:
            _write_vector_tsv(Sink(), labels, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the text is about 57 MB; one chunk of it and its arrays are a few MiB
        assert peak <= 8 * 2**20


class TestConfigPrecedence:
    def test_config_file_supplies_values(self, ring_graph, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# embedding settings\n"
            f"input={ring_graph}\n"
            "dl=2\n"
            "d=8\n"
            "k=1\n"
            "seed=4\n"
        )
        out = tmp_path / "z.tsv"
        code, _ = run_cli(["embed", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# seed=4" in text
        assert "# dl=2" in text

    def test_config_file_may_start_with_a_byte_order_mark(self, ring_graph, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dl=2\ninput={ring_graph}\nd=8\nk=1\n", encoding="utf-8-sig")
        out = tmp_path / "z.tsv"
        assert run_cli(["embed", "--config", str(cfg), "--out", str(out)])[0] == 0
        assert "# dl=2" in out.read_text()

    def test_flags_override_config(self, ring_graph, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={ring_graph}\ndl=2\nd=8\nk=1\nseed=4\n")
        out = tmp_path / "z.tsv"
        run_cli(["embed", "--config", str(cfg), "--seed", "7", "--out", str(out)])
        assert "# seed=7" in out.read_text()

    def test_env_seed_overrides_flag(self, ring_graph, tmp_path):
        out = tmp_path / "z.tsv"
        run_cli(
            ["embed", "--input", str(ring_graph), "--dl", "2", "--d", "8",
             "--k", "1", "--seed", "7", "--out", str(out)],
            env_extra={"MOTIFEMBED_SEED": "123"},
        )
        assert "# seed=123" in out.read_text()

    @pytest.mark.parametrize("argv", [["count-orbits"], ["motif-matrix", "--orbit", "2"]])
    def test_no_seed_where_no_random_numbers_are_drawn(self, ring_graph, tmp_path, argv):
        out = tmp_path / "o.out"
        code, _ = run_cli([*argv, "--input", str(ring_graph), "--out", str(out)],
                          env_extra={"MOTIFEMBED_SEED": "123"})
        assert code == 0
        assert "seed=" not in out.read_text()

    @pytest.mark.parametrize("argv, env, name", [(["--seed", "-1"], None, "argument --seed"),
                                                 ([], {"MOTIFEMBED_SEED": "-3"}, "MOTIFEMBED_SEED")])
    def test_negative_seed_fails_before_reading_input(self, ring_graph, capsys, monkeypatch, argv, env, name):
        read = []
        monkeypatch.setattr(cli, "load_edge_list", lambda *a, **k: read.append(a))
        code, _ = run_cli(["embed", "--input", str(ring_graph), *argv], env_extra=env, capsys=capsys)
        assert code == 1
        assert read == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}") and err.count("\n") == 1

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code, _ = run_cli(["embed", "--config", str(cfg)], capsys=capsys)
        assert code == 1
        assert "key=value" in capsys.readouterr().err

    def test_read_config_file_parses(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment\n\nkind=p\nskip-header=true\n")
        values = read_config_file(str(cfg))
        assert values == {"kind": "p", "skip_header": "true"}

    @pytest.mark.parametrize(
        "subcommand, settings",
        [
            ("count-orbits", {"skip-header": "true", "workers": "1"}),
            ("motif-matrix", {"orbit": "2", "kind": "lnorm", "delta": "1"}),
            ("embed", {"kind": "lnorm", "dl": "2", "d": "8", "k": "1", "diffusion": "linear",
                       "seed": "3", "skip-header": "true"}),
            ("linkpred", {"kind": "p", "dl": "2", "d": "8", "k": "1", "seeds": "1", "seed": "4"}),
        ],
    )
    def test_config_run_equals_flag_run(self, ring_graph, tmp_path, subcommand, settings):
        flag_out, config_out = tmp_path / "flags.out", tmp_path / "config.out"
        flags = [tok for key, value in settings.items()
                 for tok in ([f"--{key}"] if value == "true" else [f"--{key}", value])]
        assert run_cli([subcommand, "--input", str(ring_graph), *flags, "--out", str(flag_out)])[0] == 0
        cfg = tmp_path / "run.cfg"
        # a key the subcommand does not declare is ignored
        cfg.write_text(f"input={ring_graph}\nbogus=1\n" + "".join(f"{k}={v}\n" for k, v in settings.items()))
        assert run_cli([subcommand, "--config", str(cfg), "--out", str(config_out)])[0] == 0
        assert config_out.read_bytes() == flag_out.read_bytes()

    @pytest.mark.parametrize("line, flag", [("dl=abc", "--dl"), ("one_indexed=maybe", "--one-indexed"),
                                            ("k=auto", "--k"), ("kind=zz", "--kind")])
    def test_bad_config_value_is_a_one_line_error_naming_the_flag(self, ring_graph, tmp_path, capsys,
                                                                   line, flag):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"input={ring_graph}\n{line}\n")
        code, _ = run_cli(["embed", "--config", str(cfg)], capsys=capsys)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}") and err.count("\n") == 1


class TestLinkpred:
    def test_report_shape(self, ring_graph, tmp_path):
        out = tmp_path / "report.tsv"
        code, _ = run_cli(
            ["linkpred", "--input", str(ring_graph), "--k", "1", "--dl", "2",
             "--d", "8", "--seeds", "2", "--out", str(out)]
        )
        assert code == 0
        body = read_body(out)
        assert body[0] == "seed\tk\tauc"
        assert len(body) == 1 + 2 + 1  # header, one row per seed, summary
        seed_rows = [ln.split("\t") for ln in body[1:3]]
        assert [r[0] for r in seed_rows] == ["0", "1"]
        assert all(r[1] == "1" for r in seed_rows)
        for row in seed_rows:
            assert 0.0 <= float(row[2]) <= 1.0
        summary = body[3].split("\t")
        assert summary[0] == "mean"
        expected = np.mean([float(r[2]) for r in seed_rows])
        assert abs(float(summary[2]) - expected) < 1e-12

    def test_deterministic_reruns(self, ring_graph, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        args = ["linkpred", "--input", str(ring_graph), "--k", "1", "--dl", "2",
                "--d", "8", "--seeds", "2"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_auto_k_selects_from_grid(self, ring_graph, tmp_path):
        out = tmp_path / "report.tsv"
        code, _ = run_cli(
            ["linkpred", "--input", str(ring_graph), "--k", "auto", "--dl", "2",
             "--d", "8", "--seeds", "1", "--out", str(out)]
        )
        assert code == 0
        row = read_body(out)[1].split("\t")
        assert row[1] in {"1", "2", "3", "4"}


class TestOutputsCheckedFirst:
    @pytest.mark.parametrize(
        "argv, compute",
        [
            (["linkpred", "--input", "{input}", "--k", "1", "--seeds", "1", "--out", "{bad}"], "run_experiment"),
            (["embed", "--input", "{input}", "--k", "1", "--out", "{bad}"], "embed_graph"),
            (["embed", "--input", "{input}", "--k", "1", "--out", "{good}", "--y-out", "{bad}"], "embed_graph"),
            (["count-orbits", "--input", "{input}", "--out", "{bad}"], "count_edge_orbits"),
            (["motif-matrix", "--input", "{input}", "--orbit", "1", "--out", "{bad}"], "count_edge_orbits"),
            (["bench", "--sizes", "50", "--out", "{bad}"], "bench_scaling"),
        ],
    )
    def test_unusable_out_fails_before_the_computation(
        self, ring_graph, tmp_path, capsys, monkeypatch, argv, compute
    ):
        ran = []
        monkeypatch.setattr(cli, compute, lambda *a, **k: ran.append(compute))
        paths = {"input": ring_graph, "bad": tmp_path, "good": tmp_path / "z.tsv"}
        code, _ = run_cli([arg.format(**paths) for arg in argv], capsys=capsys)
        assert code == 1
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err


class TestBench:
    def test_small_sizes(self, tmp_path):
        out = tmp_path / "bench.tsv"
        code, _ = run_cli(
            ["bench", "--sizes", "60,120", "--dl", "2", "--d", "8", "--out", str(out)]
        )
        assert code == 0
        body = read_body(out)
        assert body[0].split("\t") == [
            "n", "edges", "generate_s", "count_s", "local_s", "global_s", "total_s"
        ]
        rows = [ln.split("\t") for ln in body[1:]]
        assert [r[0] for r in rows] == ["60", "120"]
        for row in rows:
            stages = [float(x) for x in row[2:]]
            assert all(s >= 0 for s in stages)

    def test_table_ends_with_slope_and_peak_rss(self, tmp_path):
        out = tmp_path / "bench.tsv"
        code, _ = run_cli(["bench", "--sizes", "60,120", "--dl", "2", "--d", "8", "--out", str(out)])
        assert code == 0
        slope, peak = out.read_text().splitlines()[-2:]
        assert slope.startswith("# loglog_slope=")
        float(slope.partition("=")[2])
        assert peak.startswith("# peak_rss_mib=") and float(peak.partition("=")[2]) > 0

    def test_diffusion_runs_once_per_size(self, monkeypatch):
        calls = []
        original = pipeline.diffuse_attributes

        def counting(*args, **kwargs):
            calls.append(args[0].num_nodes)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "diffuse_attributes", counting)
        cfg = pipeline.PipelineConfig(
            max_steps=1, local_rank=2, global_rank=8,
            diffusion=pipeline.DiffusionConfig(pipeline.DiffusionVariant.LINEAR),
        )
        rows = bench_scaling((40, 60), 6.0, cfg, seed=0)
        assert calls == [40, 60]
        assert all("error" not in row for row in rows)

    def test_average_degree_above_n_minus_one_is_a_failed_row(self, tmp_path):
        out = tmp_path / "bench.tsv"
        code, _ = run_cli(["bench", "--sizes", "20", "--avg-degree", "1e9", "--out", str(out)])
        assert code == 0
        assert "# size 20 failed: ValueError: average degree 1e+09 exceeds n - 1 = 19\n" in out.read_text()
        assert read_body(out) == ["n\tedges\tgenerate_s\tcount_s\tlocal_s\tglobal_s\ttotal_s"]

    def test_descending_sizes_rejected(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        out.write_bytes(b"earlier table\n")
        code, _ = run_cli(["bench", "--sizes", "100,50", "--out", str(out)], capsys=capsys)
        assert code == 1
        assert out.read_bytes() == b"earlier table\n"
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "ascending" in err

    @pytest.mark.parametrize("sizes", ["-5,10", "0,1", "1,40"])
    def test_sizes_below_two_rejected(self, tmp_path, capsys, sizes):
        out = tmp_path / "bench.tsv"
        out.write_bytes(b"earlier table\n")
        code, _ = run_cli(["bench", f"--sizes={sizes}", "--out", str(out)], capsys=capsys)
        assert code == 1
        assert out.read_bytes() == b"earlier table\n"
        err = capsys.readouterr().err
        assert err.startswith("error: argument --sizes: ") and err.count("\n") == 1
        assert "at least 2" in err


class TestEntryPoint:
    def test_help_exits_zero(self, capsys):
        code, _ = run_cli(["--help"], capsys=capsys)
        assert code == 0
        assert "count-orbits" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        code, _ = run_cli(["linkpred", "--help"], capsys=capsys)
        assert code == 0
        out = capsys.readouterr().out
        for flag in ("--kind", "--delta", "--dl", "--d", "--k", "--diffusion", "--seeds"):
            assert flag in out

    def test_help_shows_each_default(self, capsys):
        code, _ = run_cli(["linkpred", "--help"], capsys=capsys)
        assert code == 0
        out = " ".join(capsys.readouterr().out.split())
        for default in ("(default w)", "(default 1)", "(default 16)", "(default 128)",
                        "(default auto)", "(default none)", "(default 10)", "(default 0;"):
            assert default in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["embed", "--input", "{input}", "--kind", "zz"],
            ["embed", "--input", "{input}", "--dl", "abc"],
            ["embed", "--input", "{input}", "--workers"],
            ["linkpred", "--input", "{input}", "--seeds", "0"],
            ["motif-matrix", "--input", "{input}"],
            ["count-orbits", "--input", "{input}", "--bogus"],
            ["count-orbits"],
            ["bench", "--sizes", "1,x"],
            ["frobnicate"],
            ["count-orbits", "--input", "{input}", "--seed", "1"],  # draws no random numbers
            ["bench", "--sizes", "20", "--avg-degree", "nan"],
            ["bench", "--sizes", "20", "--avg-degree", "inf"],
            ["bench", "--sizes", "20", "--avg-degree", "-2"],
        ],
    )
    def test_bad_flag_is_a_one_line_error(self, triangle, capsys, argv):
        code, _ = run_cli([arg.format(input=triangle) for arg in argv], capsys=capsys)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_no_subcommand_errors(self, capsys):
        code, _ = run_cli([], capsys=capsys)
        assert code != 0

    def test_installed_script(self, triangle):
        proc = run_python(["-m", "motifembed.cli", "count-orbits", "--input", str(triangle)])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "# subcommand=count-orbits"

    def test_import_loads_only_its_own_modules_beyond_its_libraries(self):
        probe = (
            "import sys, argparse, contextlib, dataclasses, enum, functools, io, itertools, logging, os, "
            "time, typing; import numpy, scipy.sparse; before = set(sys.modules); import motifembed.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        proc = run_python(["-c", probe])
        assert proc.returncode == 0, proc.stderr
        own = ("cli", "evaluation", "factorize", "generators", "graph", "matrices", "operators", "orbits", "pipeline")
        assert proc.stdout.split() == ["motifembed"] + [f"motifembed.{name}" for name in own]

    def test_import_loads_neither_scipy_special_nor_scipy_io(self):
        probe = "import sys, motifembed.cli; print([m for m in ('scipy.special', 'scipy.io') if m in sys.modules])"
        proc = run_python(["-c", probe])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_default_embed_and_linkpred_load_no_scipy_linalg(self, ring_graph, tmp_path):
        # kind w without diffusion: every rSVD runs on numpy's LAPACK, and the
        # fusion input is narrower than 4·d, so the subset eigensolver is not used
        probe = (
            "import sys; from motifembed import cli; "
            f"assert cli.main(['embed', '--input', {str(ring_graph)!r}, '--out', {str(tmp_path / 'x.tsv')!r}]) == 0; "
            f"assert cli.main(['linkpred', '--input', {str(ring_graph)!r}, '--k', '1', '--seeds', '1', "
            f"'--out', {str(tmp_path / 'r.tsv')!r}]) == 0; "
            "print([m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])"
        )
        proc = run_python(["-c", probe])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert len(read_body(tmp_path / "x.tsv")) == 30 and len(read_body(tmp_path / "r.tsv")) == 3

    @pytest.mark.parametrize("token", ["transition", "theta:0.5"])
    def test_embed_with_diffusion_token(self, ring_graph, tmp_path, token):
        out = tmp_path / "z.tsv"
        code, _ = run_cli(["embed", "--input", str(ring_graph), "--dl", "2", "--d", "8", "--k", "1",
                           "--diffusion", token, "--out", str(out)])
        assert code == 0
        assert f"# diffusion={token}" in out.read_text().splitlines()
        assert {len(ln.split("\t")) for ln in read_body(out)} == {1 + 8}

    @pytest.mark.parametrize("token", ["theta:2", "theta:nan", "theta:x"])
    def test_bad_theta_is_a_one_line_error(self, triangle, capsys, token):
        code, _ = run_cli(["embed", "--input", str(triangle), "--diffusion", token], capsys=capsys)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument --diffusion: bad theta in '{token}': ")
        assert captured.err.count("\n") == 1

    def test_unknown_diffusion_token(self, triangle, capsys):
        code, _ = run_cli(
            ["embed", "--input", str(triangle), "--diffusion", "sideways"],
            capsys=capsys,
        )
        assert code == 1
        assert "sideways" in capsys.readouterr().err
