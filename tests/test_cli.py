import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import copdep
from copdep import SynthModel, generate, load_copula, read_csv
from copdep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_synth(capsys, tmp_path, model="mixture", theta="0.5", rows="2000", seed="4"):
    csv_path = tmp_path / "data.csv"
    args = [
        "synth",
        "--model",
        model,
        "--rows",
        rows,
        "--seed",
        seed,
        "--output",
        str(csv_path),
    ]
    if theta is not None:
        args += ["--theta", theta]
    code, out, _ = run(capsys, *args)
    assert code == 0
    return csv_path


class TestSynth:
    def test_writes_csv(self, capsys, tmp_path):
        path = write_synth(capsys, tmp_path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,y"
        assert len(lines) == 2001

    def test_read_back_bit_for_bit(self, capsys, tmp_path):
        path = write_synth(capsys, tmp_path, model="gaussian", theta="0.3", rows="500")
        data, names = read_csv(path)
        correlation = ((1.0, 0.3), (0.3, 1.0))
        model = SynthModel(tag="gaussian", dimension=2, correlation=correlation, seed=4)
        assert names == ["x0", "y"]
        assert np.array_equal(data, generate(model, 500))

    def test_deterministic(self, capsys, tmp_path):
        p1 = write_synth(capsys, tmp_path)
        text1 = p1.read_text()
        p2 = tmp_path / "again.csv"
        code, _, _ = run(
            capsys, "synth", "--model", "mixture", "--theta", "0.5", "--rows", "2000",
            "--seed", "4", "--output", str(p2),
        )
        assert code == 0
        assert p2.read_text() == text1


class TestEstimate:
    def test_round_trip(self, capsys, tmp_path):
        csv_path = write_synth(capsys, tmp_path)
        cop_path = tmp_path / "cop.json"
        code, out, err = run(
            capsys, "estimate", "--input", str(csv_path), "--output", str(cop_path),
            "--resolution", "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["resolutions"] == [8, 8]
        cop = load_copula(cop_path)
        assert cop.validate().passed

    def test_nan_exits_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,nan\n2,3\n4,5\n")
        code, _, err = run(
            capsys, "estimate", "--input", str(path), "--output", str(tmp_path / "o.json")
        )
        assert code == 2
        assert "column" in err

    def test_header_only_exits_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        code, _, _ = run(
            capsys, "estimate", "--input", str(path), "--output", str(tmp_path / "o.json")
        )
        assert code == 2

    @pytest.mark.parametrize("text", ["a,b\n1,2,3\n4,5,6\n", "a,b,c\n1,2\n3,4\n"])
    def test_header_width_mismatch_exits_invalid_input(self, capsys, tmp_path, text):
        path = tmp_path / "wide.csv"
        path.write_text(text)
        code, _, err = run(
            capsys, "estimate", "--input", str(path), "--output", str(tmp_path / "o.json")
        )
        assert code == 2
        assert "header has" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "estimate", "--input", str(tmp_path / "nope.csv"),
            "--output", str(tmp_path / "o.json"),
        )
        assert code == 2

    def test_grid_too_large_to_write_exits_two(self, capsys, tmp_path):
        # 128**8 cells: the dense mass array the JSON needs is 512 PiB, an
        # allocation that fails at once.
        csv_path = tmp_path / "same.csv"
        np.savetxt(csv_path, np.tile(np.arange(200.0)[:, None], 8), delimiter=",")
        out_path = tmp_path / "o.json"
        code, out, err = run(
            capsys, "estimate", "--input", str(csv_path), "--output", str(out_path),
            "--resolution", "128",
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and "dense mass array" in err
        assert not out_path.exists()


#: Inputs that ``measure`` cannot read, by file name; None makes a directory.
UNREADABLE_INPUTS = {
    "latin1.json": b'{"dims": 1, "resolutions": [1], "mass": [1.0]}\xe9',
    "text_mass.json": b'{"dims": 1, "resolutions": [2], "mass": [0.5, "x"]}',
    "ragged.json": b'{"dims": 2, "resolutions": [2, 2], "mass": [[0.5, 0], [0]]}',
    "latin1_header.csv": b"a\xe9,b\n1,2\n3,4\n",
    "latin1_row.csv": b"a,b\n1,2\n3\xe9,4\n",
    "a_directory": None,
}


class TestMeasure:
    def test_copula_file_tau(self, capsys, tmp_path):
        csv_path = write_synth(capsys, tmp_path, model="comonotone", theta=None)
        cop_path = tmp_path / "cop.json"
        run(capsys, "estimate", "--input", str(csv_path), "--output", str(cop_path),
            "--resolution", "8")
        code, out, _ = run(capsys, "measure", "--input", str(cop_path), "--kind", "tau_quadratic")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "tau_quadratic"
        assert payload["value"] == pytest.approx(1.0 - 1.0 / 8, abs=1e-9)
        assert payload["u_axes"] == [0]
        assert payload["v_axes"] == [1]

    def test_csv_direct_measure(self, capsys, tmp_path):
        csv_path = write_synth(capsys, tmp_path, theta="0.5", rows="4000")
        code, out, _ = run(
            capsys, "measure", "--input", str(csv_path), "--kind", "tau_quadratic",
            "--resolution", "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sample_size"] == 4000
        assert 0.1 < payload["value"] < 0.4

    def test_group_measure_emits_bound_and_normalized(self, capsys, tmp_path):
        csv_path = tmp_path / "g.csv"
        rng = np.random.Generator(np.random.Philox(key=5))
        x = rng.random((2000, 1))
        data = np.column_stack([x, x + 0.01 * rng.random((2000, 1)), rng.random((2000, 1))])
        np.savetxt(csv_path, data, delimiter=",", header="a,b,c", comments="")
        code, out, _ = run(
            capsys, "measure", "--input", str(csv_path), "--kind", "group_tau",
            "--u-cols", "a", "--v-cols", "b,c", "--resolution", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["upper_bound"] is not None
        assert payload["normalized_value"] == pytest.approx(
            payload["value"] / payload["upper_bound"]
        )

    def test_invalid_alpha_exits_two(self, capsys, tmp_path):
        csv_path = write_synth(capsys, tmp_path)
        code, _, _ = run(
            capsys, "measure", "--input", str(csv_path), "--kind", "renyi_alpha",
            "--alpha", "2.5", "--resolution", "8",
        )
        assert code == 2

    @pytest.mark.parametrize("alpha, expected", [("nan", 2), ("inf", 2), ("1e308", 3)])
    def test_non_finite_alpha_or_value_exits_without_json(self, capsys, tmp_path, alpha, expected):
        csv_path = write_synth(capsys, tmp_path)
        code, out, err = run(
            capsys, "measure", "--input", str(csv_path), "--kind", "tau_alpha",
            "--alpha", alpha, "--resolution", "8",
        )
        assert code == expected
        assert out == ""
        assert "error:" in err

    def test_grid_beyond_an_int64_flat_index_exits_two(self, capsys, tmp_path):
        csv_path = tmp_path / "wide.csv"
        np.savetxt(csv_path, np.random.default_rng(5).random((300, 9)), delimiter=",")
        code, out, err = run(
            capsys, "measure", "--input", str(csv_path), "--resolution", "128",
        )
        assert code == 2
        assert out == ""
        assert "2**63" in err

    def test_mutual_information_on_a_one_axis_copula(self, capsys, tmp_path):
        cop_path = tmp_path / "one.json"
        copdep.save_copula(copdep.independence_copula((4,)), cop_path)
        code, out, _ = run(
            capsys, "measure", "--input", str(cop_path), "--kind", "mutual_information"
        )
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    @pytest.mark.parametrize("name", sorted(UNREADABLE_INPUTS))
    def test_unreadable_input_exits_two(self, capsys, tmp_path, name):
        content = UNREADABLE_INPUTS[name]
        path = tmp_path / name
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, out, err = run(capsys, "measure", "--input", str(path), "--resolution", "2")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_97_rows_on_a_50_cubed_grid_exit_zero(self, capsys, tmp_path):
        # binned counts admit no uniform marginals here; the rank boxes do
        csv_path = tmp_path / "short.csv"
        np.savetxt(csv_path, np.random.default_rng(0).random((97, 3)), delimiter=",")
        code, out, err = run(
            capsys, "measure", "--input", str(csv_path), "--resolution", "50",
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["value"] <= 1.0
        assert err.splitlines() == [f"tau_quadratic: {payload['value']:.12g}"]


    def test_tied_csv_measures_the_same_in_any_row_order(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        data = np.round(rng.standard_normal((2000, 3)) * 2.0)
        data[:, 2] += data[:, 0]
        values = set()
        for k, order in enumerate([np.arange(2000), rng.permutation(2000), rng.permutation(2000)]):
            csv_path = tmp_path / f"tied{k}.csv"
            np.savetxt(csv_path, data[order], delimiter=",")
            with pytest.warns(RuntimeWarning, match="tied"):
                code, out, _ = run(
                    capsys, "measure", "--input", str(csv_path), "--resolution", "8",
                )
            assert code == 0
            values.add(json.loads(out)["value"])
        assert len(values) == 1


class TestStarCommand:
    def test_compose_and_reuse(self, capsys, tmp_path):
        # estimate two copulas from the same middle column, then compose
        rng = np.random.Generator(np.random.Philox(key=11))
        u = rng.random(3000)
        s = np.sqrt(u) + 0.05 * rng.random(3000)
        v = s**3 + 0.05 * rng.random(3000)
        a_csv = tmp_path / "a.csv"
        b_csv = tmp_path / "b.csv"
        np.savetxt(a_csv, np.column_stack([u, s]), delimiter=",", header="u,s", comments="")
        np.savetxt(b_csv, np.column_stack([s, v]), delimiter=",", header="s,v", comments="")
        a_json = tmp_path / "a.json"
        b_json = tmp_path / "b.json"
        run(capsys, "estimate", "--input", str(a_csv), "--output", str(a_json), "--resolution", "6")
        run(capsys, "estimate", "--input", str(b_csv), "--output", str(b_json), "--resolution", "6")
        out_json = tmp_path / "ab.json"
        code, out, _ = run(
            capsys, "star", str(a_json), str(b_json), "--n", "1", "--output", str(out_json)
        )
        assert code == 0
        composed = load_copula(out_json)
        assert composed.validate().passed

    def test_incompatible_exits_numerical(self, capsys, tmp_path):
        from copdep import comonotone_copula, independence_copula, save_copula

        a_json = tmp_path / "a.json"
        b_json = tmp_path / "b.json"
        save_copula(independence_copula((4, 4, 4, 4)), a_json)
        save_copula(comonotone_copula(3, 4), b_json)
        code, _, err = run(
            capsys, "star", str(a_json), str(b_json), "--n", "2",
            "--output", str(tmp_path / "o.json"),
        )
        assert code == 3


class TestVerify:
    @pytest.mark.parametrize("suite", ["axioms", "dpi", "equitability", "bounds"])
    def test_suites_pass(self, capsys, suite):
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--trials", "20", "--seed", "42"
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(r["passed"] for r in payload["results"])
        assert "PASS" in err

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "no_such_suite", "--trials", "5"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "dpi", "--trials", "10", "--seed", "3")
        _, out2, _ = run(capsys, "verify", "--suite", "dpi", "--trials", "10", "--seed", "3")
        assert out1 == out2


def test_import_and_tau_measure_leave_scipy_unloaded(tmp_path):
    csv_path = tmp_path / "d.csv"
    rng = np.random.Generator(np.random.Philox(key=9))
    np.savetxt(csv_path, rng.random((200, 3)), delimiter=",", header="a,b,c", comments="")
    script = (
        "import sys\n"
        "import copdep\n"
        "assert 'scipy' not in sys.modules, 'import copdep loaded scipy'\n"
        "from copdep.cli import main\n"
        f"code = main(['measure', '--input', {str(csv_path)!r}, '--kind', 'tau_quadratic',"
        " '--resolution', '4'])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'measure --kind tau_quadratic loaded scipy'\n"
        f"code = main(['measure', '--input', {str(csv_path)!r}, '--kind', 'renyi_limit',"
        " '--resolution', '4'])\n"
        "assert code == 0, code\n"
        "assert 'scipy.integrate' not in sys.modules, 'renyi_limit loaded scipy.integrate'\n"
    )
    src = str(Path(copdep.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
