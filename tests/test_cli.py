import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import copdep
from copdep import SynthModel, generate, load_copula, read_csv
from copdep.cli import main
from copdep.measures import _KINDS


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

    @pytest.mark.parametrize(
        "model, flag",
        [("independent", "--theta"), ("gaussian", "--sigma"), ("mixture", "--sigma")],
    )
    def test_a_knob_the_model_does_not_read_exits_two(self, capsys, tmp_path, model, flag):
        # SynthModel refuses the field; the CLI passes its message through.
        path = tmp_path / "d.csv"
        mixing = ["--theta", "0.5"] if model == "mixture" else []
        code, out, err = run(
            capsys, "synth", "--model", model, *mixing, flag, "0.3", "--output", str(path)
        )
        field, reader = {"--theta": ("theta", "mixture"), "--sigma": ("sigma", "functional")}[flag]
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {field} does not apply to the {model} model; only {reader} reads it\n"
        )
        assert not path.exists()


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

    def test_validates_the_fit_once(self, capsys, tmp_path, monkeypatch):
        # the fit validates its copula, and the summary and "valid" reuse
        # that report from the copula's memo
        from copdep import grid

        built = []

        class Counted(grid.ValidationReport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(grid, "ValidationReport", Counted)
        csv_path = write_synth(capsys, tmp_path)
        code, out, err = run(
            capsys, "estimate", "--input", str(csv_path), "--output", str(tmp_path / "c.json"),
            "--resolution", "8",
        )
        assert code == 0 and json.loads(out)["valid"] is True
        assert len(built) == 1
        assert f"validate: {built[0].summary()}" in err

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
    "float_resolution.json": b'{"dims": 2, "resolutions": [2.0, 2], "mass": [0.5, 0, 0, 0.5]}',
    "float_dims.json": b'{"dims": 2.0, "resolutions": [2, 2], "mass": [0.5, 0, 0, 0.5]}',
    "nan.json": b'{"dims": 1, "resolutions": [2], "mass": [NaN, 0.5]}',
    "infinity.json": b'{"dims": 1, "resolutions": [2], "mass": [Infinity, 0.5]}',
    # deep enough to overflow the C stack if it reached the parser
    "deep.json": b'{"dims": 1, "resolutions": [1], "mass": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
    "unknown_key.json": b'{"dims": 2, "resolutions": [2, 2], "mass": [0.25, 0.25, 0.25, 0.25], "note": "x"}',
    "missing_key.json": b'{"dims": 1, "resolutions": [1]}',
    "string_mass.json": b'{"dims": 2, "resolutions": [2, 2], "mass": ["0.25", "0.25", "0.25", "0.25"]}',
    "boolean_mass.json": b'{"dims": 2, "resolutions": [1, 1], "mass": [true]}',
    "boolean_among_masses.json": b'{"dims": 2, "resolutions": [2, 2], "mass": [0.5, false, false, 0.5]}',
    "escaped_key_boolean_mass.json": b'{"dims": 2, "resolu\\u0074ions": [2, 2], "mass": [false, 0.5, 0.5, false]}',
    "duplicate_key.json": b'{"dims": 7, "dims": 2, "resolutions": [2, 2], "mass": [0.5, 0, 0, 0.5]}',
    "escaped_duplicate_key.json": b'{"dims": 2, "d\\u0069ms": 2, "resolutions": [2, 2], "mass": [0.5, 0, 0, 0.5]}',
    "nested_mass.json": b'{"dims": 2, "resolutions": [1, 4], "mass": [[0.25, 0.25], [0.25, 0.25]]}',
    "top_level_list.json": b"[0.5, 0.5]",
    "huge_resolution.json": b'{"dims": 2, "resolutions": [2, 18446744073709551616], "mass": [1.0]}',
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
        payloads = {}
        for kind in ("group_tau", "group_tau_normalized"):
            code, out, _ = run(
                capsys, "measure", "--input", str(csv_path), "--kind", kind,
                "--v-cols", "b,c", "--resolution", "5",
            )
            assert code == 0
            payloads[kind] = json.loads(out)
        bound = payloads["group_tau"]["upper_bound"]
        assert payloads["group_tau"]["u_axes"] == [0]
        assert payloads["group_tau_normalized"]["value"] == payloads["group_tau"]["value"] / bound
        assert payloads["group_tau_normalized"]["normalizer"] == bound

    def test_degenerate_group_bound_exits_three(self, capsys, tmp_path, monkeypatch):
        import copdep.measures as measures

        monkeypatch.setattr(measures, "_kendall_bound", lambda t, k: 0.0)
        cop_path = tmp_path / "g.json"
        copdep.save_copula(copdep.random_copula((4, 4, 4), copdep.make_rng(2)), cop_path)
        code, out, err = run(
            capsys, "measure", "--input", str(cop_path), "--kind", "group_tau_normalized",
            "--v-cols", "1,2",
        )
        assert code == 3
        assert out == ""
        assert err == "error: Kendall bound 0.0 too small to normalize\n"

    @pytest.mark.parametrize("kind", [k for k, spec in _KINDS.items() if spec.compute is not None])
    def test_stdout_is_the_library_report(self, capsys, tmp_path, kind):
        csv_path = tmp_path / "d.csv"
        np.savetxt(csv_path, np.random.default_rng(4).random((300, 3)), delimiter=",")
        alpha = {"tau_alpha": 1.5, "renyi_alpha": 0.5}.get(kind)
        argv = ["measure", "--input", str(csv_path), "--kind", kind, "--resolution", "4"]
        if alpha is not None:
            argv += ["--alpha", str(alpha)]
        split = copdep.GroupSplit((0, 1), (2,))
        if kind.startswith("group_tau"):
            argv += ["--v-cols", "1,2"]
            split = copdep.GroupSplit((0,), (1, 2))
        elif kind == "mutual_information":
            split = None
        code, out, _ = run(capsys, *argv)
        assert code == 0
        data, _ = read_csv(csv_path)
        cop = copdep.fit_checkerboard(copdep.pseudo_observations(data), (4, 4, 4))
        report = copdep.compute_measure(cop, split, copdep.MeasureKind(kind, alpha))
        assert out == json.dumps(replace(report, sample_size=300).to_json_dict()) + "\n"

    @pytest.mark.parametrize("spec", ["x0", "x1,x0", "0,1"])
    def test_u_cols_is_not_a_flag(self, capsys, tmp_path, spec):
        # the conditioning block is every column outside --v-cols
        csv_path = write_synth(capsys, tmp_path, rows="200")
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--input", str(csv_path), "--u-cols", spec])
        assert exc.value.code == 2
        assert "unrecognized arguments: --u-cols" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "measure"])
    @pytest.mark.parametrize("columns", ["a", ","])
    def test_fewer_than_two_columns_name_the_flag(self, capsys, tmp_path, command, columns):
        csv_path = tmp_path / "ab.csv"
        csv_path.write_text("a,b\n1,2\n3,1\n2,3\n")
        argv = [command, "--input", str(csv_path), "--columns", columns]
        if command == "estimate":
            argv += ["--output", str(tmp_path / "fit.json")]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --columns must name at least 2 columns")
        assert "dims" not in err

    @pytest.mark.parametrize("command", ["estimate", "measure"])
    def test_a_one_column_file_names_its_column_count(self, capsys, tmp_path, command):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("a\n1\n3\n2\n")
        argv = [command, "--input", str(csv_path)]
        if command == "estimate":
            argv += ["--output", str(tmp_path / "fit.json")]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {csv_path} has 1 column; a copula needs at least 2\n"

    @pytest.mark.parametrize("flag", ["--v-cols"])
    @pytest.mark.parametrize("selector", ["3", "-1", "nope"])
    def test_bad_split_selector_exits_two(self, capsys, tmp_path, flag, selector):
        csv_path = tmp_path / "abc.csv"
        np.savetxt(csv_path, np.random.default_rng(6).random((40, 3)), delimiter=",",
                   header="a,b,c", comments="")
        code, out, err = run(
            capsys, "measure", "--input", str(csv_path), flag, selector, "--resolution", "2",
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_digit_selectors_are_indices_when_a_header_token_is_digits(self, capsys, tmp_path):
        csv_path = tmp_path / "digits.csv"
        np.savetxt(csv_path, np.random.default_rng(7).random((64, 3)), delimiter=",",
                   header="1,b,c", comments="")
        code, _, err = run(
            capsys, "estimate", "--input", str(csv_path), "--output", str(tmp_path / "c.json"),
            "--columns", "1,2", "--resolution", "4",
        )
        assert code == 0
        assert "columns: ['b', 'c']" in err
        for u_cols, v_cols in (("1,2", "0"), ("0,2", "1")):
            code, out, _ = run(
                capsys, "measure", "--input", str(csv_path), "--v-cols", v_cols,
                "--resolution", "4",
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["u_axes"] == [int(c) for c in u_cols.split(",")]
            assert payload["v_axes"] == [int(v_cols)]

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

    def test_a_copula_file_with_skewed_marginals_exits_three(self, capsys, tmp_path):
        cop_path = tmp_path / "skewed.json"
        cop_path.write_text('{"dims": 2, "resolutions": [2, 2], "mass": [0.4, 0.2, 0.2, 0.2]}')
        code, out, err = run(capsys, "measure", "--input", str(cop_path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {cop_path}: FAIL")

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
        assert "error:" in err and str(path) in err
        assert "does not apply" not in err  # refused on reading, not for the flag

    @pytest.mark.parametrize(
        "source, flags",
        [
            ("json", ["--resolution", "64"]),
            ("json", ["--columns", "x0,y"]),
            ("csv", ["--kind", "mutual_information", "--v-cols", "y"]),
        ],
        ids=["resolution", "columns", "v-cols"],
    )
    def test_a_flag_the_input_or_kind_does_not_read_exits_two(
        self, capsys, tmp_path, source, flags
    ):
        if source == "json":
            path = tmp_path / "fit.json"
            copdep.save_copula(copdep.independence_copula((8, 8)), path)
        else:
            path = write_synth(capsys, tmp_path, rows="200")  # columns x0, y
        code, out, err = run(capsys, "measure", "--input", str(path), *flags)
        assert code == 2
        assert out == ""
        assert f"error: {flags[-2]} does not apply" in err

    def test_resolution_one_exits_two(self, capsys, tmp_path):
        # at m = 1 every measure is 0 whatever the data
        csv_path = write_synth(capsys, tmp_path, model="gaussian", theta="0.9", rows="200")
        code, out, err = run(capsys, "measure", "--input", str(csv_path), "--resolution", "1")
        assert code == 2
        assert out == ""
        assert "--resolution >= 2" in err and "fixed_m" not in err

    def test_resolution_is_checked_before_the_csv_is_read(self, capsys, tmp_path):
        header_only = tmp_path / "d.csv"
        header_only.write_text("a,b\n")
        for command in ("estimate", "measure"):
            argv = [command, "--input", str(header_only), "--resolution", "1"]
            if command == "estimate":
                argv += ["--output", str(tmp_path / "fit.json")]
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == "error: expected an integer --resolution >= 2, got 1\n"

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

    def test_tied_csv_agrees_with_the_library_bit_for_bit(self, capsys, tmp_path):
        # The CLI ranks in two steps so it can drop the parsed sample between
        # them; it must give what pseudo_observations gives.
        rng = np.random.default_rng(8)
        data = rng.standard_normal((3001, 3))
        data[:, 0] = rng.integers(0, 5, 3001)
        data[:, 1] = np.round(data[:, 1], 1)
        csv_path = tmp_path / "tied.csv"
        np.savetxt(csv_path, data, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
        sample, _ = read_csv(csv_path)
        with pytest.warns(RuntimeWarning, match="tied"):
            pseudo = copdep.pseudo_observations(sample)
        expected = copdep.fit_checkerboard(pseudo, (7, 7, 7))
        split = copdep.GroupSplit((0, 1), (2,))

        with pytest.warns(RuntimeWarning, match="tied"):
            code, out, _ = run(capsys, "measure", "--input", str(csv_path), "--resolution", "7")
        assert code == 0
        value = json.loads(out)["value"]
        assert value.hex() == copdep.tau_quadratic(expected, split).value.hex()

        cop_path = tmp_path / "fit.json"
        with pytest.warns(RuntimeWarning, match="tied"):
            code, out, _ = run(
                capsys, "estimate", "--input", str(csv_path), "--output", str(cop_path),
                "--resolution", "7",
            )
        assert code == 0
        assert json.loads(out)["ties"] == list(pseudo.tie_counts)
        saved = load_copula(cop_path)
        assert saved.cell_index.tobytes() == expected.cell_index.tobytes()
        assert saved.cell_mass.tobytes() == expected.cell_mass.tobytes()


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

    def test_equitability_runs_one_sample_per_trial(self, capsys):
        details = []
        for trials in ("1", "3"):
            code, out, _ = run(
                capsys, "verify", "--suite", "equitability", "--trials", trials, "--seed", "42"
            )
            payload = json.loads(out)
            assert code == 0 and payload["passed"] is True
            assert len(payload["results"]) == 4
            details.append([r["detail"] for r in payload["results"]])
        assert all("on 1 samples" in detail for detail in details[0])
        assert all("on 3 samples" in detail for detail in details[1])
        assert details[0] != details[1]

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "no_such_suite", "--trials", "5"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_two(self, capsys, trials):
        code, out, err = run(capsys, "verify", "--suite", "dpi", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "expected an integer trials >= 1" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "dpi", "--trials", "10", "--seed", "3")
        _, out2, _ = run(capsys, "verify", "--suite", "dpi", "--trials", "10", "--seed", "3")
        assert out1 == out2


def test_import_and_tau_measure_leave_scipy_unloaded(tmp_path):
    csv_path = tmp_path / "d.csv"
    rng = np.random.Generator(np.random.Philox(key=9))
    np.savetxt(csv_path, rng.random((200, 3)), delimiter=",", header="a,b,c", comments="")
    # scipy is blocked, so any import of it fails: every kind, generator and
    # verify suite must run on numpy alone
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import copdep\n"
        "assert 'orjson' not in sys.modules, 'import copdep loaded orjson'\n"
        "from copdep.cli import main\n"
        f"code = main(['measure', '--input', {str(csv_path)!r}, '--kind', 'tau_quadratic',"
        " '--resolution', '4'])\n"
        "assert code == 0, code\n"
        "assert 'orjson' not in sys.modules, 'measuring a CSV loaded orjson'\n"
        f"code = main(['measure', '--input', {str(csv_path)!r}, '--kind', 'tau_alpha',"
        " '--alpha', '1', '--resolution', '4'])\n"
        "assert code == 0, code\n"
        f"code = main(['measure', '--input', {str(csv_path)!r}, '--kind', 'renyi_limit',"
        " '--resolution', '4'])\n"
        "assert code == 0, code\n"
        "import numpy as np\n"
        "from copdep import GroupSplit, MeasureKind, SynthModel\n"
        "from copdep.cli import _SUITES\n"
        "from copdep.generators import _TAGS\n"
        "from copdep.measures import _KINDS\n"
        "sample = copdep.pseudo_observations(np.loadtxt("
        f"{str(csv_path)!r}, delimiter=',', skiprows=1))\n"
        "single, group = GroupSplit((0, 1), (2,)), GroupSplit((0,), (1, 2))\n"
        "for copula in (copdep.fit_checkerboard(sample, (4, 4, 4)),"
        " copdep.comonotone_copula(3, 4)):\n"
        "    for tag, spec in _KINDS.items():\n"
        "        if spec.compute is not None:\n"
        "            alpha = {'tau_alpha': 1.5, 'renyi_alpha': 0.5}.get(tag)\n"
        "            split = group if tag.startswith('group') else single\n"
        "            copdep.compute_measure(copula, split if spec.needs_split else None,"
        " MeasureKind(tag, alpha))\n"
        "    for alpha in (0.1, 0.5, 1.5):\n"
        "        copdep.renyi_alpha(copula, single, alpha)\n"
        "    for split in (single, group):\n"
        "        copdep.generic_measure(copula, split, np.abs)\n"
        "fields = {'mixture': {'theta': 0.5}, 'functional': {'sigma': 0.1},"
        " 'gaussian': {'correlation': ((1.0, 0.5), (0.5, 1.0))}}\n"
        "for tag in _TAGS:\n"
        "    copdep.generate(SynthModel(tag=tag, **fields.get(tag, {})), 50)\n"
        "for suite in _SUITES:\n"
        "    assert main(['verify', '--suite', suite, '--trials', '1']) == 0, suite\n"
        "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
        "assert loaded == ['scipy'] and sys.modules['scipy'] is None, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def _child_env() -> dict:
    """The environment, with this copdep first on PYTHONPATH."""
    src = str(Path(copdep.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def test_the_console_script_checks_pass_through_the_module():
    # CI runs the same script with the installed copdep entry point; here
    # copdep is importable only through a PYTHONPATH relative to the caller's
    # directory, which the script leaves for a scratch one
    script = Path(__file__).with_name("cli_smoke.sh")
    src = Path(copdep.__file__).resolve().parents[1]
    proc = subprocess.run(
        ["sh", str(script), sys.executable, "-m", "copdep.cli"],
        cwd=src.parent, env=dict(os.environ, PYTHONPATH=src.name),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
