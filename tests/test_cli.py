import csv

import pytest
from click.testing import CliRunner

from qubitcc import cli, oracle
from qubitcc.cli import RunConfig, main, run_scheme
from qubitcc.morse import morse_energy
from qubitcc.pauli import PauliSum, ReferenceState

from conftest import DATA_DIR, HUND_FCIDUMP, clear_shape_caches, fresh_interpreter

R10 = str(DATA_DIR / "h2_r1.fcidump")
R12 = str(DATA_DIR / "h2_r1p2.fcidump")
R14 = str(DATA_DIR / "h2_r1p4.fcidump")
R18 = str(DATA_DIR / "h2_r1p8.fcidump")
R24 = str(DATA_DIR / "h2_r2p4.fcidump")

# oracle ground energies at %.12g, frozen once from the dense diagonalizer
FCI_R10 = "-1.0789697692"
FCI_R14 = "-1.13727594362"
FCI_R24 = "-1.04148933841"
HF_R14 = "-1.11671432506"


# the r = 1.4 fixture with each orbital energy lowered by 1 Eh: its
# whole-space ground state has another electron count
SHIFTED_N2 = "-3.13727594362"
SHIFTED_ALL = "-3.44644655679"


@pytest.fixture()
def shifted_h2(tmp_path):
    lines = []
    with open(R14, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            parts = line.split()
            if len(parts) == 5 and parts[1] == parts[2] != "0" and parts[3:] == ["0", "0"]:
                line = " ".join([repr(float(parts[0]) - 1.0)] + parts[1:])
            lines.append(line)
    path = tmp_path / "h2_shifted.fcidump"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def h2_text(tmp_path, runner):
    out = tmp_path / "h2.txt"
    res = runner.invoke(main, ["transform", R14, "-o", str(out)])
    assert res.exit_code == 0, res.output
    return str(out)


def ok(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    return res


class TestTransform:
    def test_stdout_header_and_terms(self, runner):
        res = ok(runner, ["transform", R14])
        assert "# qubits: 4" in res.output
        assert "# electrons: 2" in res.output
        assert "# terms: 15" in res.output
        assert "Z2 Z3" in res.output
        assert "X0 Y1 Y2 X3" in res.output

    def test_file_output_round_trips(self, runner, tmp_path, h2_text):
        with open(h2_text, "r", encoding="utf-8") as fh:
            h = PauliSum.from_text(fh.read())
        assert h.n == 4
        assert len(h) == 15

    def test_reports_written_terms(self, runner, tmp_path):
        out = tmp_path / "h.txt"
        res = ok(runner, ["transform", R14, "-o", str(out)])
        assert f"wrote 15 terms on 4 qubits to {out}" in res.output

    def test_spin_penalty_adds_terms_but_not_reference_energy(self, runner, tmp_path):
        plain = tmp_path / "plain.txt"
        pen = tmp_path / "pen.txt"
        ok(runner, ["transform", R14, "-o", str(plain)])
        res = ok(runner, ["transform", R14, "--mu", "0.5", "-o", str(pen)])
        assert "wrote 19 terms" in res.output
        ref = ReferenceState(4, 2)
        with open(plain, encoding="utf-8") as fh:
            e_plain = ref.expectation(PauliSum.from_text(fh.read()))
        with open(pen, encoding="utf-8") as fh:
            e_pen = ref.expectation(PauliSum.from_text(fh.read()))
        # the closed-shell reference carries no spin contamination
        assert e_pen == pytest.approx(e_plain, abs=1e-12)


class TestScreen:
    def test_single_sector(self, runner, h2_text):
        res = ok(runner, ["screen", h2_text, "--n-elec", "2"])
        lines = res.output.strip().splitlines()
        assert lines[0].split() == ["rank", "gradient", "x-word"]
        assert len(lines) == 2
        assert "X0 X1 X2 X3" in lines[1]
        assert "0.181257914793" in lines[1]

    def test_top_limits_rows(self, runner, h2_text):
        res = ok(runner, ["screen", h2_text, "--n-elec", "2", "--top", "1"])
        assert len(res.output.strip().splitlines()) == 2

    def test_negative_top_rejected(self, runner, h2_text):
        res = runner.invoke(main, ["screen", h2_text, "--n-elec", "2", "--top", "-1"])
        assert res.exit_code == 2
        assert "Invalid value for '--top'" in res.output

    def test_n_elec_required(self, runner, h2_text):
        res = runner.invoke(main, ["screen", h2_text])
        assert res.exit_code == 2
        assert "Missing option '--n-elec'" in res.output


class TestAcset:
    def test_generator_listing(self, runner, h2_text):
        res = ok(runner, ["acset", h2_text, "--n-elec", "2"])
        assert "1 generators from 1 ranked X words on 4 qubits" in res.output
        assert "primary" in res.output
        assert "Y0 X1 X2 X3" in res.output

    def test_max_generators_zero(self, runner, h2_text):
        res = ok(runner, ["acset", h2_text, "--n-elec", "2", "--max-generators", "0"])
        assert "0 generators" in res.output


class TestExact:
    def test_ground_and_reference(self, runner, h2_text):
        res = ok(runner, ["exact", h2_text, "--n-elec", "2"])
        assert f"ground energy: {FCI_R14}" in res.output
        assert f"reference energy: {HF_R14}" in res.output

    def test_reference_line_optional(self, runner, h2_text):
        res = ok(runner, ["exact", h2_text])
        assert "ground energy" in res.output
        assert "reference energy" not in res.output

    def test_n_elec_solves_the_sector(self, runner, tmp_path, shifted_h2):
        text = tmp_path / "shifted.txt"
        ok(runner, ["transform", shifted_h2, "-o", str(text)])
        res = ok(runner, ["exact", str(text), "--n-elec", "2"])
        assert f"ground energy: {SHIFTED_N2}" in res.output
        res = ok(runner, ["exact", str(text)])
        assert f"ground energy: {SHIFTED_ALL}" in res.output

    def test_whole_space_above_the_dense_cap_needs_n_elec(self, runner, tmp_path):
        fcidump = tmp_path / "norb8.fcidump"
        # orbital 8 lies on qubits 14 and 15, so the text spans 16 qubits
        fcidump.write_text("&FCI NORB=8,NELEC=2 &END\n-0.5 8 8 0 0\n", encoding="utf-8")
        text = tmp_path / "norb8.txt"
        ok(runner, ["transform", str(fcidump), "-o", str(text)])
        res = runner.invoke(main, ["exact", str(text)])
        assert res.exit_code == 2, res.output
        assert "the whole-space solve is capped at 14 qubits and this Hamiltonian has 16" \
            in res.output
        res = ok(runner, ["exact", str(text), "--n-elec", "2"])
        assert "ground energy: -1\n" in res.output

    def test_header_width_survives_the_text_round_trip(self, runner, tmp_path):
        # only orbital 1 (qubits 0 and 1) has an integral, at +0.5 Eh, so two
        # electrons cost 1 Eh on 2 qubits and nothing on the 16 the header declares
        fcidump = tmp_path / "norb8.fcidump"
        fcidump.write_text("&FCI NORB=8,NELEC=2 &END\n0.5 1 1 0 0\n", encoding="utf-8")
        text = tmp_path / "norb8.txt"
        ok(runner, ["transform", str(fcidump), "-o", str(text)])
        assert "# qubits: 16\n" in text.read_text(encoding="utf-8")
        for width in ([], ["--n-qubits", "16"]):
            res = ok(runner, ["exact", str(text), "--n-elec", "2", *width])
            assert "ground energy: 0\n" in res.output
        res = ok(runner, ["exact", str(text), "--n-elec", "2", "--n-qubits", "2"])
        assert "ground energy: 1\n" in res.output


class TestIqcc:
    def test_trajectory_and_checkpoints(self, runner, tmp_path, h2_text):
        ckpt = tmp_path / "ckpt"
        res = ok(runner, ["iqcc", h2_text, "--n-elec", "2", "--gens", "2",
                          "--iterations", "5", "--checkpoint-dir", str(ckpt)])
        lines = res.output.strip().splitlines()
        assert lines[1].split()[0] == "0"
        assert HF_R14 in lines[1]
        assert "converged: yes" in res.output
        assert f"energy: {FCI_R14}" in res.output
        files = sorted(p.name for p in ckpt.iterdir())
        assert files == ["iteration_001.txt"]
        text = (ckpt / files[0]).read_text(encoding="utf-8")
        assert "# energy:" in text
        assert PauliSum.from_text(text).n == 4


class TestIlcap:
    def test_pre_scheme_labels(self, runner, h2_text):
        res = ok(runner, ["ilcap", h2_text, "--n-elec", "2"])
        for label in ("E_ILCAP ", "E_ILCAP+BW", "E_ILCAP+EN"):
            assert label in res.output
        assert res.output.count(FCI_R14) == 3

    def test_post_scheme_labels(self, runner, h2_text):
        res = ok(runner, ["ilcap", h2_text, "--n-elec", "2",
                          "--scheme", "ilcap-post", "--iterations", "2"])
        for label in ("E_QCC(2) ", "E_QCC(2)+EN", "E_QCC(2)+ILCAP ", "E_QCC(2)+ILCAP+BW"):
            assert label in res.output
        assert res.output.count(FCI_R14) == 4


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestScan:
    def test_three_point_scan(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        res = ok(runner, ["scan", R10, R14, R24, "--radii", "1.0,1.4,2.4",
                          "-o", str(out)])
        assert "wrote 3 rows" in res.output
        rows = read_csv(out)
        assert rows[0] == ["r", "E_ILCAP", "E_ILCAP+BW", "E_ILCAP+EN", "E_exact"]
        assert [row[0] for row in rows[1:]] == ["1", "1.4", "2.4"]
        assert [row[-1] for row in rows[1:]] == [FCI_R10, FCI_R14, FCI_R24]

    def test_rows_sorted_by_radius(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        ok(runner, ["scan", R24, R10, "--radii", "2.4,1.0", "-o", str(out)])
        rows = read_csv(out)
        assert [row[0] for row in rows[1:]] == ["1", "2.4"]

    def test_workers_agree(self, runner, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        args = ["scan", R10, R14, R24, "--radii", "1.0,1.4,2.4", "--scheme", "iqcc",
                "--gens", "2", "--iterations", "5"]
        ok(runner, args + ["-o", str(serial)])
        ok(runner, args + ["-o", str(parallel), "--workers", "2"])
        assert serial.read_text() == parallel.read_text()

    def test_kept_plans_leave_the_csv_unchanged(self, runner, tmp_path):
        h4 = str(DATA_DIR / "h4_r2p0.fcidump")
        args = ["scan", R10, R12, R14, R18, R24, h4, "--radii", "1.0,1.2,1.4,1.8,2.4,2.0"]
        runs = []
        # cold, then warm in this process; then two worker processes that start
        # with nothing kept and build their own plans and tables; then cold again
        for extra, cold in (([], True), ([], False), (["--workers", "2"], True), ([], True)):
            if cold:
                clear_shape_caches()
            out = tmp_path / f"scan{len(runs)}.csv"
            ok(runner, args + ["-o", str(out)] + extra)
            runs.append(out.read_bytes())
        clear_shape_caches()
        assert runs[1:] == runs[:1] * 3

    def test_radii_count_mismatch(self, runner, tmp_path):
        res = runner.invoke(main, ["scan", R10, "--radii", "1.0,1.4",
                                   "-o", str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert "1 FCIDUMP files but 2 radii" in res.output

    def test_malformed_radii(self, runner, tmp_path):
        res = runner.invoke(main, ["scan", R10, "--radii", "1.0;1.4",
                                   "-o", str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert "comma-separated" in res.output

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", " NaN "])
    def test_non_finite_radius_is_usage_error(self, runner, tmp_path, token):
        out = tmp_path / "x.csv"
        res = runner.invoke(main, ["scan", R10, R12, R14, R18, "--radii",
                                   f"{token},1.2,1.4,1.8", "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert f"finite numbers, got {token.strip()!r}" in res.output
        assert not out.exists()

    def test_bad_point_leaves_empty_cells(self, runner, tmp_path):
        bad = tmp_path / "broken.fcidump"
        bad.write_text("not an fcidump\n", encoding="utf-8")
        out = tmp_path / "partial.csv"
        res = ok(runner, ["scan", R10, str(bad), "--radii", "1.0,1.4", "-o", str(out)])
        assert "warning" in res.output
        rows = read_csv(out)
        assert rows[1][0] == "1" and rows[1][-1] == FCI_R10
        assert rows[2][0] == "1.4" and all(cell == "" for cell in rows[2][1:])


    def test_exact_column_is_the_reference_sector(self, runner, tmp_path, shifted_h2):
        out = tmp_path / "scan.csv"
        ok(runner, ["scan", shifted_h2, "--radii", "1.4", "-o", str(out)])
        rows = read_csv(out)
        assert rows[0][-1] == "E_exact"
        assert rows[1][-1] == SHIFTED_N2

    def test_estimator_failure_keeps_exact(self, runner, tmp_path, monkeypatch):
        calls = []

        def first_call_diverges(h, ref, cfg):
            calls.append(cfg)
            if len(calls) == 1:
                raise RuntimeError("fixed point diverging")
            return run_scheme(h, ref, cfg)

        monkeypatch.setattr(cli, "run_scheme", first_call_diverges)
        out = tmp_path / "scan.csv"
        res = ok(runner, ["scan", R14, R10, "--radii", "1.4,1.0", "-o", str(out)])
        assert f"warning: {R10}: fixed point diverging" in res.output
        rows = read_csv(out)
        assert rows[0] == ["r", "E_ILCAP", "E_ILCAP+BW", "E_ILCAP+EN", "E_exact"]
        assert rows[1] == ["1", "", "", "", FCI_R10]
        assert rows[2][0] == "1.4" and rows[2][-1] == FCI_R14
        assert all(rows[2][1:])

    def test_oracle_failure_keeps_estimators(self, runner, tmp_path, monkeypatch):
        def broken(data, **kwargs):
            raise ValueError("no convergence")

        monkeypatch.setattr(cli, "fci_ground_energy", broken)
        out = tmp_path / "scan.csv"
        res = ok(runner, ["scan", R10, "--radii", "1.0", "-o", str(out)])
        assert f"warning: {R10}: E_exact: no convergence" in res.output
        rows = read_csv(out)
        assert rows[0] == ["r", "E_ILCAP", "E_ILCAP+BW", "E_ILCAP+EN"]
        assert all(rows[1])

    def test_spin_penalty_oracle_failure_keeps_estimators(self, runner, tmp_path, monkeypatch):
        def broken(h, **kwargs):
            raise ValueError("no convergence")

        monkeypatch.setattr(oracle, "ground_energy", broken)
        out = tmp_path / "scan.csv"
        res = ok(runner, ["scan", R10, "--radii", "1.0", "--mu", "0.5", "-o", str(out)])
        assert f"warning: {R10}: E_exact: no convergence" in res.output
        assert read_csv(out)[0] == ["r", "E_ILCAP", "E_ILCAP+BW", "E_ILCAP+EN"]

    def test_spin_penalty_oracle_cap_is_a_warning(self, runner, tmp_path, monkeypatch):
        # the oracle's own size cap refuses the point, and its message is the warning
        monkeypatch.setattr(oracle, "SECTOR_STATE_CAP", 2)
        out = tmp_path / "scan.csv"
        res = ok(runner, ["scan", R10, "--radii", "1.0", "--mu", "0.5", "-o", str(out)])
        assert f"warning: {R10}: E_exact: " in res.output
        assert "capped at 2" in res.output
        rows = read_csv(out)
        assert rows[0] == ["r", "E_ILCAP", "E_ILCAP+BW", "E_ILCAP+EN"]
        assert all(rows[1])

    def test_spin_penalty_keeps_the_pauli_sector_oracle(self, runner, tmp_path):
        # the lowest 2-electron state is a triplet, which mu/2 W lifts above the singlet
        path = tmp_path / "hund.fcidump"
        path.write_text(HUND_FCIDUMP, encoding="utf-8")
        out = tmp_path / "scan.csv"
        ok(runner, ["scan", str(path), "--radii", "1.0", "--scheme", "iqcc", "-o", str(out)])
        assert read_csv(out)[1][-1] == "0.55"
        ok(runner, ["scan", str(path), R10, R14, "--radii", "1.0,1.1,1.4", "--mu", "0.5",
                    "--scheme", "iqcc", "-o", str(out)])
        # the cells of the oracle-only scan, at %.12g
        assert [row[-1] for row in read_csv(out)[1:]] == ["0.75", FCI_R10, FCI_R14]


class TestFitMorse:
    def test_fits_scan_output(self, runner, tmp_path):
        out = tmp_path / "scan5.csv"
        ok(runner, ["scan", R10, R12, R14, R18, R24,
                    "--radii", "1.0,1.2,1.4,1.8,2.4", "-o", str(out),
                    "--scheme", "iqcc", "--gens", "2", "--iterations", "5"])
        res = ok(runner, ["fit-morse", str(out), "--column", "E_exact",
                          "--mu-amu", "0.503913"])
        values = {}
        for line in res.output.strip().splitlines():
            key, _, tail = line.partition(":")
            values[key.split("(")[0].strip()] = float(tail)
        assert values["D_e"] > 0
        assert values["r_e"] == pytest.approx(1.394, abs=0.05)
        assert values["E_min"] == pytest.approx(-1.1377, abs=2e-3)
        assert values["omega_e"] > 0

    def test_scan_and_fit_leave_out_scipy(self, tmp_path):
        # E_exact from dense blocks (H2) and from Davidson (H6), then the Morse fit
        h2, h6 = str(tmp_path / "h2.csv"), str(tmp_path / "h6.csv")
        h6_fcidump = str(DATA_DIR / "h6_r1p805.fcidump")
        check = (
            "import sys; "
            "from qubitcc.cli import main; "
            f"main(['scan', {R10!r}, {R12!r}, {R14!r}, {R18!r}, {R24!r}, "
            f"'--radii', '1.0,1.2,1.4,1.8,2.4', '-o', {h2!r}], standalone_mode=False); "
            f"main(['fit-morse', {h2!r}, '--mu-amu', '0.503913'], standalone_mode=False); "
            f"main(['scan', {h6_fcidump!r}, '--radii', '1.805', '-o', {h6!r}], "
            "standalone_mode=False); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = fresh_interpreter(check).splitlines()
        assert out[-1] == "[]"
        assert any(line.startswith("omega_e (cm^-1):") for line in out)
        assert read_csv(h6)[0][-1] == "E_exact" and read_csv(h6)[1][-1]

    def test_empty_cells_skipped(self, runner, tmp_path):
        r = [1.0, 1.4, 1.8, 2.2, 2.6, 3.0]
        e = morse_energy(r, 0.2, 1.0, 1.6, -1.1)
        src = tmp_path / "sparse.csv"
        with open(src, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "E_model"])
            for i, (ri, ei) in enumerate(zip(r, e)):
                writer.writerow([ri, "" if i == 3 else f"{ei:.15g}"])
        res = ok(runner, ["fit-morse", str(src), "--column", "E_model",
                          "--mu-amu", "1.0"])
        assert "D_e (hartree):        0.2" in res.output

    def test_missing_column(self, runner, tmp_path):
        src = tmp_path / "scan.csv"
        src.write_text("r,E_exact\n1.0,-1.0\n", encoding="utf-8")
        res = runner.invoke(main, ["fit-morse", str(src), "--column", "E_other",
                                   "--mu-amu", "1.0"])
        assert res.exit_code == 2
        assert "E_other" in res.output

    def test_missing_radius_column(self, runner, tmp_path):
        src = tmp_path / "scan.csv"
        src.write_text("R,E_exact\n1.0,-1.0\n", encoding="utf-8")
        res = runner.invoke(main, ["fit-morse", str(src), "--mu-amu", "1.0"])
        assert res.exit_code == 2
        assert "column 'r' not present" in res.output

    @pytest.mark.parametrize("rows, message", [
        ([(1.0, -1.0), (1.4, -1.1), (1.8, -1.05)], "needs at least four points"),
        ([(1.0, -1.0), (1.4, "abc"), (1.8, -1.05), (2.2, -1.0)],
         "could not convert string to float: 'abc'"),
        ([(1.0, -1.0), (1.4, -1.1), (1.4, -1.05), (2.2, -1.0)], "must be distinct"),
    ], ids=["three-points", "not-a-number", "repeated-radius"])
    def test_bad_points_are_usage_errors(self, runner, tmp_path, rows, message):
        src = tmp_path / "bad.csv"
        src.write_text("r,E\n" + "".join(f"{r},{e}\n" for r, e in rows), encoding="utf-8")
        res = runner.invoke(main, ["fit-morse", str(src), "--column", "E", "--mu-amu", "1.0"])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # click's exit, not a traceback
        assert f"Invalid value for 'SCAN_CSV': {src}: " in res.output
        assert message in res.output

    @pytest.mark.parametrize("column", ["r", "E"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_point_is_usage_error(self, runner, tmp_path, column, value):
        rows = [["1.0", "-1.0"], ["1.4", "-1.1"], ["1.8", "-1.05"], ["2.2", "-1.0"]]
        rows[2][column == "E"] = value
        src = tmp_path / "bad.csv"
        src.write_text("r,E\n" + "".join(f"{r},{e}\n" for r, e in rows), encoding="utf-8")
        res = runner.invoke(main, ["fit-morse", str(src), "--column", "E", "--mu-amu", "1.0"])
        assert res.exit_code == 2, res.output
        assert f"Invalid value for 'SCAN_CSV': {src}: " in res.output
        assert "must be finite" in res.output

    def test_mu_amu_required(self, runner, tmp_path):
        src = tmp_path / "scan.csv"
        src.write_text("r,E_exact\n1.0,-1.0\n", encoding="utf-8")
        res = runner.invoke(main, ["fit-morse", str(src)])
        assert res.exit_code == 2
        assert "Missing option '--mu-amu'" in res.output

    def test_failed_fit_is_one_line_error(self, runner, tmp_path):
        src = tmp_path / "flat.csv"
        src.write_text("r,E\n" + "".join(f"{r},-1.0\n" for r in (1.0, 1.5, 2.0, 2.5)),
                       encoding="utf-8")
        res = runner.invoke(main, ["fit-morse", str(src), "--column", "E", "--mu-amu", "1.0"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == f"Error: {src}: Morse fit landed on a non-physical well\n"


class TestBadInput:
    """Malformed input files and out-of-range values are usage errors: exit 2, no traceback."""

    @staticmethod
    def usage_error(runner, args, message):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # click's exit, not a ValueError
        assert message in res.output

    def test_malformed_text_hamiltonian(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 Q0\n", encoding="utf-8")
        self.usage_error(runner, ["exact", str(path)],
                         "Invalid value for 'HAMILTONIAN': line 1: bad factor 'Q0'")
        path.write_bytes(b"1.0 Z0\n\xff\xfe\n")
        self.usage_error(runner, ["exact", str(path)], "can't decode byte 0xff")

    def test_header_narrower_than_an_index(self, runner, tmp_path):
        path = tmp_path / "narrow.txt"
        path.write_text("# qubits: 2\n1.0 Z0\n0.5 Z5\n", encoding="utf-8")
        self.usage_error(runner, ["exact", str(path)],
                         "qubit index 5 outside the declared 2 qubits")

    def test_text_hamiltonian_past_the_sum_width(self, runner, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("1.0 Z0 X64\n", encoding="utf-8")
        self.usage_error(runner, ["screen", str(path), "--n-elec", "1"],
                         "a Pauli sum spans 1 to 64 qubits, got 65")

    def test_n_elec_outside_register(self, runner, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("1.0 Z0\n0.5 X0 X1\n", encoding="utf-8")
        for command in ("exact", "iqcc"):
            self.usage_error(runner, [command, str(path), "--n-elec", "5"],
                             "Invalid value for '--n-elec': n_elec must lie in 0..2")

    def test_exact_sector_not_conserved(self, runner, tmp_path):
        path = tmp_path / "x0.txt"
        path.write_text("0.5 X0\n", encoding="utf-8")
        self.usage_error(runner, ["exact", str(path), "--n-elec", "1"],
                         "does not conserve the electron count")

    def test_malformed_fcidump_line(self, runner, tmp_path):
        lines = open(R14, encoding="utf-8").read().splitlines()
        lines.insert(-1, "0.5 1 x 0 0")
        path = tmp_path / "bad.fcidump"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.usage_error(runner, ["transform", str(path)],
                         "Invalid value for 'FCIDUMP': integral line")

    @staticmethod
    def non_finite_fcidump(tmp_path, value):
        """The r = 1.4 fixture with its (11|11) integral, file line 5, replaced by value."""
        lines = open(R14, encoding="utf-8").read().splitlines()
        at = next(i for i, line in enumerate(lines) if line.split()[1:] == ["1", "1", "1", "1"])
        lines[at] = f"{value} 1 1 1 1"
        path = tmp_path / f"{value}.fcidump"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1D999"])
    def test_non_finite_fcidump_integral(self, runner, tmp_path, value):
        path = self.non_finite_fcidump(tmp_path, value)
        self.usage_error(runner, ["transform", path],
                         f"Invalid value for 'FCIDUMP': integral line 5: non-finite value '{value}'")

    def test_scan_warns_for_a_non_finite_integral(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        res = ok(runner, ["scan", R10, self.non_finite_fcidump(tmp_path, "nan"),
                          "--radii", "1.0,1.4", "-o", str(out)])
        assert "integral line 5: non-finite value 'nan'" in res.output
        rows = read_csv(out)
        assert rows[1][-1] == FCI_R10
        assert rows[2][0] == "1.4" and all(cell == "" for cell in rows[2][1:])

    @staticmethod
    def over_cap_fcidump(tmp_path):
        path = tmp_path / "norb33.fcidump"
        path.write_text("&FCI NORB=33,NELEC=2 &END\n0.5 1 1 0 0\n", encoding="utf-8")
        return str(path)

    def test_fcidump_above_the_orbital_cap(self, runner, tmp_path):
        self.usage_error(runner, ["transform", self.over_cap_fcidump(tmp_path)],
                         "Invalid value for 'FCIDUMP': NORB=33 is above the cap of 32 orbitals (64 qubits)")

    def test_scan_warns_for_an_fcidump_above_the_orbital_cap(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        res = ok(runner, ["scan", R10, self.over_cap_fcidump(tmp_path),
                          "--radii", "1.0,1.4", "-o", str(out)])
        assert "NORB=33 is above the cap of 32 orbitals" in res.output
        rows = read_csv(out)
        assert rows[1][-1] == FCI_R10
        assert rows[2][0] == "1.4" and all(cell == "" for cell in rows[2][1:])

    @pytest.mark.parametrize("command", ["ilcap", "exact"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_text_coefficient(self, runner, tmp_path, h2_text, command, value):
        path = tmp_path / "bad.txt"
        text = open(h2_text, encoding="utf-8").read()
        path.write_text(text + f"{value} Z0 Z1\n", encoding="utf-8")
        line = len(text.splitlines()) + 1
        self.usage_error(runner, [command, str(path), "--n-elec", "2"],
                         f"line {line}: non-finite coefficient '{value}'")


class TestIntegerBounds:
    """Out-of-range integer flags and INI values are usage errors, not tracebacks."""

    @pytest.mark.parametrize("command, options, ini, flag", [
        ("ilcap", ["--scheme", "ilcap-post", "--gens", "0"], "", "--gens"),
        ("ilcap", ["--iterations", "-1"], "", "--iterations"),
        ("ilcap", ["--max-generators", "-1"], "", "--max-generators"),
        ("ilcap", [], "gens = 0\n", "--gens"),
        ("iqcc", ["--gens", "0"], "", "--gens"),
        ("iqcc", ["--iterations", "-1"], "", "--iterations"),
        ("acset", ["--max-generators", "-1"], "", "--max-generators"),
        ("scan", ["--workers", "-2"], "", "--workers"),
    ], ids=["ilcap-gens", "ilcap-iterations", "ilcap-max-generators", "ini-gens",
            "iqcc-gens", "iqcc-iterations", "acset-max-generators", "scan-workers"])
    def test_out_of_range_rejected(self, runner, tmp_path, h2_text, command, options, ini,
                                   flag):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\n" + ini, encoding="utf-8")
        if command == "scan":
            target = [R14, "--radii", "1.4", "-o", str(tmp_path / "scan.csv")]
        else:
            target = [h2_text, "--n-elec", "2"]
        res = runner.invoke(main, ["--config", str(cfg), command, *target, *options])
        assert res.exit_code == 2
        assert f"Invalid value for '{flag}'" in res.output


class TestToleranceBounds:
    """nan, inf and out-of-range float values are usage errors, not silent wrong answers."""

    @pytest.mark.parametrize("command, options, ini, flag", [
        ("iqcc", ["--grad-tol", "nan"], "", "--grad-tol"),
        ("iqcc", ["--trunc-threshold", "inf"], "", "--trunc-threshold"),
        ("iqcc", ["--grad-tol", "-1e-9"], "", "--grad-tol"),
        ("ilcap", ["--scheme", "ilcap-post", "--trunc-threshold", "nan"], "",
         "--trunc-threshold"),
        ("ilcap", ["--grad-tol", "inf"], "", "--grad-tol"),
        ("ilcap", [], "grad_tol = nan\n", "--grad-tol"),
        ("scan", ["--trunc-threshold", "-1"], "", "--trunc-threshold"),
        ("scan", ["--mu", "inf"], "", "--mu"),
        ("fit-morse", ["--mu-amu", "nan"], "", "--mu-amu"),
        ("transform", ["--drop-threshold", "nan"], "", "--drop-threshold"),
        ("transform", ["--mu", "nan"], "", "--mu"),
    ], ids=["iqcc-grad-nan", "iqcc-trunc-inf", "iqcc-grad-negative", "ilcap-trunc-nan",
            "ilcap-grad-inf", "ini-grad-nan", "scan-trunc-negative", "scan-mu-inf",
            "fit-morse-mu-nan", "transform-drop-nan", "transform-mu-nan"])
    def test_rejected(self, runner, tmp_path, h2_text, command, options, ini, flag):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\n" + ini, encoding="utf-8")
        if command == "scan":
            target = [R14, "--radii", "1.4", "-o", str(tmp_path / "scan.csv")]
        elif command == "transform":
            target = [R14]
        elif command == "fit-morse":
            src = tmp_path / "scan.csv"
            src.write_text("r,E_exact\n1.0,-1.0\n", encoding="utf-8")
            target = [str(src)]
        else:
            target = [h2_text, "--n-elec", "2"]
        res = runner.invoke(main, ["--config", str(cfg), command, *target, *options])
        assert res.exit_code == 2, res.output
        assert f"Invalid value for '{flag}'" in res.output


class TestConfig:
    def test_run_section_fallback(self, runner, tmp_path, h2_text):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nn_elec = 2\n", encoding="utf-8")
        res = ok(runner, ["--config", str(cfg), "screen", h2_text])
        assert "X0 X1 X2 X3" in res.output

    @pytest.mark.parametrize("command", ["screen", "acset", "iqcc", "ilcap"])
    def test_config_n_elec_satisfies_the_required_option(self, runner, tmp_path, h2_text,
                                                         command):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{command}]\nn_elec = 2\n", encoding="utf-8")
        res = ok(runner, ["--config", str(cfg), command, h2_text])
        assert res.output == ok(runner, [command, h2_text, "--n-elec", "2"]).output
        missing = runner.invoke(main, [command, h2_text])
        assert missing.exit_code == 2
        assert "Missing option '--n-elec'" in missing.output

    def test_config_mu_amu_satisfies_the_required_option(self, runner, tmp_path):
        r = [1.0 + 0.3 * i for i in range(8)]
        src = tmp_path / "scan.csv"
        src.write_text("r,E_exact\n" + "".join(
            f"{ri},{ei:.17g}\n" for ri, ei in zip(r, morse_energy(r, 0.2, 1.1, 1.5, -1.0))),
            encoding="utf-8")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[fit-morse]\nmu_amu = 0.503913\n", encoding="utf-8")
        res = ok(runner, ["--config", str(cfg), "fit-morse", str(src)])
        assert res.output == ok(runner, ["fit-morse", str(src), "--mu-amu", "0.503913"]).output

    def test_command_section_beats_run(self, runner, tmp_path, h2_text):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[run]\nn_elec = 2\niterations = 7\n\n"
            "[ilcap]\nscheme = ilcap-post\niterations = 2\n",
            encoding="utf-8",
        )
        res = ok(runner, ["--config", str(cfg), "ilcap", h2_text])
        assert "E_QCC(2)" in res.output
        assert "E_QCC(7)" not in res.output

    def test_flag_beats_config(self, runner, tmp_path, h2_text):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nn_elec = 2\n\n[ilcap]\nscheme = ilcap-post\n",
                       encoding="utf-8")
        res = ok(runner, ["--config", str(cfg), "ilcap", h2_text,
                          "--scheme", "ilcap-pre"])
        assert "E_ILCAP" in res.output
        assert "E_QCC" not in res.output

    @pytest.mark.parametrize("command", ["iqcc", "ilcap", "scan"])
    def test_seed_is_no_option(self, runner, tmp_path, h2_text, command):
        # no solver draws random numbers, so there is no seed to set
        if command == "scan":
            target = [R14, "--radii", "1.4", "-o", str(tmp_path / "scan.csv")]
        else:
            target = [h2_text, "--n-elec", "2"]
        res = runner.invoke(main, [command, *target, "--seed", "1"])
        assert res.exit_code == 2, res.output
        assert "No such option" in res.output and "--seed" in res.output

    @pytest.mark.parametrize("command", ["iqcc", "ilcap"])
    def test_ini_seed_is_ignored(self, runner, tmp_path, h2_text, command):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nseed = 0\n", encoding="utf-8")
        plain = ok(runner, [command, h2_text, "--n-elec", "2"])
        res = ok(runner, ["--config", str(cfg), command, h2_text, "--n-elec", "2"])
        assert res.output == plain.output

    @pytest.mark.parametrize("text, command, flag", [
        ("[run]\nn_elec = 2\n\n[ilcap]\nscheme = iqcc\n", "ilcap", "--scheme"),
        ("[run]\nn_elec = two\n", "screen", "--n-elec"),
    ], ids=["choice", "type"])
    def test_config_values_checked_like_flags(self, runner, tmp_path, h2_text,
                                              text, command, flag):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text, encoding="utf-8")
        res = runner.invoke(main, ["--config", str(cfg), command, h2_text])
        assert res.exit_code == 2
        assert f"Invalid value for '{flag}'" in res.output

    @pytest.mark.parametrize("text", [
        "n_elec = 2\n",
        "[run]\nn_elec = 2%\n",
    ], ids=["no-section", "interpolation"])
    def test_malformed_config_is_usage_error(self, runner, tmp_path, h2_text, text):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text, encoding="utf-8")
        res = runner.invoke(main, ["--config", str(cfg), "screen", h2_text])
        assert res.exit_code == 2
        assert "Invalid value for '--config'" in res.output


class TestRunScheme:
    def test_unknown_scheme(self, h2_text):
        with open(h2_text, encoding="utf-8") as fh:
            h = PauliSum.from_text(fh.read())
        with pytest.raises(ValueError, match="scheme"):
            run_scheme(h, ReferenceState(4, 2), RunConfig(scheme="qpe"))

    def test_families_agree_on_two_determinant_problem(self, h2_text):
        with open(h2_text, encoding="utf-8") as fh:
            h = PauliSum.from_text(fh.read())
        ref = ReferenceState(4, 2)
        exact = -1.137275943617
        pre = run_scheme(h, ref, RunConfig(scheme="ilcap-pre"))
        post = run_scheme(h, ref, RunConfig(
            scheme="ilcap-post", generators_per_iteration=2, iterations=3))
        plain = run_scheme(h, ref, RunConfig(
            scheme="iqcc", generators_per_iteration=2, iterations=3))
        for family in (pre, post, plain):
            for value in family.values():
                assert value == pytest.approx(exact, abs=1e-9)
