import csv
import math
import os
import subprocess
import sys

import pytest

import gffpin

from gffpin import cli, pinning
from gffpin.walk import write_kernel_file

ZETA_HALF = -1.4603545088095868  # zeta(1/2)


def _run(tmp_path, command, config, *extra):
    path = tmp_path / f"{command}.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    return cli.main([command, str(path), "--output-dir", str(out), *extra]), out


@pytest.fixture
def srw2_file(tmp_path):
    path = tmp_path / "srw2.kernel"
    write_kernel_file(path, [((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 1.0),
                             ((0, -1), 1.0)], 2)
    return path


def _manifest(out):
    with open(out / "manifest.txt") as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh)


class TestValidation:
    @pytest.mark.parametrize("tol", ("0", "-1e-12", "nan"))
    def test_renewal_rejects_nonpositive_tol(self, tmp_path, capsys, tol):
        code, out = _run(tmp_path, "renewal1d",
                         f"eps_list = 0.1\ntol = {tol}\nseed = 1\n")
        assert code == 2
        assert "tol must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ("nan", "inf"))
    def test_rejects_nonfinite_eps(self, tmp_path, eps):
        code, out = _run(tmp_path, "renewal1d", f"eps_list = {eps}\nseed = 1\n")
        assert code == 2
        assert not out.exists()

    def test_sublattice_kernel_is_config_error(self, tmp_path, capsys):
        # {+-(1,1)} generates only the even sublattice of Z^2
        kernel = tmp_path / "diag.kernel"
        write_kernel_file(kernel, [((1, 1), 1.0), ((-1, -1), 1.0)], 2)
        code, out = _run(tmp_path, "kernel-info", f"kernel_file = {kernel}\nseed = 1\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "does not generate" in err
        assert not out.exists()

    def test_unparsable_kernel_is_config_error(self, tmp_path):
        kernel = tmp_path / "bad.kernel"
        kernel.write_text("dim two\n1 0 1.0\n")
        code, _ = _run(tmp_path, "kernel-info", f"kernel_file = {kernel}\nseed = 1\n")
        assert code == 2


class TestHandlerInputs:
    """Input errors that only a handler used to catch, after the manifest
    was written, now stop in validation."""

    @pytest.mark.parametrize("command, body", [
        ("green-probe", "box_radius = 2\nprobes = 0 0 1"),
        ("green-probe", "box_radius = 2\nprobes = 0 0 3 0"),
        ("green-probe", "box_radius = 2\npins = 1 0\nprobes = 0 0; 0 0 1 0"),
        ("green-probe", "box_radius = 2\npins = 1\nprobes = 0 0 0 0"),
        ("green-probe", "box_radius = -1\nprobes = 0 0 0 0"),
        ("pins-sample", "box_radius = 1\nepsilon = 0.5\nsweeps = 10\nburnin = 11"),
        ("pins-sample", "box_radius = 1\nepsilon = 0.5\nsweeps = 10\nburnin = -1"),
        ("domination-check",
         "box_radius = 2\nepsilon = 0.3\ntargets = 7 7\nsamples = 10"),
        ("domination-check",
         "box_radius = 2\nepsilon = 0.3\ntargets = 0 0\nsamples = 10\nreplicas = 0"),
        ("box-stability",
         "epsilon = 0.3\nradii = -1 1\nprobe = variance\nsamples = 10"),
    ])
    def test_config_error(self, tmp_path, capsys, srw2_file, command, body):
        code, out = _run(tmp_path, command,
                         f"{body}\nkernel_file = {srw2_file}\nseed = 1\n")
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestPinsSample:
    def test_records_post_burnin_sweeps(self, tmp_path, srw2_file):
        code, out = _run(tmp_path, "pins-sample",
                         "box_radius = 1\nepsilon = 0.5\nsweeps = 10\n"
                         f"burnin = 4\nkernel_file = {srw2_file}\nseed = 3\n")
        assert code == 0
        assert _manifest(out)["status"] == "done"
        with open(out / "pin_samples.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 1 + 9  # sweep, then one column per site
        assert [int(r[0]) for r in rows[1:]] == list(range(5, 11))
        assert all(set(r[1:]) <= {"0", "1"} for r in rows[1:])

    def test_window_radius_is_unknown(self, tmp_path, capsys, srw2_file):
        code, out = _run(tmp_path, "pins-sample",
                         "box_radius = 1\nepsilon = 0.5\nsweeps = 10\n"
                         f"window_radius = 1\nkernel_file = {srw2_file}\n"
                         "seed = 3\n")
        assert code == 2
        assert "unknown key 'window_radius'" in capsys.readouterr().err
        assert not out.exists()


    def test_column_cap_is_resource_error(self, tmp_path, capsys, srw2_file,
                                          monkeypatch):
        monkeypatch.setattr(pinning, "COLUMN_BYTES_CAP", 1024)
        code, out = _run(tmp_path, "pins-sample",
                         "box_radius = 2\nepsilon = 5\nsweeps = 4\n"
                         f"kernel_file = {srw2_file}\nseed = 3\n")
        assert code == 4
        err = capsys.readouterr().err
        assert "resource exceeded" in err and "cap" in err
        assert "Traceback" not in err
        assert not (out / "pin_samples.csv").exists()


@pytest.mark.parametrize("command, body, files", [
    ("variance-scan", "eps_list = 0.3 0.2 0.1\nbudget = 8",
     ("variance_scan_points.csv", "variance_scan_fit.csv")),
    ("mass-scan",
     "eps_list = 0.3 0.2 0.1\nmode = pinning-exact\nbudget = 1\nsamples = 4",
     ("mass_scan_points.csv", "mass_scan_fit.csv")),
])
def test_chain_outputs_independent_of_jobs(tmp_path, srw2_file, command, body,
                                           files):
    config = f"{body}\nkernel_file = {srw2_file}\nseed = 7\n"
    outputs = []
    for jobs in ("1", "2"):
        run_dir = tmp_path / jobs
        run_dir.mkdir()
        code, out = _run(run_dir, command, config, "--jobs", jobs)
        assert code == 0
        outputs.append([(out / f).read_bytes() for f in files])
    assert outputs[0] == outputs[1]


def test_import_leaves_out_scipy_stats():
    src = os.path.dirname(os.path.dirname(gffpin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, gffpin.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


class TestRenewalCommand:
    def _rows(self, out):
        with open(out / "renewal1d.csv") as fh:
            return {float(r["epsilon"]): r for r in csv.DictReader(fh)}

    def test_roadmap_target_eps_1e4(self, tmp_path):
        code, out = _run(tmp_path, "renewal1d", "eps_list = 0.01 0.001 0.0001\nseed = 1\n")
        assert code == 0
        assert _manifest(out)["status"] == "done"
        row = self._rows(out)[1e-4]
        two_term = (math.sqrt(2.0) / 1e-4 - ZETA_HALF / math.sqrt(math.pi)) ** -2
        assert math.isclose(float(row["lambda"]), two_term, rel_tol=1e-6)
        assert abs(float(row["M_times_eps3"]) - 1.0) <= 1e-3
        assert abs(float(row["variance_times_2eps2"]) - 1.0) <= 1e-3

    def test_output_bytes_independent_of_jobs(self, tmp_path):
        config = "eps_list = 0.01 0.001 0.0001\nseed = 1\n"
        outputs = []
        for jobs in ("1", "2"):
            run_dir = tmp_path / jobs
            run_dir.mkdir()
            code, out = _run(run_dir, "renewal1d", config, "--jobs", jobs)
            assert code == 0
            outputs.append((out / "renewal1d.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("eps", ("1e-110", "1e-200", "1e200"))
    def test_overflow_is_numerical_error(self, tmp_path, capsys, eps):
        code, out = _run(tmp_path, "renewal1d", f"eps_list = 0.1 {eps}\nseed = 1\n")
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert _manifest(out)["status"] == "running"
        assert not (out / "renewal1d.csv").exists()
