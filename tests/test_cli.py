import ast
import csv
import hashlib
import inspect
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gffpin

from gffpin import cli, pinning, scaling
from gffpin.green import box_region
from gffpin.stats import Estimate
from gffpin.walk import kernel_from_file
from oracles import empty_probability, within, write_kernel_file

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


@pytest.fixture
def srw2_lazy_file(tmp_path):
    path = tmp_path / "srw2_lazy.kernel"
    write_kernel_file(path, [((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 1.0),
                             ((0, -1), 1.0)], 2, lazify=True)
    return path


@pytest.fixture
def srw3_file(tmp_path):
    path = tmp_path / "srw3.kernel"
    write_kernel_file(path, [((1, 0, 0), 1.0), ((-1, 0, 0), 1.0),
                             ((0, 1, 0), 1.0), ((0, -1, 0), 1.0),
                             ((0, 0, 1), 1.0), ((0, 0, -1), 1.0)], 3)
    return path


def _manifest(out):
    with open(out / "manifest.txt") as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh)


class TestValidation:
    # each was a key with one value in use, and is now a module constant:
    # scaling.POLICY_C, MIN_RADIUS and ETA, and renewal1d.TOL
    @pytest.mark.parametrize("command, body, key", [
        ("variance-scan", "eps_list = 0.3 0.2 0.1\nbudget = 8", "policy_c"),
        ("variance-scan", "eps_list = 0.3 0.2 0.1\nbudget = 8", "min_radius"),
        ("variance-scan", "eps_list = 0.3 0.2 0.1\nbudget = 8", "eta"),
        ("renewal1d", "eps_list = 0.1", "tol"),
    ])
    def test_retired_key_is_unknown(self, tmp_path, capsys, srw2_file,
                                    command, body, key):
        if "kernel_file" in cli.SCHEMAS[command]:
            body += f"\nkernel_file = {srw2_file}"
        code, out = _run(tmp_path, command, f"{body}\n{key} = 1\nseed = 1\n")
        assert code == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
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
    """Every config rule stops a run in validation: exit 2, a "config error"
    naming the rule, and no output directory. The library does not check
    these rules again."""

    @pytest.mark.parametrize("command, body, reason", [
        ("green-probe", "box_radius = 2\nprobes = 0 0 1", "probes entry"),
        ("green-probe", "box_radius = 2\nprobes = 0 0 3 0", "probes entry"),
        ("green-probe", "box_radius = 2\npins = 1 0\nprobes = 0 0; 0 0 1 0",
         "sits on a pin"),
        ("green-probe", "box_radius = 2\npins = 1\nprobes = 0 0 0 0",
         "pins entry"),
        ("green-probe", "box_radius = 2\npins = 1 0 0\nprobes = 0 0 0 0",
         "pins entry"),
        ("green-probe", "box_radius = -1\nprobes = 0 0 0 0",
         "box_radius must be >= 0"),
        ("pins-sample", "box_radius = 1\nepsilon = 0.5\nsweeps = 10\nburnin = 11",
         "burnin must lie"),
        ("pins-sample", "box_radius = 1\nepsilon = 0.5\nsweeps = 10\nburnin = -1",
         "burnin must lie"),
        ("domination-check",
         "box_radius = 2\nepsilon = 0.3\ntargets = 7 7\nsamples = 10",
         "targets entry"),
        ("domination-check",
         "box_radius = 2\nepsilon = 0.3\ntargets = ;\nsamples = 10",
         "bad value for 'targets'"),
        ("domination-check",
         "box_radius = 2\nepsilon = 0.3\ntargets = 0 0; 0 0\nsamples = 40",
         "targets must be distinct"),
        ("domination-check",
         "box_radius = 2\nepsilon = 0.3\ntargets = 0 0\nsamples = 10\nreplicas = 0",
         "replicas must be >= 2"),
        ("domination-check",
         "box_radius = 2\nepsilon = 0.3\ntargets = 0 0\nsamples = 10\nreplicas = 1",
         "replicas must be >= 2"),
        ("box-stability",
         "epsilon = 0.3\nradii = -1 1\nprobe = variance\nsamples = 10",
         "radii must be >= 0"),
        ("box-stability",
         "epsilon = 0.3\nradii = 2 1\nprobe = variance\nsamples = 10",
         "radii must be strictly increasing"),
        ("box-stability",
         "epsilon = 0.3\nradii = 1 2\nprobe = nope\nsamples = 10",
         "probe must be"),
        ("box-stability",
         "epsilon = 0.3\nradii = 1 2\nprobe = variance\nsamples = 10\n"
         "replicas = 1", "replicas must be >= 2"),
        ("variance-scan", "eps_list = 0.3 0.2 0.1\nbudget = 8\nreplicas = 1",
         "replicas must be >= 2"),
        ("variance-scan", "eps_list = 0.3 0.1\nbudget = 8",
         "at least 3 points"),
        ("variance-scan", "eps_list = 0.3 0.1 0.03\nbudget = 8\nbox_radius = 10",
         "below the policy floor"),
        ("mass-scan", "eps_list = 0.3 0.2 0.1\nmode = pinning-exact\n"
                      "budget = 1\nsamples = 4\nregion_radius = 3",
         "region_radius must be >= 6"),
        ("mass-scan", "eps_list = 0.3 0.2 0.1\nmode = pinning-exact\n"
                      "budget = 1\nsamples = 4\nregion_radius = 0",
         "region_radius must be >= 6"),
        ("mass-scan", "eps_list = 0.2 0.1\nbudget = 100", "at least 3 points"),
        ("mass-scan", "eps_list = 0.1 0.2 0.3\nbudget = 100",
         "strictly decreasing"),
        ("mass-scan", "eps_list = 0.3 0.2 0.1\nbudget = 100\nmapping = nope",
         "mapping must be"),
        ("pins-sample", "box_radius = 1\nepsilon = nan\nsweeps = 10",
         "epsilon must be finite"),
        ("renewal1d", "eps_list = 0", "epsilon must be positive"),
        ("renewal1d", "eps_list = 0.1 -0.1", "epsilon must be positive"),
    ])
    def test_config_error(self, tmp_path, capsys, srw2_file, command, body,
                          reason):
        if "kernel_file" in cli.SCHEMAS[command]:
            body += f"\nkernel_file = {srw2_file}"
        code, out = _run(tmp_path, command, f"{body}\nseed = 1\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and reason in err
        assert not out.exists()

    @pytest.mark.parametrize("kernel, body, named", [
        ("srw2_file", "eps_list = 0.9 0.5 0.3", [0.9]),
        # log 1 = 0 in the 2D density eps / sqrt|log eps|
        ("srw2_file", "eps_list = 1 0.5 0.3", [1.0]),
        ("srw3_file", "eps_list = 2 1.5 1.2", [2.0, 1.5, 1.2]),
        ("srw2_file", "eps_list = 1.5 1.2 1.1\nmapping = direct",
         [1.5, 1.2, 1.1]),
    ])
    def test_surrogate_trap_density_below_one(self, tmp_path, capsys, request,
                                              kernel, body, named):
        # the surrogate kills a step with probability the trap density
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = _run(tmp_path, "mass-scan",
                             f"{body}\nbudget = 300\nkernel_file = "
                             f"{request.getfixturevalue(kernel)}\nseed = 1\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert err.count("trap density") == len(named)
        for eps in named:
            assert f"trap density at epsilon {eps!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, body, output", [
        ("green-probe", "box_radius = 1000000000\nprobes = 0 0 1 0",
         "green_probes.csv"),
        # corners beyond int64
        ("green-probe", "box_radius = 10000000000000000000\nprobes = 0 0 1 0",
         "green_probes.csv"),
        ("pins-sample", "box_radius = 2\nepsilon = 0.5\n"
                        "sweeps = 100000000000\nburnin = 0", "pin_samples.csv"),
        # n0 = |log eps|^3 / eps overflows a float
        ("variance-scan", "eps_list = 0.3 0.2 5e-324\nbudget = 8",
         "variance_scan_points.csv"),
        # the pilot pass's survival weights, budget / 4 paths at 5 targets
        ("mass-scan", "eps_list = 0.3 0.2 0.1\nbudget = 100000000000",
         "mass_scan_points.csv"),
    ])
    def test_size_checked_before_allocation(self, tmp_path, capsys, srw2_file,
                                            command, body, output):
        code, out = _run(tmp_path, command,
                         f"{body}\nkernel_file = {srw2_file}\nseed = 1\n")
        assert code == 4
        err = capsys.readouterr().err
        assert "resource exceeded" in err and "Traceback" not in err
        assert not (out / output).exists()

    def test_surrogate_paths_checked_before_drawing(self, tmp_path, capsys,
                                                   monkeypatch, srw3_file):
        # at eps = 1e-6 the 3D pilot pass wants 256 paths of 24,001,029
        # steps (46 GiB); the path ensemble refuses before any draw
        def no_draws(*args):
            raise AssertionError("paths were drawn")

        monkeypatch.setattr(scaling, "replica_rng", no_draws)
        code, out = _run(tmp_path, "mass-scan",
                         "eps_list = 1e-6 5e-7 2e-7\nbudget = 1000\n"
                         f"kernel_file = {srw3_file}\nseed = 1\n")
        assert code == 4
        err = capsys.readouterr().err
        assert "resource exceeded" in err and "Traceback" not in err
        assert not (out / "mass_scan_points.csv").exists()

    @pytest.mark.parametrize("kernel, eps", [
        ("srw3_file", "1e-38"),  # the pilot radius ceil(8 / m) is past int64
        ("srw2_file", "5e-324"),  # the 2D trap density underflows to 0
    ])
    def test_surrogate_window_sized_before_numpy(self, tmp_path, capsys,
                                                 monkeypatch, request,
                                                 kernel, eps):
        # the first two points run; the last stops before its fit window
        # is built
        real = scaling._window

        def window(r_lo, r_hi, points):
            assert r_hi < 2 ** 63, "unchecked window"
            return real(r_lo, r_hi, points)

        monkeypatch.setattr(scaling, "_window", window)
        code, out = _run(tmp_path, "mass-scan",
                         f"eps_list = 0.3 0.2 {eps}\nbudget = 300\n"
                         f"kernel_file = {request.getfixturevalue(kernel)}\n"
                         "seed = 1\n")
        assert code == 4
        err = capsys.readouterr().err
        assert "resource exceeded" in err and "Traceback" not in err
        assert not (out / "mass_scan_points.csv").exists()


# a value for each required key, enough for a run to start
_MINIMAL = {
    "box_radius": "1", "probes": "0 0 1 0", "epsilon": "0.5", "sweeps": "4",
    "eps_list": "0.3 0.2 0.1", "targets": "0 0", "samples": "4",
    "budget": "8", "radii": "1 2", "probe": "variance",
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_config_key_is_filled_and_read(srw2_file, command):
    # `_check` fills in each key the config leaves out, and each key is
    # read by the command's handler or by a config rule: a key that only
    # `SCHEMAS` names is an option that changes nothing
    schema = cli.SCHEMAS[command]
    raw = {key: _MINIMAL[key] for key, (_, default) in schema.items()
           if default is cli.REQUIRED and key != "kernel_file"}
    if "kernel_file" in schema:
        raw["kernel_file"] = str(srw2_file)
    violations, parsed = cli._check(command, dict(raw, seed="1"))
    assert violations == []
    assert set(schema) <= set(parsed)
    handler = inspect.getsource(cli._HANDLERS[command])
    rules = inspect.getsource(cli._check)
    for key in schema:
        assert f'cfg["{key}"]' in handler or f'"{key}"' in rules, key


class TestPinsSample:
    def test_records_post_burnin_sweeps(self, tmp_path, srw2_file):
        code, out = _run(tmp_path, "pins-sample",
                         "box_radius = 1\nepsilon = 0.5\nsweeps = 10\n"
                         f"burnin = 4\nkernel_file = {srw2_file}\nseed = 3\n")
        assert code == 0
        manifest = _manifest(out)
        assert manifest["status"] == "done"
        assert 0.0 <= float(manifest["audit_max_rel_err"]) <= pinning.AUDIT_TOL
        with open(out / "pin_samples.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 1 + 9  # sweep, then one column per site
        assert [int(r[0]) for r in rows[1:]] == list(range(5, 11))
        assert all(set(r[1:]) <= {"0", "1"} for r in rows[1:])

    def test_burnin_equal_to_sweeps_records_nothing(self, tmp_path, srw2_file,
                                                    monkeypatch):
        # every sweep is burn-in: the driver yields nothing, yet still runs
        # the sweeps, and the audit of those sweeps is recorded
        swept, sweep = [], pinning.GibbsChain.sweep

        def count(chain):
            swept.append(chain)
            return sweep(chain)

        monkeypatch.setattr(pinning.GibbsChain, "sweep", count)
        code, out = _run(tmp_path, "pins-sample",
                         "box_radius = 1\nepsilon = 0.5\nsweeps = 10\n"
                         f"burnin = 10\nkernel_file = {srw2_file}\nseed = 3\n")
        assert code == 0
        assert len(swept) == 10
        manifest = _manifest(out)
        assert manifest["status"] == "done"
        assert 0.0 <= float(manifest["audit_max_rel_err"]) <= pinning.AUDIT_TOL
        with open(out / "pin_samples.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 and rows[0][0] == "sweep"

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
        from gffpin import green
        from gffpin.pinning import GibbsChain

        # the cap drops to 1024 bytes once the first sweep starts: the
        # Region's 5,000-byte slab factor is checked before, and the
        # sweep's batch of 18 columns, 24,768 bytes, is refused
        sweep = GibbsChain.sweep

        def tight(chain):
            monkeypatch.setattr(green, "COLUMN_BYTES_CAP", 1024)
            return sweep(chain)

        monkeypatch.setattr(GibbsChain, "sweep", tight)
        code, out = _run(tmp_path, "pins-sample",
                         "box_radius = 2\nepsilon = 5\nsweeps = 4\n"
                         f"kernel_file = {srw2_file}\nseed = 3\n")
        assert code == 4
        err = capsys.readouterr().err
        assert "resource exceeded" in err and "cap" in err
        assert "18 Green columns of 25 sites need 24768 bytes" in err
        assert "Traceback" not in err
        assert not (out / "pin_samples.csv").exists()

    @pytest.mark.parametrize("patch, code, message", [
        ("cap", 4, "resource exceeded: audit columns"),
        ("factor", 3, "numerical failure: Cholesky factor of the audit"),
    ])
    def test_audit_failure_exit_code(self, tmp_path, capsys, srw2_file,
                                     monkeypatch, patch, code, message):
        from gffpin import green
        from gffpin.green import Region

        def fail(a):
            raise np.linalg.LinAlgError("not positive definite")

        if patch == "cap":
            # the cap drops to nothing once the chain's first audit starts:
            # the slab factor and the sweep's batch are already in memory
            audit = Region.pinned_variance

            def tight(region, pinned, i):
                monkeypatch.setattr(green, "COLUMN_BYTES_CAP", 0)
                return audit(region, pinned, i)

            monkeypatch.setattr(Region, "pinned_variance", tight)
        else:
            monkeypatch.setattr(np.linalg, "cholesky", fail)
        got, out = _run(tmp_path, "pins-sample",
                        "box_radius = 2\nepsilon = 0.5\nsweeps = 4\n"
                        f"kernel_file = {srw2_file}\nseed = 3\n")
        assert got == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (out / "pin_samples.csv").exists()

    def test_singular_slab_is_numerical_error(self, tmp_path, capsys,
                                              srw2_file, monkeypatch):
        # np.linalg.LinAlgError is a ValueError, which `cli.run` does not
        # catch: the slab factor turns it into a NumericalError
        def fail(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", fail)
        got, out = _run(tmp_path, "pins-sample",
                        "box_radius = 2\nepsilon = 0.5\nsweeps = 4\n"
                        f"kernel_file = {srw2_file}\nseed = 3\n")
        assert got == 3
        err = capsys.readouterr().err
        assert "numerical failure: Schur complement of slab 0" in err
        assert "Traceback" not in err
        assert not (out / "pin_samples.csv").exists()


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestDominationCheck:
    def test_matches_exact_table(self, tmp_path, srw2_lazy_file):
        code, out = _run(tmp_path, "domination-check",
                         "box_radius = 1\nepsilon = 0.5\ntargets = 0 0\n"
                         f"samples = 4000\nkernel_file = {srw2_lazy_file}\n"
                         "seed = 21\n")
        assert code == 0
        [row] = _csv_rows(out / "domination_check.csv")
        region = box_region(kernel_from_file(str(srw2_lazy_file)), 1)
        exact = empty_probability(pinning.exact_pin_measure(region, 0.5),
                                  [region.site_index((0, 0))])
        est = Estimate(float(row["estimate"]), float(row["stderr"]),
                       int(row["n_used"]))
        assert within(est, exact, k=3.0)
        assert float(row["lower_curve"]) - 1e-12 <= exact \
            <= float(row["upper_curve"]) + 1e-12
        assert 0.0 < float(row["density_lo"]) <= float(row["density_hi"]) < 1.0


class TestBoxStability:
    def test_monotone_unpinned_marginal(self, tmp_path, srw2_lazy_file):
        code, out = _run(tmp_path, "box-stability",
                         "epsilon = 0.3\nradii = 1 2 4\n"
                         "probe = unpinned-marginal\nsamples = 3000\n"
                         f"kernel_file = {srw2_lazy_file}\nseed = 13\n")
        assert code == 0
        rows = _csv_rows(out / "box_stability.csv")
        vals = [float(r["estimate"]) for r in rows]
        errs = [float(r["stderr"]) for r in rows]
        assert vals[1] >= vals[0] - 3.0 * (errs[0] + errs[1])
        assert vals[2] >= vals[1] - 3.0 * (errs[1] + errs[2])

    def test_same_seed_same_box_identical(self, tmp_path, srw2_lazy_file):
        config = ("epsilon = 0.3\nradii = 2\nprobe = variance\nsamples = 400\n"
                  f"kernel_file = {srw2_lazy_file}\nseed = 9\n")
        outputs = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            code, out = _run(tmp_path / run, "box-stability", config)
            assert code == 0
            outputs.append((out / "box_stability.csv").read_bytes())
        assert outputs[0] == outputs[1]


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


def test_pinned_mass_points_report_sweeps_and_blanks(tmp_path,
                                                    srw2_lazy_file):
    code, out = _run(tmp_path, "mass-scan",
                     "eps_list = 0.3 0.2 0.1\nmode = pinning-exact\n"
                     f"budget = 1\nsamples = 4\nkernel_file = {srw2_lazy_file}\n"
                     "seed = 5\n")
    assert code == 0
    with open(out / "mass_scan_points.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        # 4 samples over 4 replicas: one recorded sweep per replica and
        # distance; the surrogate-only columns stay empty
        assert (row["n_used"], row["density"], row["n_max"]) == ("4", "", "")
        assert row["flags"] == ""
    # per-point fit diagnostics, one entry per epsilon: 5 distances, 2
    # parameters
    manifest = _manifest(out)
    assert set(manifest["monotone_ok"].split()) <= {"0", "1"}
    assert len(manifest["monotone_ok"].split()) == 3
    assert manifest["point_dof"].split() == ["3", "3", "3"]
    chi2 = [float(v) for v in manifest["point_chi2"].split()]
    assert len(chi2) == 3 and all(math.isfinite(v) and v >= 0 for v in chi2)


@pytest.mark.parametrize("command, body", [
    ("renewal1d", "eps_list = 0.1 0.01"),
    ("variance-scan", "eps_list = 0.3 0.2 0.1\nbudget = 8\n"
                      "kernel_file = {kernel}"),
], ids=["renewal1d", "variance-scan"])
def test_manifest_checksums_match_files(tmp_path, srw2_file, command, body):
    code, out = _run(tmp_path, command,
                     body.format(kernel=srw2_file) + "\nseed = 2\n")
    assert code == 0
    manifest = _manifest(out)
    assert manifest["status"] == "done"
    names = [k[len("file."):-len(".sha256")] for k in manifest
             if k.startswith("file.") and k.endswith(".sha256")]
    assert sorted(names) == sorted(p.name for p in out.glob("*.csv"))
    for name in names:
        data = (out / name).read_bytes()
        assert manifest[f"file.{name}.bytes"] == str(len(data))
        assert manifest[f"file.{name}.sha256"] == hashlib.sha256(data).hexdigest()
    assert not [p.name for p in out.iterdir() if ".tmp." in p.name]


def _fail_csv_writes_at_row(monkeypatch, fail_at):
    """Make csv.writer raise "disk full" on its `fail_at`-th row."""
    real_writer = csv.writer

    def failing_writer(fh):
        writer = real_writer(fh)
        rows = []

        class Failing:
            def writerow(self, row):
                rows.append(row)
                if len(rows) == fail_at:
                    raise OSError("disk full")
                writer.writerow(row)

        return Failing()

    monkeypatch.setattr(csv, "writer", failing_writer)


def test_failed_write_keeps_existing_csv(tmp_path, monkeypatch):
    target = tmp_path / "points.csv"
    cli.write_csv(target, ("r", "value"), [(1, 0.5), (2, 0.25)])
    before = target.read_bytes()
    _fail_csv_writes_at_row(monkeypatch, 3)
    with pytest.raises(OSError, match="disk full"):
        cli.write_csv(target, ("r", "value"), [(1, 0.1), (2, 0.2), (3, 0.3)])
    assert target.read_bytes() == before


def test_failed_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    _fail_csv_writes_at_row(monkeypatch, 2)
    with pytest.raises(OSError, match="disk full"):
        cli.write_csv(tmp_path / "x.csv", ("r", "value"), [(1, 0.1), (2, 0.2)])
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("x.csv")]
    monkeypatch.undo()

    # the finished manifest's write fails at `finalize`
    def failing_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if ".tmp." in str(path):
            write = fh.write

            def fail_when_done(text):
                if text.startswith("status = done"):
                    raise OSError("disk full")
                return write(text)

            fh.write = fail_when_done
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code, out = _run(tmp_path, "renewal1d", "eps_list = 0.1\nseed = 1\n")
    assert code == 4
    err = capsys.readouterr().err
    assert "disk full" in err and "Traceback" not in err
    assert _manifest(out)["status"] == "running"
    assert not [p.name for p in out.iterdir() if ".tmp." in p.name]


def test_output_dir_that_is_a_file_is_config_error(tmp_path, capsys):
    target = tmp_path / "afile"
    target.write_text("")
    config = tmp_path / "r.cfg"
    config.write_text("eps_list = 0.1\nseed = 1\n")
    code = cli.main(["renewal1d", str(config), "--output-dir", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: output directory" in err and "Traceback" not in err
    assert target.read_text() == ""


def test_failed_artifact_write_exits_4(tmp_path, capsys, monkeypatch):
    # the header row is written, the first data row fails
    _fail_csv_writes_at_row(monkeypatch, 2)
    code, out = _run(tmp_path, "renewal1d", "eps_list = 0.1 0.01\nseed = 1\n")
    assert code == 4
    err = capsys.readouterr().err
    assert "disk full" in err and "Traceback" not in err
    assert _manifest(out)["status"] == "running"
    assert not (out / "renewal1d.csv").exists()


def test_variance_scan_manifest_records_gn0_audit(tmp_path, srw2_file):
    code, out = _run(tmp_path, "variance-scan",
                     "eps_list = 0.3 0.2 0.1\nbudget = 8\n"
                     f"kernel_file = {srw2_file}\nseed = 2\n")
    assert code == 0
    assert 0.0 <= float(_manifest(out)["gn0_audit_max_rel_err"]) <= 1e-10
    with open(out / "variance_scan_points.csv") as fh:
        assert "audit" not in fh.readline()


@pytest.mark.parametrize("command, body", [
    ("variance-scan", "budget = 2\nreplicas = 2"),
    ("mass-scan", "mode = pinning-exact\nbudget = 1\nsamples = 2"),
], ids=["variance-scan", "mass-scan-pinned"])
def test_over_cap_box_fails_before_any_chain(tmp_path, capsys, monkeypatch,
                                             srw2_lazy_file, command, body):
    # the boxes are R = 8, 8, 70 (variance) and 10, 10, 40 (mass): the
    # slab factors of the first two fit a 2 MB cap, their chains' batches
    # too, and the last box's 22.4 MB (4.25 MB) factor is refused before
    # the first chain is built
    from gffpin import green

    built, init = [], pinning.GibbsChain.__init__
    monkeypatch.setattr(pinning.GibbsChain, "__init__",
                        lambda ch, *a, **k: built.append(ch) or init(ch, *a,
                                                                     **k))
    monkeypatch.setattr(green, "COLUMN_BYTES_CAP", 2_000_000)
    code, out = _run(tmp_path, command,
                     f"eps_list = 0.3 0.2 0.01\n{body}\n"
                     f"kernel_file = {srw2_lazy_file}\nseed = 4\n")
    assert code == 4
    err = capsys.readouterr().err
    assert "slab inverses of the Green factor" in err
    assert "Traceback" not in err
    assert built == []
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command, body", [
    ("variance-scan", "eps_list = 0.3 0.2 0.1\nbudget = 8"),
    ("mass-scan",
     "eps_list = 0.3 0.2 0.1\nmode = pinning-exact\nbudget = 1\nsamples = 4"),
    ("domination-check",
     "box_radius = 2\nepsilon = 0.3\ntargets = 0 0; 1 0\nsamples = 40"),
    ("box-stability",
     "epsilon = 0.3\nradii = 1 2\nprobe = variance\nsamples = 40"),
    ("mass-scan", "eps_list = 0.3 0.2 0.1\nbudget = 300"),
], ids=["variance-scan", "mass-scan-pinned", "domination-check",
        "box-stability", "mass-scan-surrogate"])
def test_chain_manifests_record_audit(tmp_path, srw2_file, command, body):
    # every command that runs heat-bath chains records their largest audit
    # error, and the surrogate, which runs none, records nothing
    code, out = _run(tmp_path, command,
                     f"{body}\nkernel_file = {srw2_file}\nseed = 4\n")
    assert code == 0
    manifest = _manifest(out)
    if "budget = 300" in body:
        assert "audit_max_rel_err" not in manifest
    else:
        assert 0.0 <= float(manifest["audit_max_rel_err"]) <= pinning.AUDIT_TOL


@pytest.mark.parametrize("command, body", [
    ("variance-scan", "eps_list = 0.3 0.2 0.1\nbudget = 8"),
    ("mass-scan",
     "eps_list = 0.3 0.2 0.1\nmode = pinning-exact\nbudget = 1\nsamples = 4"),
    ("mass-scan", "eps_list = 0.3 0.2 0.1 0.07\nbudget = 300"),
], ids=["variance-scan", "mass-scan-pinned", "mass-scan-surrogate"])
def test_scan_manifests_record_point_seconds(tmp_path, srw2_file, command,
                                             body):
    # one wall time per epsilon, fit-failed points included
    code, out = _run(tmp_path, command,
                     f"{body}\nkernel_file = {srw2_file}\nseed = 4\n")
    assert code == 0
    seconds = [float(v) for v in _manifest(out)["point_seconds"].split()]
    assert len(seconds) == len(body.split("\n")[0].split()) - 2
    assert all(math.isfinite(v) and v > 0 for v in seconds)


@pytest.mark.parametrize("value, text", [
    (np.float64(0.1), "0.1"), (np.float32(0.1), "0.10000000149011612"),
    (np.int64(-7), "-7"), (np.bool_(True), "1"), (np.bool_(False), "0"),
    ([np.float64(2.5), None, np.int64(3)], "2.5 - 3"),
])
def test_fmt_writes_numpy_scalars_as_python_values(value, text):
    # the text that naming the numpy types wrote: a float by the repr of
    # its double, an integer in decimal and a bool as 1 or 0
    assert cli._fmt(value) == text


def test_range_stats_is_unknown_command(tmp_path, capsys):
    # the command is retired: argparse refuses it before reading the config
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "range-stats", "n = 10\nreps = 10\nseed = 1\n")
    assert exc.value.code == 2
    assert "invalid choice: 'range-stats'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_surrogate_mass_manifest_records_monotone_ok(tmp_path, srw2_file):
    code, out = _run(tmp_path, "mass-scan",
                     "eps_list = 0.3 0.2 0.1\nbudget = 300\n"
                     f"kernel_file = {srw2_file}\nseed = 3\n")
    assert code == 0
    manifest = _manifest(out)
    with open(out / "mass_scan_points.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(manifest["monotone_ok"].split()) <= {"0", "1", "-"}
    assert len(manifest["monotone_ok"].split()) == len(rows) == 3
    # "-" exactly where a point's fit failed, and a fit of 3 to 6 distances
    failed = [row["flags"].startswith("fit-failed") for row in rows]
    chi2, dof = manifest["point_chi2"].split(), manifest["point_dof"].split()
    assert len(chi2) == len(dof) == 3
    for bad, c, n in zip(failed, chi2, dof):
        assert (c == "-") == (n == "-") == bad
        if not bad:
            assert float(c) >= 0 and n in {"1", "2", "3", "4"}
    assert "truncation" not in manifest


def _start_up_loads(tmp_path, command, body, banned):
    """Run `cli.main` on `command` with `body` as its config (just import
    the CLI when `command` is None) in a fresh interpreter, and assert that
    no module of the `banned` package loaded."""
    src = os.path.dirname(os.path.dirname(gffpin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ["import sys", "from gffpin import cli"]
    if command:
        config = tmp_path / "run.cfg"
        config.write_text(body + "\nseed = 3\n")
        argv = [command, str(config), "--output-dir", str(tmp_path / "out")]
        code.append(f"assert cli.main({argv!r}) == 0")
    code += [f"loaded = [m for m in sys.modules if (m + '.').startswith("
             f"{banned + '.'!r})]",
             "if loaded:",
             "    sys.exit('loaded ' + ' '.join(loaded))"]
    proc = subprocess.run([sys.executable, "-c", "\n".join(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command, body", [
    (None, None),
    ("mass-scan", "eps_list = 0.3 0.2 0.1\nbudget = 300\nkernel_file = {kernel}"),
    ("renewal1d", "eps_list = 0.1 0.01"),
    ("fkg-check", "box_radius = 1\neps_list = 0.5 0.1\nkernel_file = {kernel}"),
    ("pins-sample", "box_radius = 3\nepsilon = 0.5\nsweeps = 20\n"
     "kernel_file = {kernel}"),
    ("variance-scan", "eps_list = 0.3 0.2 0.1\nbudget = 8\n"
     "kernel_file = {kernel}"),
    ("mass-scan", "eps_list = 0.3 0.2 0.1\nmode = pinning-exact\nbudget = 1\n"
     "samples = 4\nkernel_file = {kernel}"),
    ("green-probe", "box_radius = 4\npins = 1 0\nprobes = 0 0 0 0; 0 0 2 1\n"
     "kernel_file = {kernel}"),
], ids=["import", "mass-scan-surrogate", "renewal1d", "fkg-check",
        "pins-sample", "variance-scan", "mass-scan-pinning-exact",
        "green-probe"])
def test_start_up_leaves_out_scipy(tmp_path, srw2_file, command, body):
    # path ensembles, exact enumeration, slab-factor Green columns and
    # their audits all run on numpy alone: no command loads scipy
    _start_up_loads(tmp_path, command, body and body.format(kernel=srw2_file),
                    "scipy")


def test_library_imports_no_scipy():
    # tests/ alone may import scipy, for its independent references
    src = Path(gffpin.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.stem}: {n}" for n in names
                      if (n + ".").startswith("scipy.")]
    assert not found, "imports scipy: " + ", ".join(found)


@pytest.mark.parametrize("command, body", [
    (None, None), ("renewal1d", "eps_list = 0.1 0.01 0.005"),
], ids=["import", "renewal1d"])
def test_start_up_leaves_out_numpy(tmp_path, command, body):
    # the CLI imports the numerical modules in the commands that use them,
    # and renewal1d sums its series in Python floats (its constants are
    # tabulated), so importing the CLI or running renewal1d loads no numpy
    _start_up_loads(tmp_path, command, body, "numpy")


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

    # at 5e-324 the two-term tilt is 0 and eps / sqrt(2 pi) underflows
    @pytest.mark.parametrize("eps", ("1e-110", "1e-200", "1e200", "5e-324"))
    def test_overflow_is_numerical_error(self, tmp_path, capsys, eps):
        code, out = _run(tmp_path, "renewal1d", f"eps_list = 0.1 {eps}\nseed = 1\n")
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert _manifest(out)["status"] == "running"
        assert not (out / "renewal1d.csv").exists()


def test_benchmark_tracer_installs():
    # the benchmark's traced run wraps gffpin entry points by name, and
    # `install` raises on one that is renamed or bound in no module, which
    # ends that run as incorrect; install it as the traced run does
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    src = os.path.dirname(os.path.dirname(gffpin.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracing; tracing.install(tracing.Tracer())"],
        cwd=perfbench, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _library_graph(src):
    """Top-level definitions of every module under `src`, the (module, name)
    pairs each one's body refers to by name or module attribute, and the
    roots: the CLI entry point `cli.main` and every name the package
    exports. A relative import binds its names in the module when it sits
    at the top level, and in the enclosing top-level definition when it
    sits inside one."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(src.glob("*.py"))}

    def bind(node, bound):
        # local name -> (module, name) or the module itself
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module is None and alias.name in modules:
                bound[local] = alias.name
            else:
                bound[local] = (node.module or "__init__", alias.name)

    defs, refs = {}, {}
    for mod, tree in modules.items():
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                bind(node, bound)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[(mod, t.id)] = node

        for key in [k for k in defs if k[0] == mod]:
            inner = {}  # what the definition's own imports bind
            for sub in ast.walk(defs[key]):
                if isinstance(sub, ast.ImportFrom) and sub.level == 1:
                    bind(sub, inner)

            def resolve(name, mod=mod, bound=bound, inner=inner):
                if name in inner:
                    return inner[name]
                if (mod, name) in defs:
                    return (mod, name)
                return bound.get(name)

            out = set()
            for sub in ast.walk(defs[key]):
                if isinstance(sub, ast.Name):
                    target = resolve(sub.id)
                    if isinstance(target, tuple):
                        out.add(target)
                elif (isinstance(sub, ast.Attribute)
                      and isinstance(sub.value, ast.Name)
                      and isinstance(resolve(sub.value.id), str)):
                    out.add((resolve(sub.value.id), sub.attr))
            refs[key] = out
        if mod == "__init__":
            exports = {v for v in bound.values() if isinstance(v, tuple)}
    return defs, refs, exports | {("cli", "main")}


# the benchmark's set-up probe (perfbench/child.py `setup`) calls these two
# and nothing else does; drop them here, and delete them from `cli`, once the
# probe calls `cli._check` instead (ROADMAP, items for the next benchmark PR)
_PROBE_ROOTS = {("cli", "validate"), ("cli", "parse_command_config")}


def _unreached(src, extra_roots=()):
    """Sorted `module.name` of the definitions under `src` that no root of
    `_library_graph` and none of `extra_roots` reaches."""
    defs, refs, roots = _library_graph(src)
    seen, todo = set(), list(roots | set(extra_roots))
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        todo.extend(refs.get(key, ()))
    return sorted(f"{m}.{n}" for m, n in set(defs) - seen)


def test_every_library_name_is_reached():
    # the library is what the CLI runs: a top-level function, class or
    # constant that no command, no package export and no name of the set-up
    # probe reaches is dead code, however well its own tests cover it
    src = Path(gffpin.__file__).parent
    unreached = _unreached(src, _PROBE_ROOTS)
    assert not unreached, "reached by no command: " + ", ".join(unreached)
    # each probe root is needed, and reaches nothing of its own
    assert _unreached(src) == sorted(f"{m}.{n}" for m, n in _PROBE_ROOTS)


# the benchmark tracer (perfbench/tracing.py `_after_renewal_model`) reads
# this field for its renewal1d.k_max figure, and nothing in the library does
_TRACER_READS = {("renewal1d", "RenewalModel", "k_max")}


def _unread_members(src, exempt=()):
    """Sorted `module.Class.member` of the methods, properties and annotated
    fields of the classes under `src` that no attribute load anywhere under
    `src`, outside the member's own definition, reads by name. Dunder
    methods are left out: Python calls them. The match is by name alone, so
    a read of a same-named attribute of another object counts as a read."""
    loads, members = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        loads += [n for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif (isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members.append(((path.stem, cls.name, name), node))
    unread = []
    for key, node in members:
        own = {id(n) for n in ast.walk(node)}
        if key not in exempt and not any(
                a.attr == key[2] and id(a) not in own for a in loads):
            unread.append(".".join(key))
    return sorted(unread)


def test_every_class_member_is_read():
    # a method, property or field that nothing in the library reads is dead
    # code, even on a class the CLI reaches
    src = Path(gffpin.__file__).parent
    unread = _unread_members(src, _TRACER_READS)
    assert not unread, "read by nothing in the library: " + ", ".join(unread)
    # each exemption is needed
    assert _unread_members(src) == sorted(".".join(k) for k in _TRACER_READS)


def test_member_guard_reports_unread_method(tmp_path):
    # `within` reads itself only, and `__init__` is Python's to call
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "stats.py").write_text(
        "class Estimate:\n"
        "    mean: float\n\n"
        "    def __init__(self, mean):\n        self.mean = mean\n\n"
        "    def within(self, t, k):\n"
        "        return k > 9 and self.within(t, k - 1)\n\n\n"
        "def report(est):\n    return est.mean\n")
    assert _unread_members(src) == ["stats.Estimate.within"]
    assert _unread_members(src, {("stats", "Estimate", "within")}) == []


def test_reachability_guard_reports_dead_cli_helper(tmp_path):
    # a cli definition is no root of its own: one that `main` never calls
    # is reported, with what only it reaches
    src = tmp_path / "pkg"
    src.mkdir()
    for name, text in {
        "__init__.py": "from .walk import make  # noqa: F401\n",
        "walk.py": ("def make():\n    return _helper()\n\n\n"
                    "def _helper():\n    return 1\n\n\n"
                    "def orphan():\n    return 2\n"),
        "cli.py": ("from . import walk\n\n\n"
                   "def main():\n    return walk.make()\n\n\n"
                   "def validate():\n    return walk.orphan()\n"),
    }.items():
        (src / name).write_text(text)
    assert _unreached(src) == ["cli.validate", "walk.orphan"]
    assert _unreached(src, {("cli", "validate")}) == []


def test_reachability_guard_follows_function_imports(tmp_path):
    # a name imported only inside a function body, by module or by name, is
    # reached through that function; a name imported nowhere is still
    # reported, also where another module's name is imported in its place
    src = tmp_path / "pkg"
    src.mkdir()
    for name, text in {
        "__init__.py": "",
        "walk.py": ("def load():\n    return 1\n\n\n"
                    "def orphan():\n    return 2\n"),
        "scaling.py": ("def scan():\n    return 3\n\n\n"
                       "def load():\n    return 4\n"),
        "cli.py": ("def main():\n"
                   "    from . import scaling\n"
                   "    from .walk import load\n\n"
                   "    return scaling.scan() + load()\n"),
    }.items():
        (src / name).write_text(text)
    assert _unreached(src) == ["scaling.load", "walk.orphan"]


def _scopes(src, hit):
    """Sorted `module.qualname` of the innermost function or class around
    each AST node under `src` for which `hit(node)` holds, one entry per
    node."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if hit(child):
                sites.append(where)
            visit(child, where)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sorted(sites)


def _call_sites(src, attr):
    """`_scopes` of each call `<expr>.<attr>(...)` under `src`."""
    return _scopes(src, lambda n: isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Attribute)
                   and n.func.attr == attr)


def _name_sites(src, name):
    """`_scopes` of each use of `name` under `src`: a variable, an
    attribute or an imported name."""
    return _scopes(src, lambda n: isinstance(n, ast.Name) and n.id == name
                   or isinstance(n, ast.Attribute) and n.attr == name
                   or isinstance(n, ast.alias) and name in (n.name, n.asname))


def test_one_chain_driver():
    # every heat-bath run burns in and records through `pinning.recorded`,
    # so a change to how chains start or what they record is made once
    src = Path(gffpin.__file__).parent
    assert _call_sites(src, "sweep") == ["pinning.recorded"]


def test_one_green_path():
    # every Green value comes from unit columns, whose residuals certify the
    # slab factor: no second algorithm reads the factor
    src = Path(gffpin.__file__).parent
    assert _call_sites(src, "_slab_factor") == ["green.Region.columns"]


def test_one_green_read():
    # a Green value is read from one batch of unit columns: a chain's from
    # its sweep's batch or from its observable's columns, a probe set's from
    # one `green_killed` call, and no Region keeps a memo of them
    src = Path(gffpin.__file__).parent
    assert _call_sites(src, "columns") == [
        "green.Region.pinned_variance", "green.green_killed",
        "pinning.GibbsChain.sweep", "pinning.covariance",
        "pinning.domination_densities"]


def test_one_byte_budget():
    # every byte count a config sizes meets the cap in `green.check_bytes`
    # alone, so one patch of `green.COLUMN_BYTES_CAP` reaches every check
    src = Path(gffpin.__file__).parent
    assert _name_sites(src, "COLUMN_BYTES_CAP") == [
        "green", "green.check_bytes", "green.check_bytes"]


def test_sweep_guard_reports_second_loop(tmp_path):
    # a method with its own sweep loop is a second driver
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "pinning.py").write_text(
        "class Chain:\n"
        "    def sweep(self):\n        pass\n\n"
        "    def run(self, n):\n"
        "        for _ in range(n):\n            self.sweep()\n\n\n"
        "def recorded(chain, burnin, sweeps):\n"
        "    for t in range(burnin + sweeps):\n"
        "        chain.sweep()\n"
        "        if t >= burnin:\n            yield chain\n")
    assert _call_sites(src, "sweep") == ["pinning.Chain.run",
                                         "pinning.recorded"]
