"""Reproducible experiment runner.

Config files are flat `key = value` text; every command requires an explicit
seed. Artifacts are CSV written atomically (temp file + rename) and listed
with checksums in a manifest that is created before and finalized after the
run. Exit codes: 0 ok, 2 config validation (an unusable output directory
included), 3 numerical failure, 4 resource exceeded (a failed artifact write
included). Every command runs serially, so its output bytes are a function
of the config alone. The two scans return their report from `scaling`, and
`_write_scan` writes either one.

Every config key and its default is written once, in `SCHEMAS`. `_check`
fills in the defaults and checks every rule once, before the output directory
is made; the library functions the handlers call do neither again.

The numerical modules are imported where a command uses them: `renewal1d`
loads no numpy, every command with a kernel file loads numpy, and no command
loads scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import math
import os
import sys
import time

from . import __version__, renewal1d
from .errors import NumericalError, ResourceError, ToolkitError, ValidationError
from .stats import REPLICAS

# ---------------------------------------------------------------------------
# config parsing


def parse_config_text(text) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _parse_floats(s):
    parts = s.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return [float(p) for p in parts]


def _parse_ints(s):
    return [int(p) for p in s.replace(",", " ").split()]


def _parse_sites(s):
    """Semicolon-separated coordinate groups: '0 0; 1 0' -> [(0,0), (1,0)]."""
    sites = []
    for group in s.split(";"):
        group = group.strip()
        if group:
            sites.append(tuple(int(t) for t in group.replace(",", " ").split()))
    if not sites:
        raise ValueError("empty site list")
    return sites


_PARSERS = {
    "int": int, "float": float, "floats": _parse_floats, "ints": _parse_ints,
    "sites": _parse_sites, "str": str,
}

# key -> (type, default); a default of None is worked out where it is read
REQUIRED = object()  # the default of a key that every config must set
SCHEMAS = {
    "kernel-info": {"kernel_file": ("str", REQUIRED)},
    "green-probe": {
        "kernel_file": ("str", REQUIRED), "box_radius": ("int", REQUIRED),
        "probes": ("sites", REQUIRED), "pins": ("sites", ()),
    },
    "pins-sample": {
        "kernel_file": ("str", REQUIRED), "box_radius": ("int", REQUIRED),
        "epsilon": ("float", REQUIRED), "sweeps": ("int", REQUIRED),
        "burnin": ("int", None),
    },
    "fkg-check": {
        "kernel_file": ("str", REQUIRED), "box_radius": ("int", REQUIRED),
        "eps_list": ("floats", REQUIRED),
    },
    "domination-check": {
        "kernel_file": ("str", REQUIRED), "box_radius": ("int", REQUIRED),
        "epsilon": ("float", REQUIRED), "targets": ("sites", REQUIRED),
        "samples": ("int", REQUIRED), "replicas": ("int", REPLICAS),
    },
    "variance-scan": {
        "kernel_file": ("str", REQUIRED), "eps_list": ("floats", REQUIRED),
        "budget": ("int", REQUIRED), "replicas": ("int", REPLICAS),
        "box_radius": ("int", None),
    },
    "mass-scan": {
        "kernel_file": ("str", REQUIRED), "eps_list": ("floats", REQUIRED),
        "budget": ("int", REQUIRED), "mode": ("str", "bernoulli-surrogate"),
        "mapping": ("str", "default"), "region_radius": ("int", None),
        "samples": ("int", 400),
    },
    "renewal1d": {"eps_list": ("floats", REQUIRED)},
    "box-stability": {
        "kernel_file": ("str", REQUIRED), "epsilon": ("float", REQUIRED),
        "radii": ("ints", REQUIRED), "probe": ("str", REQUIRED),
        "samples": ("int", REQUIRED), "replicas": ("int", REPLICAS),
    },
}
COMMANDS = tuple(SCHEMAS)


def validate(command, raw_config) -> list[str]:
    """Return the list of violations; empty iff a run would start."""
    return _check(command, raw_config)[0]


def _check(command, raw_config):
    """(violations, parsed config), parsed with every schema key. A command
    with a `kernel_file` key gets the loaded kernel under `kernel`, so that a
    malformed kernel is a config error and no handler parses it again."""
    if command not in SCHEMAS:
        return [f"unknown command {command!r}"], {}
    schema = {**SCHEMAS[command], "seed": ("int", REQUIRED)}
    violations = []
    for key in raw_config:
        if key not in schema:
            violations.append(f"unknown key {key!r} for {command}")
    parsed = {}
    for key, (typ, default) in schema.items():
        if key not in raw_config:
            if default is REQUIRED:
                violations.append(f"missing required key {key!r}")
            else:
                parsed[key] = default
            continue
        try:
            parsed[key] = _PARSERS[typ](raw_config[key])
        except (ValueError, ValidationError) as exc:
            violations.append(f"bad value for {key!r}: {exc}")
    if violations:
        return violations, parsed

    for key, (typ, _) in schema.items():
        if typ in ("float", "floats"):
            values = parsed[key] if typ == "floats" else [parsed[key]]
            if not all(map(math.isfinite, values)):
                violations.append(f"{key} must be finite")

    def positive(key):
        if key in parsed and not parsed[key] > 0:
            violations.append(f"{key} must be positive")

    def at_least(key, low):
        if parsed.get(key) is not None and parsed[key] < low:
            violations.append(f"{key} must be >= {low}")

    positive("epsilon")
    positive("sweeps")
    positive("samples")
    positive("budget")
    # the error bar is the spread of the replica means
    at_least("replicas", 2)
    at_least("box_radius", 0)
    # the pinned mass fit probes distances up to max(6, radius - 2)
    at_least("region_radius", 6)
    if "targets" in parsed and len(set(parsed["targets"])) < len(
            parsed["targets"]):
        # a repeat would count twice in the Bernoulli curves' |B|
        violations.append("targets must be distinct sites")
    if parsed.get("burnin") is not None and not (
            0 <= parsed["burnin"] <= parsed["sweeps"]):
        violations.append("burnin must lie in [0, sweeps]")
    if "eps_list" in parsed:
        eps = parsed["eps_list"]
        if not all(e > 0 for e in eps):
            violations.append("epsilon must be positive")
        if command in ("variance-scan", "mass-scan"):
            if len(eps) < 3:
                violations.append("eps_list needs at least 3 points")
            elif any(b >= a for a, b in zip(eps, eps[1:])):
                violations.append("eps_list must be strictly decreasing")
    if "kernel_file" in parsed:
        from .walk import kernel_from_file

        try:
            parsed["kernel"] = kernel_from_file(parsed["kernel_file"])
        except FileNotFoundError:
            violations.append(f"kernel file {parsed['kernel_file']!r} not found")
        except (OSError, ValueError, ValidationError) as exc:
            violations.append(f"kernel file {parsed['kernel_file']!r}: {exc}")
    if command in ("green-probe", "domination-check") and not violations:
        # pins and targets are sites, probes are pairs of sites (x then y)
        d, radius = parsed["kernel"].d, parsed["box_radius"]
        for key, width in (("pins", d), ("targets", d), ("probes", 2 * d)):
            if key not in parsed:
                continue
            for site in parsed[key]:
                if len(site) != width or any(abs(c) > radius for c in site):
                    violations.append(
                        f"{key} entry {site} must hold {width} coordinates "
                        f"inside the box of radius {radius}")
        if command == "green-probe":
            pins = set(parsed["pins"])
            for probe in parsed["probes"]:
                if probe[:d] in pins or probe[d:] in pins:
                    violations.append(f"probe {probe} sits on a pin")
    if (command == "variance-scan" and parsed["box_radius"] is not None
            and not violations):
        from . import scaling

        floor = max(map(scaling.variance_box_policy, parsed["eps_list"]))
        if parsed["box_radius"] < floor:
            violations.append(
                f"box_radius {parsed['box_radius']} below the policy floor "
                f"{floor} ({scaling.POLICY})")
    if command == "box-stability":
        if parsed["probe"] not in ("unpinned-marginal", "variance"):
            violations.append("probe must be unpinned-marginal or variance")
        radii = parsed["radii"]
        if any(r < 0 for r in radii):
            violations.append("radii must be >= 0")
        if sorted(set(radii)) != list(radii):
            violations.append("radii must be strictly increasing")
    if command == "mass-scan":
        if parsed["mode"] not in ("bernoulli-surrogate", "pinning-exact"):
            violations.append("mode must be bernoulli-surrogate or pinning-exact")
        if parsed["mapping"] not in ("default", "direct"):
            violations.append("mapping must be default or direct")
        if not violations and parsed["mode"] == "bernoulli-surrogate":
            from . import scaling

            violations.extend(_plane_target_violations(parsed["kernel"]))
            for eps in parsed["eps_list"]:  # p is a per-site probability
                try:
                    p = scaling.surrogate_density(eps, parsed["kernel"].d,
                                                  parsed["mapping"])
                except ZeroDivisionError:  # eps = 1 in d = 2: |log eps| = 0
                    p = math.inf
                if not p < 1.0:
                    violations.append(f"the surrogate trap density at "
                                      f"epsilon {eps!r} is {p!r}, not below 1")
    return violations, parsed


def _plane_target_violations(kernel):
    """The surrogate mass scores the first passage to a plane, whose decay
    rate is the axis mass only for a kernel invariant under x_j -> -x_j for
    every j >= 2 (see `scaling`); names the first step without a mirror."""
    table = dict(kernel.support())
    for j in range(1, kernel.d):
        for s, w in table.items():
            image = s[:j] + (-s[j],) + s[j + 1:]
            if not math.isclose(table.get(image, 0.0), w, rel_tol=1e-12,
                                abs_tol=1e-15):
                return [f"the surrogate mass needs a kernel invariant under "
                        f"x_{j + 1} -> -x_{j + 1}; step {s} has no mirror "
                        f"image {image} of equal weight, so the first passage "
                        f"to {{x_1 >= r}} need not decay at the axis rate"]
    return []


def parse_command_config(command, raw_config) -> dict:
    schema = {**SCHEMAS[command], "seed": ("int", REQUIRED)}
    return {k: _PARSERS[schema[k][0]](v) for k, v in raw_config.items()}


# ---------------------------------------------------------------------------
# artifacts


def _fmt(value):
    """One CSV cell or manifest value; a list is space-separated, with "-"
    for None."""
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join("-" if v is None else _fmt(v) for v in value)
    if hasattr(value, "item"):  # a numpy scalar: its Python value
        value = value.item()
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextlib.contextmanager
def _atomic_open(path, **kwargs):
    """Write a temp file beside `path` that replaces it when the block
    ends; if the block raises, the temp file is removed and `path` kept."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows):
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


class Manifest:
    def __init__(self, out_dir, command, raw_config):
        self.path = os.path.join(out_dir, "manifest.txt")
        self.out_dir = out_dir
        self.entries = [("status", "running"), ("command", command),
                        ("toolkit_version", __version__),
                        ("seed_scheme",
                         "counter-derived: SeedSequence([seed, index...])")]
        for key in sorted(raw_config):
            self.entries.append((f"config.{key}", raw_config[key]))
        self.files = []
        self.t0 = time.monotonic()
        self._write()

    def _write(self, extra=()):
        with _atomic_open(self.path) as fh:
            for key, value in self.entries + list(extra):
                fh.write(f"{key} = {value}\n")

    def write_csv(self, name, header, rows):
        """Write `name` in the output directory atomically and list it."""
        write_csv(os.path.join(self.out_dir, name), header, rows)
        self.files.append(name)

    def record(self, key, value):
        """A run diagnostic, written with the finished manifest as `_fmt`
        writes it."""
        self.entries.append((key, _fmt(value)))

    def finalize(self):
        self.entries[0] = ("status", "done")
        extra = [("wall_seconds", f"{time.monotonic() - self.t0:.3f}")]
        for name in self.files:
            path = os.path.join(self.out_dir, name)
            extra.append((f"file.{name}.bytes", str(os.path.getsize(path))))
            extra.append((f"file.{name}.sha256", _sha256(path)))
        self._write(extra)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_kernel_info(cfg, manifest):
    k = cfg["kernel"]
    rows = [("dim", k.d), ("lazy", k.lazy), ("beta_eff", k.beta_eff),
            ("p0", k.p0), ("aperiodic", k.aperiodic), ("max_step", k.max_step),
            ("sqrt_det_cov", k.sqrt_det_cov)]
    for i in range(k.d):
        for j in range(i, k.d):
            rows.append((f"cov_{i}{j}", k.cov[i, j]))
    manifest.write_csv("kernel_summary.csv", ("key", "value"), rows)
    sup = [(*vec, p) for vec, p in k.support()]
    manifest.write_csv("kernel_support.csv",
                       tuple(f"x{i+1}" for i in range(k.d)) + ("probability",),
                       sup)


def _cmd_green_probe(cfg, manifest):
    from .green import box_region, green_killed

    k = cfg["kernel"]
    region = box_region(k, cfg["box_radius"], pins=cfg["pins"])
    pairs = [(probe[:k.d], probe[k.d:]) for probe in cfg["probes"]]
    values, resid = green_killed(region, pairs)
    rows = [(*x, *y, g, r) for (x, y), g, r in zip(pairs, values, resid)]
    header = tuple(f"x{i+1}" for i in range(k.d)) \
        + tuple(f"y{i+1}" for i in range(k.d)) + ("G", "residual")
    manifest.write_csv("green_probes.csv", header, rows)


def _cmd_pins_sample(cfg, manifest):
    from . import pinning
    from .green import box_region

    region = box_region(cfg["kernel"], cfg["box_radius"])
    sweeps = cfg["sweeps"]
    burnin = sweeps // 2 if cfg["burnin"] is None else cfg["burnin"]
    samples, audit = pinning.sample_pins(region, cfg["epsilon"], sweeps,
                                         cfg["seed"], burnin)
    header = ("sweep",) + tuple(
        "s_" + "_".join(str(c) for c in site) for site in region.sites)
    manifest.write_csv("pin_samples.csv", header,
                       ((burnin + 1 + i, *row) for i, row in enumerate(samples)))
    manifest.record("audit_max_rel_err", audit)


def _cmd_fkg_check(cfg, manifest):
    from . import pinning
    from .green import box_region

    k = cfg["kernel"]
    region = box_region(k, cfg["box_radius"])
    rows = []
    for eps in cfg["eps_list"]:
        res = pinning.check_lattice_condition(region, eps)
        rows.append((eps, res.min_ratio, res.argmin_pair[0],
                     res.argmin_pair[1], res.pairs_checked))
    manifest.write_csv("fkg_check.csv",
                       ("epsilon", "min_ratio", "argmin_a", "argmin_b", "pairs"),
                       rows)


def _cmd_domination_check(cfg, manifest):
    """nu(A n B = empty) for the target set B, by Monte Carlo, next to the
    Bernoulli curves (1 - p_hi)^|B| and (1 - p_lo)^|B|."""
    from . import pinning
    from .green import box_region

    region = box_region(cfg["kernel"], cfg["box_radius"])
    eps, targets = cfg["epsilon"], cfg["targets"]
    idx = [region.site_index(s) for s in targets]
    est, audit = pinning.chain_mean(
        region, eps, lambda ch: float(not ch.pinned[idx].any()),
        cfg["samples"], cfg["seed"], replicas=cfg["replicas"])
    p_lo, p_hi = pinning.domination_densities(region, eps, targets)
    b = len(targets)
    manifest.write_csv(
        "domination_check.csv",
        ("epsilon", "estimate", "stderr", "n_used", "lower_curve",
         "upper_curve", "density_lo", "density_hi", "target_size"),
        [(eps, est.mean, est.stderr, est.n, (1.0 - p_hi) ** b,
          (1.0 - p_lo) ** b, p_lo, p_hi, b)])
    manifest.record("audit_max_rel_err", audit)


def _write_scan(manifest, name, result):
    """`<name>_points.csv`, `<name>_fit.csv` and the manifest notes of a
    `scaling.ScanResult`, written as the scan laid them out."""
    rows = [tuple(point.values()) for point in result.points]
    manifest.write_csv(f"{name}_points.csv", tuple(result.points[0]), rows)
    manifest.write_csv(f"{name}_fit.csv", ("key", "value"), result.fit)
    for key, value in result.notes.items():
        manifest.record(key, value)


def _cmd_variance_scan(cfg, manifest):
    from . import scaling

    _write_scan(manifest, "variance_scan", scaling.variance_scan(
        cfg["kernel"], cfg["eps_list"], budget=cfg["budget"],
        seed=cfg["seed"], replicas=cfg["replicas"],
        box_radius=cfg["box_radius"]))


def _cmd_mass_scan(cfg, manifest):
    from . import scaling

    _write_scan(manifest, "mass_scan", scaling.mass_scan(
        cfg["kernel"], cfg["eps_list"], mode=cfg["mode"],
        budget=cfg["budget"], seed=cfg["seed"], mapping=cfg["mapping"],
        region_radius=cfg["region_radius"], samples=cfg["samples"]))


def _cmd_renewal1d(cfg, manifest):
    rows = []
    for eps in cfg["eps_list"]:
        model = renewal1d.renewal_model(eps)
        big_m = renewal1d.renewal_mean(model)
        var = renewal1d.variance_1d(model)
        try:
            row = (eps, model.lam, model.lam / (eps * eps / 2.0), big_m,
                   big_m * eps**3, var, var * 2.0 * eps * eps)
            if not all(map(math.isfinite, row)):
                raise OverflowError
        except OverflowError:
            raise NumericalError(
                f"a renewal1d column overflows at epsilon {eps!r}") from None
        rows.append(row)
    manifest.write_csv("renewal1d.csv",
                       ("epsilon", "lambda", "lambda_over_eps2_half", "M",
                        "M_times_eps3", "variance", "variance_times_2eps2"),
                       rows)


def _cmd_box_stability(cfg, manifest):
    """A probe at the origin across nested boxes, each run from the same
    master seed."""
    from . import pinning
    from .green import box_region

    k, probe, eps = cfg["kernel"], cfg["probe"], cfg["epsilon"]
    origin, run = (0,) * k.d, (cfg["samples"], cfg["seed"], cfg["replicas"])
    rows, audits = [], []
    for radius in cfg["radii"]:
        region = box_region(k, radius)
        if probe == "unpinned-marginal":
            o = region.site_index(origin)
            est, audit = pinning.chain_mean(
                region, eps, lambda ch: float(not ch.pinned[o]), *run)
        else:
            est, audit = pinning.covariance(region, eps, origin, origin, *run)
        rows.append((radius, probe, est.mean, est.stderr, est.n))
        audits.append(audit)
    manifest.write_csv("box_stability.csv",
                       ("radius", "probe", "estimate", "stderr", "n_used"),
                       rows)
    manifest.record("audit_max_rel_err", max(audits))


_HANDLERS = {
    "kernel-info": _cmd_kernel_info,
    "green-probe": _cmd_green_probe,
    "pins-sample": _cmd_pins_sample,
    "fkg-check": _cmd_fkg_check,
    "domination-check": _cmd_domination_check,
    "variance-scan": _cmd_variance_scan,
    "mass-scan": _cmd_mass_scan,
    "renewal1d": _cmd_renewal1d,
    "box-stability": _cmd_box_stability,
}


def run(command, raw_config, out_dir) -> int:
    """Validate, dispatch, and write artifacts; returns the exit status."""
    violations, cfg = _check(command, raw_config)
    if violations:
        for v in violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    try:
        os.makedirs(out_dir, exist_ok=True)
        manifest = Manifest(out_dir, command, raw_config)
    except OSError as exc:
        print(f"config error: output directory {out_dir!r}: {exc}",
              file=sys.stderr)
        return 2
    try:
        _HANDLERS[command](cfg, manifest)
        manifest.finalize()
    except (ResourceError, OSError) as exc:
        # an OSError here is an artifact write failing, e.g. a full disk
        print(f"resource exceeded: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, ValidationError) as exc:
        # config rules all live in _check: a ValidationError here is a fit
        # guard refusing the data, a numerically unusable setup
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gffpin",
        description="Pinned lattice free field experiments")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="flat key = value config file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="must be >= 1; has no effect, every run is serial")
    parser.add_argument("--output-dir", default=".")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("config error: jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            raw = parse_config_text(fh.read())
    except (OSError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(args.command, raw, args.output_dir)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
