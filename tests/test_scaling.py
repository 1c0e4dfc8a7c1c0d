import math
import tracemalloc

import numpy as np
import pytest

from gffpin import cli, green, scaling
from gffpin.errors import ResourceError, ValidationError
from gffpin.green import Region
from gffpin.pinning import domination_densities, exact_pin_measure
from gffpin.scaling import (
    _CHUNK,
    _code_weights,
    _ensemble_chunks,
    _green_steps,
    _key_layout,
    _range_profile,
    mass_fit,
    mass_scan,
    survival_samples,
    surrogate_density,
    variance_box_policy,
    variance_scan,
    variance_slope_reference,
)
from gffpin.stats import REPLICAS, replica_rng
from gffpin.walk import make_kernel

from oracles import (
    ensemble_chunks,
    estimate_from_samples,
    exact_plane_survival,
    exact_range_mean,
    path_positions,
    range_profile,
    site_codes,
    subset_green_table,
    within,
    write_kernel_file,
)

# nearest-neighbour steps plus +-2 jumps along the first axis
JUMP2 = make_kernel([((1, 0), 1.0), ((-1, 0), 1.0), ((2, 0), 1.0),
                     ((-2, 0), 1.0), ((0, 1), 1.0), ((0, -1), 1.0)], 2)


# bytes one visit of a block charges against the cap, for kernels of at
# most 256 steps: three int64 buffers and three byte-wide ones
VISIT_BYTES = 27


def _blocks(kernel, n_max, reps, seed):
    """The yielded (x1, ranges) blocks, each copied: a yielded block is
    overwritten by the next."""
    return [(x1.copy(), ranges.copy())
            for x1, ranges in _ensemble_chunks(kernel, n_max, reps, seed)]


def _chunks(kernel, n_max, reps, seed):
    """The blocks' rows joined per chunk of `_CHUNK` paths."""
    blocks = _blocks(kernel, n_max, reps, seed)
    cuts = list(range(_CHUNK, reps, _CHUNK))
    # no block straddles two chunks
    assert set(cuts) <= set(np.cumsum([len(x1) for x1, _ in blocks]).tolist())
    x1, ranges = (np.concatenate(arrays) for arrays in zip(*blocks))
    return list(zip(np.split(x1, cuts), np.split(ranges, cuts)))


def _set_block_rows(monkeypatch, rows, n_max):
    """Make blocks of `rows` paths at `n_max` steps; None keeps the default."""
    if rows is not None:
        monkeypatch.setattr(scaling, "_BLOCK_VISITS", rows * (n_max + 1))


class TestPathEnsembles:
    @staticmethod
    def _final_ranges(kernel, n, reps, seed):
        return np.concatenate([ranges[:, -1] for _, ranges in
                               _blocks(kernel, n, reps, seed)])

    def test_zero_steps(self, srw2):
        assert np.all(self._final_ranges(srw2, 0, 50, 1) == 1)

    def test_one_step_always_moves(self, srw2):
        assert np.all(self._final_ranges(srw2, 1, 100, 1) == 2)

    def test_matches_enumeration_n4(self, srw2):
        est = estimate_from_samples(self._final_ranges(srw2, 4, 4000, 9))
        assert within(est, exact_range_mean(srw2, 4), k=3.0)

    def test_reproducible_and_chunk_invariant(self, srw2):
        a = survival_samples(srw2, 0.1, [3, 6], 700, 50, seed=5)
        b = survival_samples(srw2, 0.1, [3, 6], 700, 50, seed=5)
        assert np.array_equal(a, b)
        # a prefix of the replica stream is unchanged by asking for fewer reps
        c = survival_samples(srw2, 0.1, [3, 6], 300, 50, seed=5)
        assert np.array_equal(a[:256], c[:256])

    @pytest.mark.parametrize("name", ["srw2", "srw2_lazy", "srw3"])
    def test_range_profile_matches_enumeration(self, request, name):
        # column m of the profile is |X_[0,m]|, for every m up to n_max
        kernel = request.getfixturevalue(name)
        ranges = np.concatenate([r for _, r in _blocks(kernel, 4, 4000, 13)])
        assert ranges.shape == (4000, 5)
        for m in range(5):
            est = estimate_from_samples(ranges[:, m])
            exact = exact_range_mean(kernel, m)
            # columns 0 and 1 of srw2 and srw3 are constant (stderr 0); the
            # enumeration sums path probabilities with rounding
            assert abs(est.mean - exact) <= 4.0 * est.stderr + 1e-12 * exact, m

    def test_range_profile_counts_first_visits(self):
        codes = np.array([[5, 5, 3, 5, 3, 7],
                          [1, 2, 3, 4, 5, 6],
                          [0, 0, 0, 0, 0, 0],
                          [9, 1, 9, 1, 2, 1],
                          [-4, 2, -4, -5, 2, 0]])
        expected = [[1, 1, 2, 2, 2, 3],
                    [1, 2, 3, 4, 5, 6],
                    [1, 1, 1, 1, 1, 1],
                    [1, 2, 2, 2, 3, 3],
                    [1, 2, 2, 3, 3, 4]]
        keys = codes * 6 + np.arange(6)
        assert np.array_equal(
            _range_profile(keys, np.empty_like(keys),
                           np.empty(keys.shape, dtype=bool)), expected)
        assert np.array_equal(range_profile(codes), expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_site_codes_are_a_bijection_of_the_box(self, d):
        span = 3
        axis = np.arange(-span, span + 1)
        sites = np.stack(np.meshgrid(*[axis] * d, indexing="ij"),
                         axis=-1).reshape(-1, d)
        half = ((2 * span + 1) ** d - 1) // 2
        codes = sites @ _code_weights(d, span)
        assert sorted(codes.tolist()) == list(range(-half, half + 1))
        # the oracle's lexicographic codes are the same, shifted by half
        assert np.array_equal(site_codes(sites, span), codes + half)

    @pytest.mark.parametrize("name", ["srw2", "srw2_lazy", "srw3", "jump2"])
    @pytest.mark.parametrize("n_max, reps", [
        (40, 2 * _CHUNK + 37),  # a partial last chunk
        (0, _CHUNK + 5),
        (1, 3),
    ])
    @pytest.mark.parametrize("rows", [None, 1, 3, 100])
    def test_chunks_equal_position_oracle(self, request, monkeypatch, name,
                                          n_max, reps, rows):
        # the scalar-key walk reproduces the position-based ensemble exactly:
        # the same uniforms give the same steps, x1 and ranges, whether a
        # chunk is walked whole, one path at a time or in uneven blocks
        kernel = (JUMP2 if name == "jump2"
                  else request.getfixturevalue(name))
        _set_block_rows(monkeypatch, rows, n_max)
        chunks = _chunks(kernel, n_max, reps, (9, 2))
        expected = list(ensemble_chunks(kernel, n_max, reps, (9, 2)))
        assert len(chunks) == len(expected) == -(-reps // _CHUNK)
        for (x1, ranges), (pos, ref) in zip(chunks, expected):
            assert x1.shape == ranges.shape == pos.shape[:2]
            assert np.array_equal(x1, pos[:, :, 0])
            assert np.array_equal(ranges, ref)

    @pytest.mark.parametrize("name", ["srw2", "srw2_lazy", "srw3", "jump2"])
    def test_paths_start_at_origin_and_step_in_support(self, request, name):
        kernel = (JUMP2 if name == "jump2"
                  else request.getfixturevalue(name))
        pos = path_positions(kernel, 30, 40, np.random.default_rng(3))
        assert pos.shape == (40, 31, kernel.d)
        assert not pos[:, 0].any()
        steps = {tuple(s) for s in np.diff(pos, axis=1).reshape(-1, kernel.d)}
        # 1200 steps visit every support vector of these kernels
        assert steps == {tuple(s) for s in kernel.steps}
        (x1, _), = _ensemble_chunks(kernel, 30, 40, 3)
        assert not x1[:, 0].any()
        assert set(np.diff(x1, axis=1).ravel()) == set(kernel.steps[:, 0])

    @pytest.mark.parametrize("rows, sizes", [
        (None, [_CHUNK, _CHUNK, 10]),
        (100, [100, 100, 56, 100, 100, 56, 10]),
    ])
    def test_block_sizes(self, srw2, monkeypatch, rows, sizes):
        # a chunk is cut into blocks of `rows` paths; no block spans two
        _set_block_rows(monkeypatch, rows, 3)
        assert [x1.shape[0] for x1, _ in
                _ensemble_chunks(srw2, 3, 2 * _CHUNK + 10, 4)] == sizes

    @pytest.mark.parametrize("n_max, rows", [(3, _CHUNK), (200, 163),
                                             (40_000, 1)])
    def test_block_rows_from_path_length(self, n_max, rows):
        assert scaling._block_rows(n_max) == rows

    def test_chunk_c_drawn_from_replica_rng(self, srw2):
        # chunk c comes from replica_rng(seed, c) alone, so asking for fewer
        # paths leaves every leading whole chunk unchanged
        full = [x1 for x1, _ in _chunks(srw2, 6, 2 * _CHUNK, 4)]
        fewer = [x1 for x1, _ in _chunks(srw2, 6, _CHUNK + 1, 4)]
        for c in range(2):
            expected = path_positions(srw2, 6, _CHUNK, replica_rng(4, c))
            assert np.array_equal(full[c], expected[:, :, 0])
        assert np.array_equal(fewer[0], full[0])
        assert np.array_equal(
            fewer[1], path_positions(srw2, 6, 1, replica_rng(4, 1))[:, :, 0])

    def test_seed_changes_paths(self, srw2):
        (a, _), = _ensemble_chunks(srw2, 10, 100, 4)
        (b, _), = _ensemble_chunks(srw2, 10, 100, 5)
        assert not np.array_equal(a, b)

    def test_key_overflow_is_resource_error(self, srw3):
        # d = 3 keys code * (n+1) + t stay in int64 up to 38,967 steps,
        # walked one path per block
        (x1, ranges), = _chunks(srw3, 38967, 2, 0)
        (pos, ref), = ensemble_chunks(srw3, 38967, 2, 0)
        assert np.array_equal(x1, pos[:, :, 0])
        assert np.array_equal(ranges, ref)
        with pytest.raises(ResourceError, match="beyond int64"):
            next(_ensemble_chunks(srw3, 38968, 1, 0))

    def test_chunk_bytes_over_cap_is_resource_error(self, srw2,
                                                    monkeypatch):
        # one block of 256 paths is charged, VISIT_BYTES per visit:
        # 27 * 256 * 101 bytes at 100 steps, and 300 paths cost no more
        monkeypatch.setattr(green, "COLUMN_BYTES_CAP",
                            VISIT_BYTES * 256 * 101)
        assert len(list(_ensemble_chunks(srw2, 100, 300, 0))) == 2
        with pytest.raises(ResourceError, match="cap"):
            next(_ensemble_chunks(srw2, 101, 300, 0))

    def test_long_paths_charge_one_path(self, srw2, monkeypatch):
        # 256 paths of 200,000 steps (the d = 2 ensembles at eps = 1e-3)
        # pass the size check in Python ints, without allocating
        tracemalloc.start()
        try:
            _key_layout(srw2, 200_000, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        # past _BLOCK_VISITS a block is one path, so the cap bounds a
        # single path's length, checked before anything is drawn
        def no_draws(*args):
            raise AssertionError("uniforms drawn")

        monkeypatch.setattr(scaling, "replica_rng", no_draws)
        monkeypatch.setattr(green, "COLUMN_BYTES_CAP",
                            VISIT_BYTES * 50_001 - 1)
        with pytest.raises(ResourceError, match="1 paths of 50000 steps"):
            next(_ensemble_chunks(srw2, 50_000, 300, 0))

    def test_long_paths_equal_position_oracle(self, srw2):
        # two paths of 200,000 steps, each its own block
        (x1, ranges), = _chunks(srw2, 200_000, 2, 7)
        (pos, ref), = ensemble_chunks(srw2, 200_000, 2, 7)
        assert np.array_equal(x1, pos[:, :, 0])
        assert np.array_equal(ranges, ref)

    def test_block_loop_allocation_does_not_grow_with_length(self, srw2):
        # beyond the block's own buffers, VISIT_BYTES - 1 per visit (the
        # passage mask is survival_samples'), the walk allocates a fixed
        # amount whatever the path length
        for n_max in (20_000, 80_000):
            tracemalloc.start()
            try:
                for _ in _ensemble_chunks(srw2, n_max, 3, 0):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - (VISIT_BYTES - 1) * (n_max + 1) < 1 << 17, n_max

    @pytest.mark.parametrize("name", ["srw2_lazy", "srw3"])
    def test_survival_independent_of_block_size(self, request, monkeypatch,
                                                name):
        kernel = request.getfixturevalue(name)
        weights = []
        for rows in (None, 1, 7):
            _set_block_rows(monkeypatch, rows, 60)
            weights.append(survival_samples(kernel, 0.1, [2, 4], 600, 60,
                                            seed=(3, 1)))
        assert weights[0][:, 0].any()
        assert np.array_equal(weights[0], weights[1])
        assert np.array_equal(weights[0], weights[2])


class TestSurvival:
    def test_adjacent_one_step_weight(self, srw2):
        # a direct hit of the plane {x_1 >= 1} carries weight (1-p)^2:
        # range {0, (1, 0)} at the hit
        p = 0.4
        w = survival_samples(srw2, p, [1], 4000, 1, seed=3)[:, 0]
        hits = w[w > 0]
        assert np.allclose(hits, (1 - p) ** 2)
        frac = len(hits) / len(w)
        assert abs(frac - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / len(w))

    def test_density_near_one_vanishes(self, srw2):
        w = survival_samples(srw2, 0.999, [2], 2000, 30, seed=2)[:, 0]
        assert estimate_from_samples(w).mean <= 1e-4

    def test_matches_enumeration(self, srw2):
        exact = exact_plane_survival(srw2, 0.3, 2, 8)
        w = survival_samples(srw2, 0.3, [2], 30000, 8, seed=11)[:, 0]
        assert within(estimate_from_samples(w), exact, k=3.0)

    def test_dominated_by_hitting_indicator(self, srw2):
        w = survival_samples(srw2, 0.3, [2], 1500, 50, seed=5)[:, 0]
        hit = survival_samples(srw2, 0.0, [2], 1500, 50, seed=5)[:, 0]
        assert np.all(w <= hit + 1e-15)
        assert np.all((w > 0) == (hit > 0))

# symmetric under negation, not under x_2 -> -x_2: the plane exponent may
# differ from the axis one
UNREFLECTED = [((1, 1), 1.0), ((-1, -1), 1.0), ((1, 0), 1.0), ((-1, 0), 1.0),
               ((0, 1), 1.0), ((0, -1), 1.0)]


class TestPlaneSurvival:
    @staticmethod
    def _check(kernel, p, rs, n_max, reps, seed):
        w = survival_samples(kernel, p, rs, reps, n_max, seed)
        for t, r in enumerate(rs):
            est = estimate_from_samples(w[:, t])
            assert within(est, exact_plane_survival(kernel, p, r, n_max),
                          k=3.0)

    def test_matches_enumeration(self, srw2):
        self._check(srw2, 0.3, [1, 3], 8, 30000, 11)

    def test_overshooting_jumps_match_enumeration(self):
        # the +-2 steps jump over the plane: x_1 = r is never visited
        self._check(JUMP2, 0.3, [2, 3], 6, 30000, 12)

    def test_dominates_point_target(self, srw2):
        # the plane is reached no later than the site (3, 0) on it, with no
        # more distinct sites visited: point-target weights on the same paths
        plane = survival_samples(srw2, 0.3, [3], 1500, 40, seed=5)[:, 0]
        point = []
        for pos, ranges in ensemble_chunks(srw2, 40, 1500, 5):
            hit = np.all(pos == (3, 0), axis=2)
            t_hit = np.argmax(hit, axis=1)
            first = ranges[np.arange(len(pos)), t_hit]
            point.append(np.where(hit.any(axis=1), 0.7 ** first, 0.0))
        point = np.concatenate(point)
        assert np.count_nonzero(point) > 0
        assert np.all(point <= plane + 1e-15)

    def test_cli_rejects_unreflected_kernel(self, tmp_path):
        kernel = tmp_path / "skew.kernel"
        write_kernel_file(kernel, UNREFLECTED, 2)
        config = tmp_path / "mass.cfg"
        config.write_text(f"kernel_file = {kernel}\neps_list = 0.3 0.2 0.1\n"
                          "budget = 100\nseed = 1\n")
        out = tmp_path / "out"
        assert cli.main(["mass-scan", str(config), "--output-dir", str(out)]) == 2
        assert not out.exists()


class TestMassFit:
    def test_exact_exponential(self):
        r = np.arange(1.0, 9.0)
        fit = mass_fit(r, np.exp(-0.3 * r), np.zeros(len(r)))
        assert math.isclose(fit.mass, 0.3, abs_tol=1e-12)
        assert fit.stderr <= 1e-12

    def test_prefactor_invariance(self):
        r = np.arange(1.0, 9.0)
        base = mass_fit(r, np.exp(-0.3 * r), np.zeros(len(r)))
        scaled = mass_fit(r, 5.0 * np.exp(-0.3 * r), np.zeros(len(r)))
        assert abs(base.mass - scaled.mass) <= 1e-12

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        r = np.arange(2.0, 20.0)
        c = np.exp(-0.1 * r)
        noisy = c * (1.0 + 0.01 * rng.standard_normal(len(r)))
        fit = mass_fit(r, noisy, 0.01 * c)
        assert abs(fit.mass - 0.1) <= 2.0 * fit.stderr

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValidationError):
            mass_fit(np.arange(1.0, 5.0), np.array([1.0, 0.5, -0.1, 0.2]),
                     np.zeros(4))

    def test_rejects_short_window(self):
        with pytest.raises(ValidationError):
            mass_fit(np.array([1.0, 2.0]), np.array([1.0, 0.5]), np.zeros(2))

    def test_monotone_flag_on_clean_curve(self):
        r = np.arange(1.0, 12.0)
        fit = mass_fit(r, np.exp(-0.25 * r), np.zeros(len(r)))
        assert fit.monotone_ok


class TestScans:
    def test_synthetic_exponent_passthrough(self, srw2):
        # bypass simulation: inject synthetic masses through the fit path
        eps = np.array([0.2, 0.1, 0.05, 0.02])
        from gffpin.scaling import _wls_line

        slope, se, _, _ = _wls_line(np.log(eps), 0.5 * np.log(eps),
                                       np.zeros(4))
        assert math.isclose(slope, 0.5, abs_tol=1e-12)

    def test_surrogate_density_mappings(self, srw2, srw3):
        assert surrogate_density(0.1, 3, "default") == 0.1
        assert math.isclose(surrogate_density(0.1, 2, "default"),
                            0.1 / math.sqrt(abs(math.log(0.1))))
        assert surrogate_density(0.1, 2, "direct") == 0.1

    def test_small_mass_scan_d3(self, srw3):
        res = mass_scan(srw3, [0.3, 0.2, 0.1], "bernoulli-surrogate",
                        budget=6000, seed=4, mapping="default",
                        region_radius=None, samples=None)
        exponent = dict(res.fit)["exponent"]
        assert np.isfinite(exponent)
        assert 0.2 <= exponent <= 0.9
        assert all(q["value"] > 0 for q in res.points)

    def test_variance_policy_floor(self):
        # 1.5 * eps^-1/2 |log eps| rounded up, and at least 8
        assert variance_box_policy(0.03) == 31
        assert variance_box_policy(0.3) == 8

    def test_slope_reference_lazification_invariant(self, srw2, srw2_lazy):
        assert math.isclose(variance_slope_reference(srw2),
                            variance_slope_reference(srw2_lazy),
                            rel_tol=1e-12)
        assert math.isclose(variance_slope_reference(srw2), 1.0 / math.pi,
                            rel_tol=1e-12)

    def test_variance_scan_n0_fails_before_chains(self, srw2_lazy,
                                                  monkeypatch):
        # n0 at eps = 5e-4 is 878,265 steps, and its Fourier torus is past
        # the cell cap; it is refused before the first chain runs
        def no_chains(*args, **kwargs):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(scaling.pinning, "chain_mean", no_chains)
        with pytest.raises(ResourceError, match="torus"):
            variance_scan(srw2_lazy, [0.1, 0.01, 5e-4], budget=8, seed=0,
                          replicas=REPLICAS, box_radius=None)

    def test_green_steps_formula(self, srw2_lazy):
        for eps in (0.5, 0.3, 0.1, 0.05):
            assert _green_steps(srw2_lazy, eps) == \
                math.ceil(abs(math.log(eps)) ** scaling.ETA / eps)
        assert _green_steps(srw2_lazy, 0.05) == 538

    def test_green_steps_overflow_is_resource_error(self, srw2_lazy):
        with pytest.raises(ResourceError, match="overflows"):
            _green_steps(srw2_lazy, 5e-324)

    def test_variance_scan_small(self, srw2_lazy):
        res = variance_scan(srw2_lazy, [0.5, 0.3, 0.2], budget=120, seed=3,
                            replicas=3, box_radius=6)
        vals = [q["value"] for q in res.points]
        assert vals[0] < vals[1] < vals[2]
        assert all(q["gn0"] > 0 for q in res.points)


class TestSandwich:
    def test_exact_covariance_between_bernoulli_mixtures(self, srw2_lazy):
        # every site of a 4x4 box may pin; exact enumeration
        region = Region(srw2_lazy, (-2, -2), (1, 1))
        sites = [tuple(s) for s in region.sites]
        probes = [((-2, 0), (1, 0))]  # distance 3
        gvals = subset_green_table(region, probes)[:, 0]
        sizes = np.array([bin(m).count("1") for m in range(1 << 16)])
        for eps in (0.3, 0.5):
            exact = float(exact_pin_measure(region, eps) @ gvals)
            p_lo, p_hi = domination_densities(region, eps, sites)
            logw_lo = sizes * math.log(p_lo) + (16 - sizes) * math.log1p(-p_lo)
            logw_hi = sizes * math.log(p_hi) + (16 - sizes) * math.log1p(-p_hi)
            bern_lo = float(np.exp(logw_lo - logw_lo.max())
                            / np.exp(logw_lo - logw_lo.max()).sum() @ gvals)
            bern_hi = float(np.exp(logw_hi - logw_hi.max())
                            / np.exp(logw_hi - logw_hi.max()).sum() @ gvals)
            assert bern_hi - 1e-12 <= exact <= bern_lo + 1e-12
            assert p_lo <= p_hi
