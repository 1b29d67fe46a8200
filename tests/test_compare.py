"""Tests for the unpaired two-group comparison."""

import numpy as np
import pytest

from frfstats import (
    DegenerateSpread,
    GridMismatch,
    SyntheticSpec,
    derive_grid,
    generate_synthetic,
    lowpass_mean_frf,
)
from frfstats import compare, resampling
from frfstats.bands import Band
from frfstats.compare import compare_unpaired, residual_frf, residuals
from frfstats.pir import FRFSet, pir_matrix
from frfstats.resampling import MAX_REDRAWS, BootstrapConfig, IndexStreams, c_at, ecdf

from support import (
    EXPERIMENT_FREQS,
    CountingStreams,
    FixedStreams,
    MirroredStreams,
    traced_peak,
)

GRID = derive_grid([0.3, 0.5])


def group(seed, n=8, m=2, center=0.0, spread=0.5):
    rng = np.random.default_rng(seed)
    noise = spread * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    return FRFSet(center + noise)


def test_identical_groups_never_reject():
    frfs = group(1)
    cfg = BootstrapConfig(replications=40, nested_replications=8, seed=2)
    result = compare_unpaired(frfs, frfs, GRID, 0.95, cfg)
    np.testing.assert_array_equal(result.diff_mean, 0.0)
    np.testing.assert_array_equal(result.residuals, 0.0)
    assert not result.reject_null
    assert result.band.contains(np.zeros(GRID.n_samples))


def test_pool_sizes_match_config():
    cfg = BootstrapConfig(replications=23, nested_replications=7, seed=3)
    result = compare_unpaired(group(4), group(5, n=6), GRID, 0.9, cfg)
    assert result.draws.stats.shape == (23,)
    assert result.draws.sigma_indices1.shape == (7, 8)
    assert result.draws.sigma_indices2.shape == (7, 6)
    assert result.draws.outer_indices1.shape == (23, 8)
    assert result.draws.outer_indices2.shape == (23, 6)


def test_swapping_groups_negates_everything():
    a, b = group(6), group(7, n=6, center=0.4)
    cfg = BootstrapConfig(replications=50, nested_replications=8, seed=8)
    fwd = compare_unpaired(a, b, GRID, 0.95, cfg)
    rev = compare_unpaired(
        b, a, GRID, 0.95, cfg, streams=MirroredStreams(IndexStreams(cfg.seed))
    )
    np.testing.assert_array_equal(rev.diff_mean, -fwd.diff_mean)
    np.testing.assert_array_equal(rev.sigma, fwd.sigma)
    np.testing.assert_array_equal(rev.draws.stats, fwd.draws.stats)
    assert rev.band.scale == fwd.band.scale
    np.testing.assert_array_equal(rev.residuals, -fwd.residuals)
    assert rev.reject_null == fwd.reject_null


def test_translation_leaves_comparison_unchanged():
    a, b = group(9), group(10, n=6)
    offset = np.array([1.5 - 0.5j, -2.0 + 1.0j])
    cfg = BootstrapConfig(replications=40, nested_replications=8, seed=11)
    plain = compare_unpaired(a, b, GRID, 0.95, cfg)
    shifted = compare_unpaired(
        FRFSet(a.values + offset), FRFSet(b.values + offset), GRID, 0.95, cfg
    )
    np.testing.assert_allclose(shifted.diff_mean, plain.diff_mean, atol=1e-12)
    np.testing.assert_allclose(shifted.sigma, plain.sigma, atol=1e-12)
    assert shifted.band.scale == pytest.approx(plain.band.scale, abs=1e-12)


def test_well_separated_groups_reject():
    a = group(12, n=10)
    b = FRFSet(group(13, n=10).values + np.array([3.0 + 0.0j, 0.0 + 0.0j]))
    cfg = BootstrapConfig(replications=80, nested_replications=10, seed=14)
    result = compare_unpaired(a, b, GRID, 0.95, cfg)
    assert result.reject_null
    assert np.any(result.residuals != 0.0)
    # The injected difference sits at the first grid frequency.
    mags = np.abs(result.residual_frf.values)
    assert mags[0] > mags[1]


def test_residuals_pointwise_oracle():
    band = Band(
        mean=np.array([2.0, -3.0, 0.5, -0.5]),
        std=np.array([0.5, 1.0, 1.0, 1.0]),
        scale=1.0,
        alpha=0.9,
    )
    r = residuals(band)
    expected = []
    for lo, hi in zip(band.lower, band.upper):
        if lo > 0:
            expected.append(lo)
        elif hi < 0:
            expected.append(hi)
        else:
            expected.append(0.0)
    np.testing.assert_allclose(r, expected, atol=1e-15)


def test_residual_frf_localizes_a_sinusoid():
    grid = derive_grid(EXPERIMENT_FREQS)
    r = np.cos(2.0 * np.pi * 0.55 * grid.times)
    h = residual_frf(r, grid)
    k = list(grid.frequencies).index(0.55)
    mags = np.abs(h.values)
    assert mags[k] == pytest.approx(1.0, abs=1e-9)
    others = np.delete(mags, k)
    assert np.max(others) < 1e-9


def test_injected_indices_match_loop_arithmetic():
    grid = derive_grid([1.0])
    a = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    b = FRFSet(np.array([[0.5 + 0.5j], [-1.0 + 0.0j], [1.0 + 1.0j]]))
    # One stream per group: first its (Bs, n) sigma block, then
    # replication 0's (1 + Bs, n) block, the outer resample then nested
    # positions.
    table = {
        2: [[[0, 1, 1], [1, 0, 2]], [[2, 1, 0], [1, 1, 2], [0, 2, 2]]],
        3: [[[2, 2, 0], [0, 1, 2]], [[0, 0, 1], [2, 0, 1], [1, 1, 0]]],
    }
    cfg = BootstrapConfig(replications=1, nested_replications=2, seed=0)
    result = compare_unpaired(a, b, grid, 0.5, cfg, streams=FixedStreams(table))

    p1, p2 = pir_matrix(a, grid), pir_matrix(b, grid)
    xm = p1.mean(axis=0) - p2.mean(axis=0)
    np.testing.assert_allclose(result.diff_mean, xm, atol=1e-12)

    sdiffs = [
        p1[[0, 1, 1]].mean(axis=0) - p2[[2, 2, 0]].mean(axis=0),
        p1[[1, 0, 2]].mean(axis=0) - p2[[0, 1, 2]].mean(axis=0),
    ]
    mean_s = (sdiffs[0] + sdiffs[1]) / 2.0
    var_s = (sdiffs[0] - mean_s) ** 2 + (sdiffs[1] - mean_s) ** 2
    np.testing.assert_allclose(result.sigma, np.sqrt(var_s), atol=1e-12)

    yb1, yb2 = p1[[2, 1, 0]], p2[[0, 0, 1]]
    xb = yb1.mean(axis=0) - yb2.mean(axis=0)
    ndiffs = [
        yb1[[1, 1, 2]].mean(axis=0) - yb2[[2, 0, 1]].mean(axis=0),
        yb1[[0, 2, 2]].mean(axis=0) - yb2[[1, 1, 0]].mean(axis=0),
    ]
    mean_n = (ndiffs[0] + ndiffs[1]) / 2.0
    var_n = (ndiffs[0] - mean_n) ** 2 + (ndiffs[1] - mean_n) ** 2
    sb = np.sqrt(var_n)
    stat = np.max(np.abs(xm - xb) / sb)
    assert result.draws.stats[0] == pytest.approx(stat, abs=1e-12)


def test_degenerate_replication_is_redrawn():
    grid = derive_grid([1.0])
    a = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    b = FRFSet(np.array([[0.5 + 0.5j], [-1.0 + 0.0j], [1.0 + 1.0j]]))
    cfg = BootstrapConfig(replications=1, nested_replications=2, seed=0)
    sigma = {2: [[[0, 1, 1], [1, 0, 2]]], 3: [[[2, 2, 0], [0, 1, 2]]]}
    valid = {
        2: [[[2, 1, 0], [1, 1, 2], [0, 2, 2]]],
        3: [[[0, 0, 1], [2, 0, 1], [1, 1, 0]]],
    }
    # An outer resample of one repeated member has zero nested spread in
    # both groups, so the replication must take each stream's next block.
    degenerate = {
        2: [[[1, 1, 1], [0, 1, 2], [2, 0, 1]]],
        3: [[[2, 2, 2], [1, 2, 0], [0, 0, 1]]],
    }

    def streams(blocks):
        # Each group stream serves its sigma block, then the replication's.
        return FixedStreams({k: sigma[k] + blocks[k] for k in sigma})

    direct = compare_unpaired(a, b, grid, 0.5, cfg, streams=streams(valid))
    for redraws in (1, MAX_REDRAWS):
        redrawn = compare_unpaired(
            a, b, grid, 0.5, cfg,
            streams=streams({k: degenerate[k] * redraws + valid[k] for k in valid}),
        )
        np.testing.assert_array_equal(redrawn.draws.outer_indices1, [[2, 1, 0]])
        np.testing.assert_array_equal(redrawn.draws.outer_indices2, [[0, 0, 1]])
        np.testing.assert_array_equal(redrawn.draws.stats, direct.draws.stats)

    exhausted = streams({k: degenerate[k] * (MAX_REDRAWS + 1) for k in valid})
    message = (
        f"a comparison replication kept zero nested spread after {MAX_REDRAWS} redraws"
    )
    with pytest.raises(DegenerateSpread, match=message):
        compare_unpaired(a, b, grid, 0.5, cfg, streams=exhausted)


@pytest.mark.parametrize("replications", [1, 50])
def test_one_stream_per_group_serves_every_draw(replications):
    a, b = group(17), group(18, n=6, center=0.3)
    bs = 7
    cfg = BootstrapConfig(replications=replications, nested_replications=bs, seed=19)
    streams = CountingStreams(cfg.seed)
    result = compare_unpaired(a, b, GRID, 0.95, cfg, streams=streams)
    assert streams.built == 2

    # Each group's sigma block is the first call on its stream, as in
    # layout 4, and replication 0's block is the next one.
    p1, p2 = pir_matrix(a, GRID), pir_matrix(b, GRID)
    sigma_idx, outer0 = [], []
    for g, n in enumerate((a.n, b.n)):
        gen = IndexStreams(cfg.seed).stream(2 + g)
        sigma_idx.append(gen.integers(0, n, size=(bs, n)))
        outer0.append(gen.integers(0, n, size=(1 + bs, n))[0])
    np.testing.assert_array_equal(result.draws.sigma_indices1, sigma_idx[0])
    np.testing.assert_array_equal(result.draws.sigma_indices2, sigma_idx[1])
    # The gathered std of the sigma resamples, equal up to rounding to the
    # nested spread of the identity resample that the comparison computes.
    sigma = np.array(
        [p1[i].mean(axis=0) - p2[j].mean(axis=0) for i, j in zip(*sigma_idx)]
    ).std(axis=0, ddof=1)
    np.testing.assert_allclose(result.sigma, sigma, rtol=1e-12)
    np.testing.assert_array_equal(result.draws.outer_indices1[0], outer0[0])
    np.testing.assert_array_equal(result.draws.outer_indices2[0], outer0[1])


def test_every_resample_mean_comes_from_one_helper(monkeypatch):
    # sigma is the nested spread of the identity resample, and every drawn
    # block, the redrawn one included, is weighed once by the same helper,
    # with its outer resample and its own weights.
    calls = []
    helper = compare._weigh_blocks

    def recorded(blocks):
        weighed = [(np.array(outer), np.array(w)) for outer, w in helper(blocks)]
        calls.append((np.array(blocks), weighed))
        return iter(weighed)

    def weights(block):
        [(_, w)] = helper(np.array(block)[None])
        return w

    monkeypatch.setattr(compare, "_weigh_blocks", recorded)
    grid = derive_grid([1.0])
    # The groups differ in size, so each call's blocks name the PIR matrix
    # they index by their width.
    a = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    b = FRFSet(np.array([[0.5 + 0.5j], [-1.0 + 0.0j], [1.0 + 1.0j], [0.2 - 0.7j]]))
    cfg = BootstrapConfig(replications=2, nested_replications=2, seed=0)
    sigma = {2: [[[0, 1, 1], [1, 0, 2]]], 3: [[[2, 3, 0, 1], [0, 1, 2, 3]]]}
    # Replication 0's first blocks have zero nested spread and are redrawn.
    blocks = {
        2: [[[1, 1, 1], [0, 1, 2], [2, 0, 1]], [[2, 1, 0], [1, 1, 2], [0, 2, 2]],
            [[0, 2, 1], [2, 2, 0], [1, 0, 0]]],
        3: [[[3, 3, 3, 3], [1, 2, 0, 3], [0, 0, 1, 2]],
            [[0, 0, 1, 3], [2, 0, 1, 3], [1, 3, 0, 2]],
            [[1, 2, 0, 3], [0, 3, 2, 1], [2, 1, 1, 0]]],
    }
    streams = FixedStreams({k: sigma[k] + blocks[k] for k in sigma})
    result = compare_unpaired(a, b, grid, 0.5, cfg, streams=streams)
    np.testing.assert_array_equal(result.draws.outer_indices1, [[2, 1, 0], [0, 2, 1]])
    np.testing.assert_array_equal(result.draws.outer_indices2, [[0, 0, 1, 3], [1, 2, 0, 3]])

    drawn = (result.draws.sigma_indices1, result.draws.sigma_indices2)
    per_group = []
    for g, (key, frfs) in enumerate(((2, a), (3, b))):
        # The group's calls, in order: its sigma block, then each batch.
        mine = [call for call in calls if call[0].shape[-1] == frfs.n]
        np.testing.assert_array_equal(drawn[g], sigma[key][0])
        identity = np.vstack([np.arange(frfs.n), drawn[g]])
        np.testing.assert_array_equal(mine[0][0], identity[None])
        ((outer, w),) = mine[0][1]
        np.testing.assert_array_equal(outer, np.arange(frfs.n))
        np.testing.assert_array_equal(w, weights(identity))
        pairs = [pair for _, batch in mine[1:] for pair in batch]
        for (outer, w), block in zip(pairs, blocks[key], strict=True):
            np.testing.assert_array_equal(outer, block[0])
            np.testing.assert_array_equal(w, weights(block))
        per_group.append(mine[0][1] + pairs)

    # Each group's weights meet its own PIR matrix and FRF coefficients:
    # sigma and the accepted replications' statistics, from the recorded
    # weights.
    groups = [Group(a, grid), Group(b, grid)]

    def spread(i):
        return coefficient_spread(groups, [per_group[0][i], per_group[1][i]])

    np.testing.assert_array_equal(result.sigma, spread(0)[1])
    diff_mean = groups[0].pirs.mean(axis=0) - groups[1].pirs.mean(axis=0)
    for rep, i in enumerate((2, 3)):
        xb, nested_std = spread(i)
        assert result.draws.stats[rep] == np.max(np.abs(diff_mean - xb) / nested_std)


class Group:
    """A group's PIR matrix, its FRF coefficients [Re H, Im H] and the
    grid's basis, the PIRs of the 2m unit responses."""

    def __init__(self, frfs, grid):
        self.pirs = pir_matrix(frfs, grid)
        self.coefs = np.hstack([frfs.values.real, frfs.values.imag])
        eye = np.eye(grid.m)
        self.basis = pir_matrix(FRFSet(np.vstack([eye, 1j * eye])), grid)

    def holds_still(self, outer, w):
        """Per time point: every member with a nonzero nested weight equals
        the outer resample's first member there."""
        weighted = (w[1:] != 0.0).any(axis=0)
        return (self.pirs[weighted] == self.pirs[outer[0]]).all(axis=0)


def coefficient_spread(groups, weighed):
    """The mean difference and nested std of one block per group, ``(outer,
    w)``, as the comparison forms them: the nested means on the FRF
    coefficients, their difference mapped to time by the basis, and zero
    variance where both groups hold still."""
    (g1, (o1, w1)), (g2, (o2, w2)) = zip(groups, weighed)
    c = w1[1:] @ (g1.coefs - g1.coefs[o1[0]]) - w2[1:] @ (g2.coefs - g2.coefs[o2[0]])
    dev = c @ g1.basis
    var = (dev * dev).sum(axis=0)
    var[g1.holds_still(o1, w1) & g2.holds_still(o2, w2)] = 0.0
    bs = len(w1) - 1
    return w1[0] @ g1.pirs - w2[0] @ g2.pirs, np.sqrt(var / (bs - 1))


def pir_spread(groups, weighed):
    """The same on the PIRs, with the paper's nested means ``w[1:] @ (p -
    p[outer[0]])``: equal up to rounding, exact zeros included."""
    (g1, (o1, w1)), (g2, (o2, w2)) = zip(groups, weighed)
    p1, p2 = g1.pirs, g2.pirs
    dev = w1[1:] @ (p1 - p1[o1[0]]) - w2[1:] @ (p2 - p2[o2[0]])
    bs = len(w1) - 1
    return w1[0] @ p1 - w2[0] @ p2, np.sqrt((dev * dev).sum(axis=0) / (bs - 1))


def reference_compare(set1, set2, grid, alpha, cfg, streams, nested=coefficient_spread):
    """The comparison drawn one block per ``integers`` call, with the
    arithmetic of the loop before batching (``np.vstack``, ``.mean``), and
    each block's mean difference and nested std from `nested`."""
    bs = cfg.nested_replications
    groups = [Group(set1, grid), Group(set2, grid)]
    pirs = [g.pirs for g in groups]

    def weighed(draw):
        n = draw.shape[1]
        picks = np.vstack([draw[0], draw[0][draw[1:]]])
        rows = picks + n * np.arange(picks.shape[0])[:, None]
        w = np.bincount(rows.ravel(), minlength=picks.size).reshape(picks.shape) / n
        w[1:] -= w[1:].mean(axis=0)
        return draw[0], w

    def spread(draw1, draw2):
        return nested(groups, [weighed(draw1), weighed(draw2)])

    ns = (set1.n, set2.n)
    gens = [streams.stream(compare.GROUP_KEY_OFFSET + g) for g in (0, 1)]
    sigma_blocks = [gen.integers(0, n, size=(bs, n)) for gen, n in zip(gens, ns)]
    _, sigma = spread(*(np.vstack([np.arange(n), block])
                        for n, block in zip(ns, sigma_blocks)))
    diff_mean = pirs[0].mean(axis=0) - pirs[1].mean(axis=0)
    outer, stats = ([], []), []
    for _ in range(cfg.replications):
        for _ in range(1 + MAX_REDRAWS):
            blocks = [gen.integers(0, n, size=(1 + bs, n)) for gen, n in zip(gens, ns)]
            xb, nested_std = spread(*blocks)
            if (nested_std > 0.0).all():
                break
        else:
            raise DegenerateSpread("reference replication kept zero nested spread")
        for g in (0, 1):
            outer[g].append(blocks[g][0])
        stats.append(np.max(np.abs(diff_mean - xb) / nested_std))
    band = Band(mean=diff_mean, std=sigma, scale=c_at(ecdf(stats), alpha), alpha=alpha)
    return dict(sigma_indices1=sigma_blocks[0], sigma_indices2=sigma_blocks[1],
                outer_indices1=np.array(outer[0]), outer_indices2=np.array(outer[1]),
                stats=np.array(stats), sigma=sigma, diff_mean=diff_mean,
                lower=band.lower, upper=band.upper, scale=band.scale,
                residuals=residuals(band))


def assert_matches_reference(result, ref):
    for name in result.draws.__dataclass_fields__:
        assert np.array_equal(getattr(result.draws, name), ref[name]), name
    for name in ("sigma", "diff_mean", "residuals"):
        assert np.array_equal(getattr(result, name), ref[name]), name
    assert np.array_equal(result.band.lower, ref["lower"])
    assert np.array_equal(result.band.upper, ref["upper"])
    assert result.band.scale == ref["scale"]


@pytest.mark.parametrize("replications", [12, 70], ids=["within-one-batch", "past-the-cap"])
def test_batched_blocks_match_one_call_per_block(replications):
    # (1 + Bs) * N is odd for both groups, so a block ends halfway through
    # a 64-bit draw of the generator.
    a, b = group(30, n=21), group(31, n=25, center=0.2)
    bs = 50
    assert (1 + bs) * a.n % 2 == 1 and (1 + bs) * b.n % 2 == 1
    if replications == 70:
        assert replications > compare._batch_blocks(a.n, bs)
        assert replications > compare._batch_blocks(b.n, bs)
    cfg = BootstrapConfig(replications=replications, nested_replications=bs, seed=32)
    result = compare_unpaired(a, b, GRID, 0.95, cfg)
    ref = reference_compare(a, b, GRID, 0.95, cfg, IndexStreams(cfg.seed))
    assert_matches_reference(result, ref)


def test_redraw_inside_a_batch_matches_one_call_per_block():
    grid = derive_grid([1.0])
    a = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    b = FRFSet(np.array([[0.5 + 0.5j], [-1.0 + 0.0j], [1.0 + 1.0j]]))
    cfg = BootstrapConfig(replications=3, nested_replications=2, seed=0)
    # Replication 1's first blocks, the second of the first batch of three,
    # have zero nested spread; its redraw is the batch's third block, and
    # replication 2 takes a batch of one.
    table = {
        2: [[[0, 1, 1], [1, 0, 2]],
            [[2, 1, 0], [1, 1, 2], [0, 2, 2]], [[1, 1, 1], [0, 1, 2], [2, 0, 1]],
            [[0, 2, 1], [2, 2, 0], [1, 0, 0]], [[1, 0, 2], [0, 0, 1], [2, 1, 2]]],
        3: [[[2, 2, 0], [0, 1, 2]],
            [[0, 0, 1], [2, 0, 1], [1, 1, 0]], [[2, 2, 2], [1, 2, 0], [0, 0, 1]],
            [[1, 2, 0], [0, 0, 2], [2, 1, 1]], [[2, 1, 1], [1, 0, 2], [0, 2, 0]]],
    }
    streams = FixedStreams(table)
    result = compare_unpaired(a, b, grid, 0.5, cfg, streams=streams)
    ref = reference_compare(a, b, grid, 0.5, cfg, FixedStreams(table))
    assert_matches_reference(result, ref)
    np.testing.assert_array_equal(result.draws.outer_indices1, [[2, 1, 0], [0, 2, 1], [1, 0, 2]])
    # Every canned block was drawn, and none past them.
    assert not any(streams._table.values())


def test_redraws_in_two_batches_match_one_call_per_block(monkeypatch):
    grid = derive_grid([1.0])
    a = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    b = FRFSet(np.array([[0.5 + 0.5j], [-1.0 + 0.0j], [1.0 + 1.0j]]))
    monkeypatch.setattr(resampling, "_BATCH_BYTES", 2 * (1 + 2) * 3 * 16)
    assert compare._batch_blocks(3, 2) == 2
    cfg = BootstrapConfig(replications=4, nested_replications=2, seed=0)
    # Batches of 2, 2, 1 and 1 blocks: replication 0's first blocks and
    # replication 3's first blocks have zero nested spread, so one redraw
    # falls inside the first batch and the other takes a batch of its own.
    table = {
        2: [[[0, 1, 1], [1, 0, 2]],
            [[1, 1, 1], [0, 1, 2], [2, 0, 1]], [[2, 1, 0], [1, 1, 2], [0, 2, 2]],
            [[0, 2, 1], [2, 2, 0], [1, 0, 0]], [[1, 0, 2], [0, 0, 1], [2, 1, 2]],
            [[0, 0, 0], [1, 2, 0], [2, 2, 1]], [[2, 0, 1], [0, 1, 1], [2, 2, 0]]],
        3: [[[2, 2, 0], [0, 1, 2]],
            [[2, 2, 2], [1, 2, 0], [0, 0, 1]], [[0, 0, 1], [2, 0, 1], [1, 1, 0]],
            [[1, 2, 0], [0, 0, 2], [2, 1, 1]], [[2, 1, 1], [1, 0, 2], [0, 2, 0]],
            [[1, 1, 1], [0, 2, 1], [2, 1, 0]], [[0, 1, 2], [1, 2, 2], [0, 0, 1]]],
    }
    streams = FixedStreams(table)
    result = compare_unpaired(a, b, grid, 0.5, cfg, streams=streams)
    ref = reference_compare(a, b, grid, 0.5, cfg, FixedStreams(table))
    assert_matches_reference(result, ref)
    np.testing.assert_array_equal(
        result.draws.outer_indices1, [[2, 1, 0], [0, 2, 1], [1, 0, 2], [2, 0, 1]]
    )
    # Every canned block was drawn, and none past them.
    assert not any(streams._table.values())


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "rate, n, bs, rtol",
    [(22.0, 20, 20, 1e-12), (4.5, 200, 20, 1e-12), (22.0, 3, 2, 1e-9)],
    ids=["T440-N20", "T90-N200", "T440-N3-Bs2"],
)
def test_nested_std_matches_the_pir_space_oracle(rate, n, bs, rtol, seed):
    # The paper's nested std, formed on the PIRs, draws the same indices
    # and gives sigma and every statistic up to rounding; with three
    # members and two nested resamples a spread can be a small difference
    # of large terms, so it is checked more loosely there.
    grid = derive_grid(EXPERIMENT_FREQS, rate)
    mean = lowpass_mean_frf(grid)
    a = generate_synthetic(SyntheticSpec(mean, noise_std=0.1, n=n), seed=10 * seed)
    b = generate_synthetic(SyntheticSpec(mean, noise_std=0.1, n=n, gain_factor=1.3),
                           seed=10 * seed + 1)
    cfg = BootstrapConfig(replications=200, nested_replications=bs, seed=seed)
    result = compare_unpaired(a, b, grid, 0.95, cfg)
    ref = reference_compare(a, b, grid, 0.95, cfg, IndexStreams(cfg.seed), nested=pir_spread)
    for name in result.draws.__dataclass_fields__:
        if name != "stats":
            assert np.array_equal(getattr(result.draws, name), ref[name]), name
    np.testing.assert_allclose(result.sigma, ref["sigma"], rtol=rtol, atol=0.0)
    np.testing.assert_allclose(result.draws.stats, ref["stats"], rtol=rtol, atol=0.0)
    assert result.band.scale == pytest.approx(ref["scale"], rel=rtol, abs=0.0)
    assert result.reject_null == bool(np.any(ref["residuals"] != 0.0))


def test_degenerate_groups_raise():
    row = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    a = FRFSet(np.tile(row, (4, 1)))
    cfg = BootstrapConfig(replications=5, nested_replications=4, seed=0)
    with pytest.raises(DegenerateSpread):
        compare_unpaired(a, a, GRID, 0.95, cfg)


def test_sigma_with_zero_spread_is_refused_before_any_replication():
    # Group 2's two sigma resamples hold the same members reordered and
    # group 3's are equal, so every nested mean difference is the same:
    # sigma is zero and the band would have zero width.  The replication
    # blocks have spread, so only the sigma refusal can raise.
    grid = derive_grid([1.0])
    a = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    b = FRFSet(np.array([[0.5 + 0.5j], [-1.0 + 0.0j], [1.0 + 1.0j]]))
    table = {
        2: [[[2, 1, 0], [2, 0, 1]], [[2, 1, 0], [1, 1, 2], [0, 2, 2]]],
        3: [[[0, 0, 2], [0, 0, 2]], [[0, 0, 1], [2, 0, 1], [1, 1, 0]]],
    }
    cfg = BootstrapConfig(replications=1, nested_replications=2, seed=0)
    streams = FixedStreams(table)
    message = "^the comparison's sigma has zero spread at some time point$"
    with pytest.raises(DegenerateSpread, match=message):
        compare_unpaired(a, b, grid, 0.5, cfg, streams=streams)
    # Only the sigma blocks were drawn.
    assert [len(streams._table[k]) for k in table] == [1, 1]


def test_zero_spread_at_one_time_point_is_caught_exactly():
    # On a one-frequency grid the PIR at t = 0 is the real part, so members
    # that differ only in their imaginary parts agree there exactly: sigma
    # and every nested spread are zero at t = 0 and no redraw can help.
    # Unshifted count-weight means leave a rounding-sized spread there
    # instead.
    grid = derive_grid([1.0])
    rng = np.random.default_rng(15)
    a = FRFSet(0.1 + 1j * rng.standard_normal((8, 1)))
    b = FRFSet(0.7 + 1j * rng.standard_normal((6, 1)))
    assert np.ptp(pir_matrix(a, grid)[:, 0]) == 0.0
    assert np.ptp(pir_matrix(b, grid)[:, 0]) == 0.0
    cfg = BootstrapConfig(replications=5, nested_replications=8, seed=16)
    with pytest.raises(DegenerateSpread):
        compare_unpaired(a, b, grid, 0.95, cfg)


def test_members_with_equal_pirs_hold_still():
    # Members 0 and 1 of each group differ by 1e-30 in one real part, which
    # their PIRs do not resolve: their PIR rows are equal, bit for bit.
    # Outer resamples that pick only those two have exactly zero nested
    # spread in PIR space, so the replication is redrawn and takes the next
    # blocks, as after a resample of one repeated member; the nested means
    # on the FRF coefficients alone would leave a spread of about 1e-30.
    grid = GRID
    a = FRFSet(np.array([[1.0 + 0.5j, 0.0 + 0.25j], [1.0 + 0.5j, 1e-30 + 0.25j],
                         [-0.5 + 0.2j, 0.3 - 0.1j]]))
    b = FRFSet(np.array([[0.0 - 0.4j, 0.7 + 0.6j], [1e-30 - 0.4j, 0.7 + 0.6j],
                         [0.9 + 0.3j, -0.4 + 0.2j]]))
    for frfs in (a, b):
        assert not np.array_equal(frfs.values[0], frfs.values[1])
        p = pir_matrix(frfs, grid)
        assert np.array_equal(p[0], p[1])
    cfg = BootstrapConfig(replications=1, nested_replications=2, seed=0)
    sigma = {2: [[[0, 1, 2], [2, 2, 0]]], 3: [[[2, 0, 1], [1, 2, 2]]]}
    valid = {
        2: [[[2, 1, 0], [1, 1, 2], [0, 2, 2]]],
        3: [[[0, 2, 1], [2, 0, 1], [1, 1, 0]]],
    }
    still = {
        2: [[[1, 0, 1], [0, 1, 2], [1, 1, 0]]],
        3: [[[0, 1, 0], [2, 2, 1], [0, 1, 1]]],
    }

    def streams(blocks):
        return FixedStreams({k: sigma[k] + blocks[k] for k in sigma})

    direct = compare_unpaired(a, b, grid, 0.5, cfg, streams=streams(valid))
    redrawn = compare_unpaired(
        a, b, grid, 0.5, cfg, streams=streams({k: still[k] + valid[k] for k in valid})
    )
    np.testing.assert_array_equal(redrawn.draws.outer_indices1, [[2, 1, 0]])
    np.testing.assert_array_equal(redrawn.draws.outer_indices2, [[0, 2, 1]])
    np.testing.assert_array_equal(redrawn.draws.stats, direct.draws.stats)
    np.testing.assert_array_equal(redrawn.sigma, direct.sigma)


def test_a_group_weighing_only_its_first_pick_holds_still_everywhere():
    # Group 1's nested weights are nonzero for its first pick alone, as a
    # rounded centring can leave them: its nested deviations are exactly
    # zero at every time point, tie column or not, so wherever group 2
    # holds still (t = 0, where all its members agree) both do.
    p1 = pir_matrix(group(50, n=3), GRID)
    p2 = pir_matrix(FRFSet(0.4 + 1j * np.random.default_rng(51).standard_normal((3, 2))), GRID)
    ties = [resampling._tie_columns(p) for p in (p1, p2)]
    assert ties[0].size == 0 and 0 in ties[1]
    np.testing.assert_array_equal(np.flatnonzero(np.ptp(p2, axis=0) == 0.0), [0])
    w1 = np.array([[1, 1, 1], [0, 1e-17, 0], [0, -1e-17, 0]]) / 3
    w2 = np.array([[1, 1, 1], [1, -1, 0], [-1, 1, 0]]) / 3
    held = compare._held([p1, p2], ties, ([1, 0, 2], [2, 0, 1]), (w1, w2))
    np.testing.assert_array_equal(np.flatnonzero(held), [0])


def tied_at_zero(rng, grid, n):
    """A group tied at t = 0, bit for bit: the bench's low-pass mean times a
    common gain plus a common real offset, with noise in the imaginary
    parts only."""
    gain, offset = rng.uniform(0.5, 2.0), rng.normal()
    noise = 1j * rng.normal(scale=0.1, size=(n, grid.m))
    frfs = FRFSet(lowpass_mean_frf(grid) * gain + offset + noise)
    assert np.ptp(pir_matrix(frfs, grid)[:, 0]) == 0.0
    return frfs


def test_groups_tied_at_one_time_point_refuse_sigma():
    # Both groups agree within themselves at t = 0, so every nested mean
    # difference is exactly zero there: sigma has zero spread in every set.
    grid = derive_grid(EXPERIMENT_FREQS, 22.0)
    rng = np.random.default_rng(44)
    cfg = BootstrapConfig(replications=20, nested_replications=20, seed=0)
    message = "^the comparison's sigma has zero spread at some time point$"
    for _ in range(40):
        a, b = tied_at_zero(rng, grid, 20), tied_at_zero(rng, grid, 20)
        with pytest.raises(DegenerateSpread, match=message):
            compare_unpaired(a, b, grid, 0.95, cfg)


@pytest.mark.parametrize("seed", range(3))
def test_one_group_tied_at_one_time_point_keeps_the_others_spread(seed):
    # Only group 1 holds still at t = 0; group 2's nested means move there,
    # so sigma and every statistic are the PIR-space oracle's up to
    # rounding, with no zero forced.
    grid = derive_grid(EXPERIMENT_FREQS, 22.0)
    a = tied_at_zero(np.random.default_rng(seed), grid, 20)
    b = generate_synthetic(SyntheticSpec(lowpass_mean_frf(grid), noise_std=0.1, n=20),
                           seed=seed)
    cfg = BootstrapConfig(replications=200, nested_replications=20, seed=seed)
    result = compare_unpaired(a, b, grid, 0.95, cfg)
    ref = reference_compare(a, b, grid, 0.95, cfg, IndexStreams(cfg.seed), nested=pir_spread)
    np.testing.assert_array_equal(result.draws.outer_indices1, ref["outer_indices1"])
    np.testing.assert_allclose(result.sigma, ref["sigma"], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(result.draws.stats, ref["stats"], rtol=1e-12, atol=0.0)
    assert result.band.scale == pytest.approx(ref["scale"], rel=1e-12, abs=0.0)


def test_validation():
    cfg = BootstrapConfig(replications=5, nested_replications=4, seed=0)
    # A group of two is refused in either position, before any draw.
    for set1, set2 in [(group(1, n=2), group(2)), (group(1), group(2, n=2))]:
        streams = CountingStreams(cfg.seed)
        with pytest.raises(ValueError, match="^need at least three samples in each group$"):
            compare_unpaired(set1, set2, GRID, 0.95, cfg, streams=streams)
        assert streams.built == 0
    with pytest.raises(ValueError):
        compare_unpaired(group(1), group(2), GRID, 1.5, cfg)
    with pytest.raises(GridMismatch):
        compare_unpaired(group(1, m=3), group(2, m=3), GRID, 0.95, cfg)


def test_comparison_memory_is_one_replication_deep():
    # T = 440 and N = 200: Bs = 50 resamples gathered at once would be
    # 4.4M doubles (35 MB) per group.
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(42)
    values = rng.standard_normal((400, grid.m)) + 1j * rng.standard_normal((400, grid.m))
    set1, set2 = FRFSet(values[:200]), FRFSet(values[200:])
    cfg = BootstrapConfig(replications=4, nested_replications=50, seed=43)

    result, peak = traced_peak(lambda: compare_unpaired(set1, set2, grid, 0.95, cfg))
    outputs = sum(
        arr.nbytes
        for arr in (
            *(getattr(result.draws, k) for k in result.draws.__dataclass_fields__),
            result.diff_mean, result.sigma, result.residuals,
            result.band.upper, result.band.lower,
            result.stat_ecdf.pool,
            result.residual_frf.values,
        )
    )
    assert peak < outputs + 8 * set1.n * grid.n_samples * 8


def test_comparison_memory_is_bounded_in_replications():
    # The blocks are drawn in batches of at most `resampling._BATCH_BYTES`
    # per group, so ten times the replications add only the record's rows:
    # B x N indices and B statistics.
    a, b = group(33, n=20), group(34, n=20)
    peaks = {}
    for replications in (200, 2000):
        cfg = BootstrapConfig(replications=replications, nested_replications=50, seed=35)
        result, peaks[replications] = traced_peak(
            lambda: compare_unpaired(a, b, GRID, 0.95, cfg)
        )
    extra = 2000 - 200
    itemsize = result.draws.outer_indices1.itemsize
    assert peaks[2000] - peaks[200] <= extra * (a.n + b.n) * itemsize + extra * 8


def test_type_one_error_rate_small():
    cfg_base = dict(replications=60, nested_replications=8)
    rejections = 0
    runs = 20
    for run in range(runs):
        a = group(100 + run, n=8)
        b = group(200 + run, n=8)
        cfg = BootstrapConfig(seed=run, **cfg_base)
        rejections += compare_unpaired(a, b, GRID, 0.95, cfg).reject_null
    assert rejections / runs <= 0.25
