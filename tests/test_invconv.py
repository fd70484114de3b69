import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fincflow.errors import IndivisibleChannels, ShapeMismatch, TooLargeForDense
from fincflow.invconv import (
    UNIT_ORIENTATIONS,
    FincFlowUnit,
    InvertStats,
    MaskedKernel,
    anchor_position,
    apply_anchor_mask,
    build_conv_matrix,
    canonical_permutation,
    dense_invert,
    identity_kernel,
    identity_unit,
    mask_anchor_gradient,
    pcb_backward,
    pcb_forward,
    pcb_invert_reference,
    pcb_invert_wavefront,
    random_masked_kernel,
    random_unit,
    unit_backward,
    unit_forward,
    unit_invert,
    vectorize_hwc,
)
from fincflow.invconv import _conv_matrix
from fincflow.tensor import Orientation, channel_split, flip


def example_pcb(dtype=np.float64):
    """k=2 TL kernel [[1,2],[3,1]] whose forward action on [[1,2],[3,4]]
    was worked out by direct evaluation of the padded convolution."""
    w = np.array([[[[1.0, 2.0], [3.0, 1.0]]]], dtype=dtype)
    return MaskedKernel(w, Orientation.TL)


X_EXAMPLE = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
Y_EXAMPLE = np.array([[[[1.0, 5.0], [5.0, 18.0]]]])


def test_forward_hand_example():
    y = pcb_forward(X_EXAMPLE, example_pcb())
    assert np.allclose(y, Y_EXAMPLE, atol=0)


def test_forward_identity_kernel_bit_exact():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
    for o in Orientation:
        pcb = identity_kernel(3, 3, o, np.float32)
        assert np.array_equal(pcb_forward(x, pcb), x)


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("c,k", [(1, 2), (2, 3), (4, 2)])
def test_forward_matches_dense_matrix(orientation, c, k):
    rng = np.random.default_rng(11)
    pcb = random_masked_kernel(c, k, orientation, rng)
    x = rng.normal(size=(2, c, 5, 6))
    y = pcb_forward(x, pcb)
    m = build_conv_matrix(pcb, 5, 6)
    want = (m @ vectorize_hwc(x).T).T
    assert np.max(np.abs(vectorize_hwc(y) - want)) < 1e-12


def test_forward_channel_mismatch():
    pcb = identity_kernel(2, 3, Orientation.TL)
    with pytest.raises(ShapeMismatch):
        pcb_forward(np.zeros((1, 3, 4, 4)), pcb)


def flip_axes(orientation):
    """Axes along which to flip to turn this orientation into TL."""
    return tuple(name for name, padded in (("height", orientation.pads_top),
                                           ("width", orientation.pads_left)) if not padded)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_orientation_reduces_to_tl_exactly(orientation):
    rng = np.random.default_rng(5)
    c, k = 2, 3
    pcb = random_masked_kernel(c, k, orientation, rng)
    x = rng.normal(size=(1, c, 4, 5))
    axes = flip_axes(orientation)
    ax_ids = tuple(a for name, a in (("height", 2), ("width", 3)) if name in axes)
    w_tl = np.flip(pcb.weights, axis=ax_ids) if ax_ids else pcb.weights
    tl = MaskedKernel(np.ascontiguousarray(w_tl), Orientation.TL)
    via_tl = flip(pcb_forward(flip(x, axes), tl), axes)
    assert np.array_equal(pcb_forward(x, pcb), via_tl)


# ---------------------------------------------------------------------------
# dense matrix oracle


def test_conv_matrix_fig_structure():
    # 3x3 single-channel image, k=2, TL: 9x9 lower triangular, unit diagonal
    rng = np.random.default_rng(1)
    pcb = random_masked_kernel(1, 2, Orientation.TL, rng)
    m = build_conv_matrix(pcb, 3, 3)
    assert m.shape == (9, 9)
    assert np.array_equal(np.triu(m, 1), np.zeros((9, 9)))
    assert np.array_equal(np.diag(m), np.ones(9))


def test_conv_matrix_identity_kernel():
    pcb = identity_kernel(2, 3, Orientation.BR)
    m = build_conv_matrix(pcb, 4, 4)
    assert np.array_equal(m, np.eye(32))


def raster_positions(orientation, h, w):
    """Pixel (i, j)'s position in the orientation's raster order, the map
    ``dense_invert`` builds its matrix with."""
    return canonical_permutation(orientation, h, w, 1).reshape(h, w)


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("h,w", [(2, 5), (5, 3), (1, 4), (3, 4)])
def test_raster_order_matrix_is_the_permuted_hwc_matrix(orientation, k, h, w):
    rng = np.random.default_rng([k, h, w])
    c = 2
    pcb = random_masked_kernel(c, k, orientation, rng)
    perm = canonical_permutation(orientation, h, w, c)
    want = build_conv_matrix(pcb, h, w)[np.ix_(perm, perm)]
    got = _conv_matrix(pcb, raster_positions(orientation, h, w))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    y = rng.normal(size=(2, c, h, w))
    wf = pcb_invert_wavefront(y, pcb)
    assert np.max(np.abs(dense_invert(y, pcb) - wf)) < 1e-12
    assert np.max(np.abs(pcb_invert_reference(y, pcb) - wf)) < 1e-12


@pytest.mark.parametrize("orientation", list(Orientation))
def test_conv_matrix_triangular_and_det_one(orientation):
    rng = np.random.default_rng(2)
    c, h, w, k = 3, 4, 5, 3
    pcb = random_masked_kernel(c, k, orientation, rng)
    m = build_conv_matrix(pcb, h, w)
    mc = _conv_matrix(pcb, raster_positions(orientation, h, w))  # the matrix dense_invert solves
    assert np.array_equal(np.triu(mc, 1), np.zeros_like(mc))
    assert np.array_equal(np.diag(mc), np.ones(h * w * c))
    assert np.prod(np.diag(mc)) == 1.0
    # each row has at most k*k*C nonzeros
    assert int((m != 0).sum(axis=1).max()) <= k * k * c


def test_conv_matrix_dense_cap():
    pcb = identity_kernel(8, 3, Orientation.TL)
    with pytest.raises(TooLargeForDense):
        build_conv_matrix(pcb, 32, 32)


# ---------------------------------------------------------------------------
# inversion


def test_invert_reference_hand_example():
    x = pcb_invert_reference(Y_EXAMPLE, example_pcb())
    assert np.allclose(x, X_EXAMPLE, atol=1e-14)


def test_invert_reference_identity_kernel():
    rng = np.random.default_rng(3)
    y = rng.normal(size=(1, 2, 4, 4))
    pcb = identity_kernel(2, 3, Orientation.TL)
    assert np.array_equal(pcb_invert_reference(y, pcb), y)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_invert_reference_matches_dense(orientation):
    rng = np.random.default_rng(4)
    c = 4
    pcb = random_masked_kernel(c, 3, orientation, rng)
    y = rng.normal(size=(2, c, 8, 8))
    ref = pcb_invert_reference(y, pcb)
    dns = dense_invert(y, pcb)
    assert np.max(np.abs(ref - dns)) < 1e-9


def test_wavefront_hand_example_and_phase_count():
    stats = InvertStats()
    x = pcb_invert_wavefront(Y_EXAMPLE, example_pcb(), stats=stats)
    assert np.allclose(x, X_EXAMPLE, atol=1e-14)
    assert stats.phases == 2 + 2 - 1


def test_wavefront_32x32_phase_and_element_bounds():
    rng = np.random.default_rng(6)
    c, k = 2, 3
    pcb = random_masked_kernel(c, k, Orientation.TL, rng)
    y = rng.normal(size=(1, c, 32, 32))
    stats = InvertStats()
    pcb_invert_wavefront(y, pcb, stats=stats)
    assert stats.phases == 63
    assert stats.max_element_madds <= k * k * c


def madds_enumeration(h, w, k, c, n=1, groups=1):
    """Count in-bounds non-anchor taps over all output elements directly."""
    total = 0
    for i in range(h):
        for j in range(w):
            taps = min(k, i + 1) * min(k, j + 1) - 1
            total += taps * c  # k_c loop per tap
    return total * c * n * groups  # one count per output channel


@pytest.mark.parametrize(
    "h,w,k,c", [(4, 4, 2, 1), (5, 7, 3, 2), (8, 8, 5, 3), (2, 9, 5, 2), (3, 1, 1, 2)]
)
def test_wavefront_madds_match_enumeration(h, w, k, c):
    rng = np.random.default_rng(7)
    pcb = random_masked_kernel(c, k, Orientation.TL, rng)
    y = rng.normal(size=(2, c, h, w))
    stats = InvertStats()
    pcb_invert_wavefront(y, pcb, stats=stats)
    assert stats.madds == madds_enumeration(h, w, k, c, n=2)
    assert stats.phases == h + w - 1
    # a unit stacks its four blocks as groups sharing every phase
    unit = random_unit(4 * c, k, rng)
    stats = InvertStats()
    unit_invert(rng.normal(size=(2, 4 * c, h, w)), unit, stats=stats)
    assert stats.madds == madds_enumeration(h, w, k, c, n=2, groups=4)
    assert stats.phases == h + w - 1


@pytest.mark.parametrize("orientation", list(Orientation))
def test_wavefront_matches_reference_all_orientations(orientation):
    rng = np.random.default_rng(8)
    c = 3
    pcb = random_masked_kernel(c, 3, orientation, rng)
    y = rng.normal(size=(2, c, 6, 9))
    wf = pcb_invert_wavefront(y, pcb)
    ref = pcb_invert_reference(y, pcb)
    assert np.max(np.abs(wf - ref)) < 1e-9


def test_wavefront_multichunk_threading_bit_identical():
    # a 64-image batch is one sweep on the calling thread: repeatable to
    # the bit and an f32 round trip
    rng = np.random.default_rng(42)
    c, k = 2, 3
    pcb = random_masked_kernel(c, k, Orientation.TL, rng, np.float32)
    x = rng.normal(size=(64, c, 16, 16)).astype(np.float32)
    y = pcb_forward(x, pcb)
    first = pcb_invert_wavefront(y, pcb)
    assert np.array_equal(first, pcb_invert_wavefront(y, pcb))
    assert np.max(np.abs(first - x)) < 1e-4


def test_wavefront_rejects_workers_below_one():
    # unit_invert keeps its no-op workers keyword, and still checks it
    unit = random_unit(8, 3, np.random.default_rng(9))
    with pytest.raises(ShapeMismatch, match="workers"):
        unit_invert(np.zeros((1, 8, 4, 4)), unit, workers=0)


def test_wavefront_takes_no_worker_count():
    # stats is keyword-only, so a stale positional worker count is an error
    pcb = random_masked_kernel(2, 3, Orientation.TL, np.random.default_rng(9))
    with pytest.raises(TypeError):
        pcb_invert_wavefront(np.zeros((1, 2, 4, 4)), pcb, 2)


def test_triple_oracle_agreement_f64():
    rng = np.random.default_rng(10)
    for c, h, w, k in [(1, 4, 4, 2), (2, 8, 8, 3), (4, 8, 8, 5), (2, 16, 16, 3)]:
        for o in Orientation:
            pcb = random_masked_kernel(c, k, o, rng)
            y = rng.normal(size=(1, c, h, w))
            wf = pcb_invert_wavefront(y, pcb)
            ref = pcb_invert_reference(y, pcb)
            dns = dense_invert(y, pcb)
            assert np.max(np.abs(wf - ref)) < 1e-9
            assert np.max(np.abs(wf - dns)) < 1e-9
            assert np.max(np.abs(ref - dns)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(1, 4),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    k=st.sampled_from([2, 3]),
    o=st.sampled_from(list(Orientation)),
    seed=st.integers(0, 2**31),
)
def test_round_trip_property_f64(c, h, w, k, o, seed):
    rng = np.random.default_rng(seed)
    pcb = random_masked_kernel(c, k, o, rng)
    x = rng.normal(size=(1, c, h, w))
    y = pcb_forward(x, pcb)
    back = pcb_invert_wavefront(y, pcb)
    assert np.max(np.abs(back - x)) < 1e-9


def test_round_trip_f32_tolerance():
    rng = np.random.default_rng(12)
    c, k = 8, 3
    pcb = random_masked_kernel(c, k, Orientation.TL, rng, np.float32)
    x = rng.normal(size=(2, c, 32, 32)).astype(np.float32)
    back = pcb_invert_wavefront(pcb_forward(x, pcb), pcb)
    assert np.max(np.abs(back - x)) < 1e-4


# ---------------------------------------------------------------------------
# unit


def test_unit_identity_round_trip():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 8, 5, 5))
    unit = identity_unit(8, 3)
    y, logdet = unit_forward(x, unit)
    assert np.array_equal(y, x)
    assert logdet == 0.0
    assert np.array_equal(unit_invert(x, unit), x)


def test_unit_logdet_exactly_zero_random():
    rng = np.random.default_rng(14)
    unit = random_unit(8, 3, rng)
    x = rng.normal(size=(2, 8, 6, 6))
    _, logdet = unit_forward(x, unit)
    assert logdet == 0.0


def test_unit_orientation_order():
    assert UNIT_ORIENTATIONS == (
        Orientation.TL,
        Orientation.TR,
        Orientation.BR,
        Orientation.BL,
    )
    with pytest.raises(ShapeMismatch):
        FincFlowUnit(
            [identity_kernel(1, 3, o) for o in reversed(UNIT_ORIENTATIONS)]
        )


def test_unit_forward_matches_blockwise_dense():
    rng = np.random.default_rng(15)
    unit = random_unit(8, 3, rng)
    x = rng.normal(size=(1, 8, 6, 6))
    y, _ = unit_forward(x, unit)
    for q_in, q_out, blk in zip(channel_split(x, 4), channel_split(y, 4), unit.blocks):
        m = build_conv_matrix(blk, 6, 6)
        want = (m @ vectorize_hwc(q_in).T).T
        assert np.max(np.abs(vectorize_hwc(q_out) - want)) < 1e-9


def test_unit_invert_round_trip_f32():
    rng = np.random.default_rng(16)
    unit = random_unit(8, 3, rng, np.float32)
    x = rng.normal(size=(2, 8, 16, 16)).astype(np.float32)
    y, _ = unit_forward(x, unit)
    back = unit_invert(y, unit)
    assert np.max(np.abs(back - x)) < 1e-4


def test_unit_invert_matches_per_block_reference():
    rng = np.random.default_rng(17)
    for k, shape in [(3, (2, 8, 8, 8)), (5, (3, 8, 6, 9))]:
        unit = random_unit(shape[1], k, rng)
        y = rng.normal(size=shape)
        whole = unit_invert(y, unit)
        parts = [
            pcb_invert_reference(q, blk)
            for q, blk in zip(channel_split(y, 4), unit.blocks)
        ]
        assert np.max(np.abs(whole - np.concatenate(parts, axis=1))) < 1e-9, (k, shape)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-9), (np.float32, 1e-4)])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("h, w", [(6, 10), (8, 8)])
def test_unit_invert_batch_of_one(h, w, k, dtype, tol):
    # one image runs its diagonals with the pixels as matmul rows; it must
    # still match both oracles, the same image inverted inside a batch,
    # and the phase and multiply-add counts of a batch
    rng = np.random.default_rng(h * 100 + k)
    unit = random_unit(8, k, rng, dtype)
    batch = rng.normal(size=(3, 8, h, w)).astype(dtype)
    y = batch[1:2]
    one, three = InvertStats(), InvertStats()
    x = unit_invert(y, unit, stats=one)
    assert x.dtype == dtype
    in_batch = unit_invert(batch, unit, stats=three)[1:2]
    assert np.max(np.abs(x - in_batch)) < (1e-12 if dtype == np.float64 else 1e-5)
    quarters = channel_split(y, 4)
    dense = [dense_invert(q.astype(np.float64), blk) for q, blk in zip(quarters, unit.blocks)]
    ref = [pcb_invert_reference(q, blk) for q, blk in zip(quarters, unit.blocks)]
    assert np.max(np.abs(x - np.concatenate(dense, axis=1))) < tol
    assert np.max(np.abs(x - np.concatenate(ref, axis=1))) < tol
    assert one.phases == three.phases == h + w - 1
    assert one.madds == madds_enumeration(h, w, k, 2, n=1, groups=4)
    assert 3 * one.madds == three.madds
    assert one.max_element_madds == three.max_element_madds


def test_unit_invert_shares_barrier_phases():
    rng = np.random.default_rng(18)
    unit = random_unit(8, 3, rng)
    y = rng.normal(size=(1, 8, 12, 12))
    stats = InvertStats()
    unit_invert(y, unit, stats=stats)
    assert stats.phases == 12 + 12 - 1
    assert stats.max_element_madds <= 3 * 3 * 2  # per-block C is 2


def test_unit_channel_contract():
    unit = identity_unit(8, 3)
    with pytest.raises(IndivisibleChannels):
        unit_forward(np.zeros((1, 6, 4, 4)), unit)
    with pytest.raises(IndivisibleChannels):
        unit_invert(np.zeros((1, 6, 4, 4)), unit)


# ---------------------------------------------------------------------------
# anchor mask


def test_apply_anchor_mask_sets_identity_and_is_idempotent():
    rng = np.random.default_rng(19)
    for o in Orientation:
        raw = MaskedKernel(rng.normal(size=(3, 3, 4, 4)), o)
        masked = apply_anchor_mask(raw)
        ah, aw = anchor_position(o, 4)
        assert np.array_equal(masked.weights[:, :, ah, aw], np.eye(3))
        twice = apply_anchor_mask(masked)
        assert np.array_equal(twice.weights, masked.weights)
        # all other taps untouched
        untouched = masked.weights.copy()
        untouched[:, :, ah, aw] = raw.weights[:, :, ah, aw]
        assert np.array_equal(untouched, raw.weights)


def test_mask_anchor_gradient_zeros_anchor():
    rng = np.random.default_rng(20)
    g = rng.normal(size=(2, 2, 3, 3))
    out = mask_anchor_gradient(g, Orientation.BL)
    ah, aw = anchor_position(Orientation.BL, 3)
    assert np.array_equal(out[:, :, ah, aw], np.zeros((2, 2)))
    out[:, :, ah, aw] = g[:, :, ah, aw]
    assert np.array_equal(out, g)


# ---------------------------------------------------------------------------
# backward (used by the flow layer)


def test_pcb_backward_matches_matrix_transpose():
    rng = np.random.default_rng(21)
    c, h, w = 2, 4, 5
    for o in Orientation:
        pcb = random_masked_kernel(c, 3, o, rng)
        x = rng.normal(size=(1, c, h, w))
        gy = rng.normal(size=(1, c, h, w))
        gx, _ = pcb_backward(gy, x, pcb)
        m = build_conv_matrix(pcb, h, w)
        want = (m.T @ vectorize_hwc(gy).T).T
        assert np.max(np.abs(vectorize_hwc(gx) - want)) < 1e-12


def test_pcb_backward_weights_finite_difference():
    rng = np.random.default_rng(22)
    c, k = 2, 3
    pcb = random_masked_kernel(c, k, Orientation.TR, rng)
    x = rng.normal(size=(2, c, 4, 5))
    gy = rng.normal(size=(2, c, 4, 5))
    _, gw = pcb_backward(gy, x, pcb)
    eps = 1e-6
    w0 = pcb.weights
    fd = np.zeros_like(gw)
    for idx in np.ndindex(*w0.shape):
        wp = w0.copy()
        wp[idx] += eps
        wm = w0.copy()
        wm[idx] -= eps
        yp = pcb_forward(x, MaskedKernel(wp, Orientation.TR))
        ym = pcb_forward(x, MaskedKernel(wm, Orientation.TR))
        fd[idx] = ((yp - ym) * gy).sum() / (2 * eps)
    assert np.max(np.abs(fd - gw)) < 1e-7


def test_unit_backward_shapes():
    rng = np.random.default_rng(23)
    unit = random_unit(8, 3, rng)
    x = rng.normal(size=(1, 8, 4, 4))
    gy = rng.normal(size=(1, 8, 4, 4))
    gx, gws = unit_backward(gy, x, unit)
    assert gx.shape == x.shape
    assert len(gws) == 4
    assert all(gw.shape == (2, 2, 3, 3) for gw in gws)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_unit_paths_equal_per_block_paths_exactly(dtype, k):
    """A unit runs its four quarters through flipped views of one input
    and one output; every result must equal the per-block calls on the
    quarters, concatenated, bit for bit, and leave the input untouched."""
    for n, h, w in [(1, 5, 7), (3, 5, 7), (1, 1, 6), (3, 1, 6)]:
        rng = np.random.default_rng([k, n, h, w])
        unit = random_unit(8, k, rng, dtype)
        x = rng.normal(size=(n, 8, h, w)).astype(dtype)
        gy = rng.normal(size=(n, 8, h, w)).astype(dtype)
        x_before, gy_before = x.copy(), gy.copy()
        y, _ = unit_forward(x, unit)
        gx, gws = unit_backward(gy, x, unit)
        back = unit_invert(x, unit)
        assert np.array_equal(x, x_before) and np.array_equal(gy, gy_before)

        blocks = list(zip(channel_split(x, 4), channel_split(gy, 4), unit.blocks))
        per_block = [pcb_backward(gq, xq, blk) for xq, gq, blk in blocks]
        want_y = np.concatenate([pcb_forward(xq, blk) for xq, _, blk in blocks], axis=1)
        want_back = np.concatenate([pcb_invert_wavefront(xq, blk) for xq, _, blk in blocks], axis=1)
        case = (n, h, w)
        assert np.array_equal(y, want_y), case
        assert np.array_equal(gx, np.concatenate([gxq for gxq, _ in per_block], axis=1)), case
        for gw, (_, want_gw) in zip(gws, per_block):
            assert gw.dtype == want_gw.dtype and np.array_equal(gw, want_gw), case
        assert np.array_equal(back, want_back), case
        for out in (y, gx, back, *gws):
            assert out.dtype == dtype
            assert not np.shares_memory(out, x) and not np.shares_memory(out, gy), case
