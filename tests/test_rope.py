import numpy as np
import pytest

from lag import config, rope
from lag._kernels import rotate_pairs
from lag.config import ModelConfig
from lag.errors import ConfigurationError, PositionError
from lag.model import build_model, encode
from lag.rope import cos_sin_table, reposition_segment
from tests.oracles import angles, reposition_error, rope_apply, rope_strip


def test_angles_zero_position():
    assert np.array_equal(angles(8, 0), np.zeros(4))


def test_angles_closed_form():
    # base^0 = 1, base^(-1/2) = 0.01 for base 10000, head_dim 4
    got = angles(4, 1)
    assert np.allclose(got, [1.0, 0.01], atol=1e-12)


def test_angles_linear_in_position():
    assert np.allclose(angles(16, 2), 2 * angles(16, 1))


@pytest.mark.parametrize("head_dim", [7, 0, -2])
def test_table_refuses_an_odd_or_non_positive_head_dim(head_dim):
    with pytest.raises(ConfigurationError):
        cos_sin_table(head_dim, np.arange(3))
    with pytest.raises(ConfigurationError):
        cos_sin_table(head_dim, np.array([7 * rope.MAX_TABLE_ROWS]))
    assert head_dim not in rope._TABLES


def test_the_config_base_sets_both_the_fingerprint_and_the_rows(monkeypatch):
    positions = np.array([-9, 0, 1, 5, 300])
    pinned = ModelConfig().fingerprint()
    rows = cos_sin_table(16, positions)
    monkeypatch.setattr(config, "ROPE_BASE", 500.0)
    monkeypatch.setattr(rope, "_TABLES", {})  # tables built at the old base
    assert ModelConfig().fingerprint() != pinned
    assert not np.array_equal(cos_sin_table(16, positions)[1], rows[1])
    assert_rows_match_grid(16, positions)


def test_apply_quarter_turn():
    assert np.allclose(rope_apply((1.0, 0.0), np.pi / 2), [0.0, 1.0], atol=1e-12)


def test_apply_zero_angle_is_identity(rng):
    x = rng.standard_normal(2)
    assert np.array_equal(rope_apply(x, 0.0), x)


def test_apply_preserves_norm(rng):
    for _ in range(1000):
        x = rng.standard_normal(2)
        theta = rng.uniform(-30, 30)
        assert np.isclose(np.linalg.norm(rope_apply(x, theta)), np.linalg.norm(x))


def test_strip_inverts_apply():
    x = np.array([0.3, -1.2])
    assert np.allclose(rope_strip(rope_apply(x, 1.7), 1.7), x, atol=1e-6)


def test_strip_zero_angle(rng):
    y = rng.standard_normal(2)
    assert np.array_equal(rope_strip(y, 0.0), y)


def test_strip_equals_apply_negative_angle(rng):
    y = rng.standard_normal(2)
    assert np.allclose(rope_strip(y, 0.9), rope_apply(y, -0.9), atol=1e-12)


@pytest.fixture()
def segment(small_model, rng):
    tokens = rng.integers(0, 256, 10).tolist()
    seg, _ = encode(small_model, tokens, 5)
    return seg


def test_reposition_same_positions_is_identity(segment):
    moved = reposition_segment(segment, segment.positions)
    for l in range(segment.num_layers):
        assert np.abs(moved.keys[l] - segment.keys[l]).max() <= 1e-6


def test_reposition_matches_longhand_oracle(segment, rng):
    moved = reposition_segment(segment, np.arange(50, 60))
    assert reposition_error(segment, moved) <= 1e-6
    # large jumps on the default model: far back to the start, and from the
    # start to near max_positions (4096)
    model = build_model(ModelConfig())
    for start, new_start in ((3000, 0), (0, 3900)):
        seg, _ = encode(model, rng.integers(0, 256, 12).tolist(), start)
        moved = reposition_segment(seg, np.arange(new_start, new_start + 12))
        assert reposition_error(seg, moved) <= 1e-6


@pytest.mark.parametrize("head_dim", [8, 16])
def test_reposition_rotates_at_the_head_dim_of_the_keys(head_dim, rng):
    model = build_model(ModelConfig(num_layers=2, head_dim=head_dim, max_positions=512))
    seg, _ = encode(model, rng.integers(0, 256, 9).tolist(), 40)
    assert seg.head_dim == head_dim
    moved = reposition_segment(seg, np.arange(300, 309))
    assert reposition_error(seg, moved) <= 1e-6


def test_reposition_leaves_values_bit_identical(segment):
    moved = reposition_segment(segment, np.arange(30, 40))
    for l in range(segment.num_layers):
        assert np.array_equal(moved.values[l], segment.values[l])


def test_reposition_round_trip(segment):
    there = reposition_segment(segment, np.arange(100, 110))
    back = reposition_segment(there, segment.positions)
    for l in range(segment.num_layers):
        assert np.abs(back.keys[l] - segment.keys[l]).max() <= 1e-5


def test_reposition_composition(segment):
    q = np.arange(200, 210)
    r = np.arange(7, 17)
    via_q = reposition_segment(reposition_segment(segment, q), r)
    direct = reposition_segment(segment, r)
    for l in range(segment.num_layers):
        assert np.abs(via_q.keys[l] - direct.keys[l]).max() <= 1e-5


def test_reposition_preserves_subvector_norms(segment):
    moved = reposition_segment(segment, np.arange(400, 410))
    for l in range(segment.num_layers):
        before = segment.keys[l].reshape(segment.num_kv_heads, segment.span_len, -1, 2)
        after = moved.keys[l].reshape(segment.num_kv_heads, segment.span_len, -1, 2)
        assert np.abs(
            np.linalg.norm(before, axis=-1) - np.linalg.norm(after, axis=-1)
        ).max() <= 1e-6


def test_reposition_length_mismatch(segment):
    with pytest.raises(PositionError):
        reposition_segment(segment, np.arange(3))
    with pytest.raises(PositionError):
        reposition_segment(segment, np.zeros(segment.span_len, dtype=np.int64))


def test_rotate_keys_matches_scalar_apply(rng):
    keys = rng.standard_normal((2, 4, 6)).astype(np.float32)
    positions = np.array([3, 10, 11, 40])
    rotated = rotate_pairs(keys, *cos_sin_table(6, positions))
    for h in range(2):
        for t in range(4):
            theta = angles(6, int(positions[t]))
            for i in range(3):
                want = rope_apply(keys[h, t, 2 * i : 2 * i + 2], theta[i])
                assert np.allclose(rotated[h, t, 2 * i : 2 * i + 2], want, atol=1e-6)


def float64_grid_rows(head_dim, positions):
    """Reference: float32 of cos/sin of the float64 angle grid at the
    config's base, half width."""
    i = np.arange(head_dim // 2, dtype=np.float64)
    freq = config.ROPE_BASE ** (-2.0 * i / head_dim)
    grid = np.asarray(positions, dtype=np.float64)[:, None] * freq[None, :]
    return np.cos(grid).astype(np.float32), np.sin(grid).astype(np.float32)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


def assert_rows_match_grid(head_dim, positions):
    cos, sin = cos_sin_table(head_dim, positions)
    want_cos, want_sin = float64_grid_rows(head_dim, positions)
    assert cos.shape == sin.shape == (len(positions), head_dim)
    assert cos.dtype == sin.dtype == np.float32
    assert np.array_equal(bits(cos[:, 0::2]), bits(want_cos))
    assert np.array_equal(bits(cos[:, 1::2]), bits(want_cos))
    assert np.array_equal(bits(sin[:, 0::2]), bits(-want_sin))
    assert np.array_equal(bits(sin[:, 1::2]), bits(want_sin))


@pytest.mark.parametrize("head_dim", [6, 16])
def test_table_rows_equal_the_float64_grid_bit_for_bit(head_dim):
    assert_rows_match_grid(head_dim, np.array([-4000, -129, -1, 0, 1, 2, 129, 3999]))
    assert_rows_match_grid(head_dim, np.arange(-300, 300))


def test_table_grows_past_its_first_size():
    rope._TABLES.pop(10, None)  # head dim 10: a table no model here builds
    assert_rows_match_grid(10, np.arange(-5, 6))
    first = len(rope._TABLES[10][0])
    far = np.array([-3 * first, -first, 0, first, 5 * first + 3])
    assert_rows_match_grid(10, far)
    assert len(rope._TABLES[10][0]) > 5 * first + 3
    assert_rows_match_grid(10, np.arange(-5, 6))


def test_positions_past_the_table_cap_are_computed_not_tabled():
    rope._TABLES.pop(12, None)  # head dim 12: a table no model here builds
    cap = rope.MAX_TABLE_ROWS
    assert_rows_match_grid(12, np.array([-(2**32 - 1), -cap, 3, cap - 1, cap, 7 * cap]))
    assert 12 not in rope._TABLES
    # doubling stops at the cap
    assert_rows_match_grid(12, np.array([3 * cap // 4 - 1]))
    assert_rows_match_grid(12, np.array([-3, 3 * cap // 4]))
    assert len(rope._TABLES[12][0]) == cap


def test_table_refuses_float_positions():
    with pytest.raises(PositionError):
        cos_sin_table(8, np.array([0.0, 1.0]))
    with pytest.raises(PositionError):
        cos_sin_table(8, [0.5])
