"""Chain model configs, sampled realizations, CSV round-trips."""
import io
import math

import numpy as np
import pytest

from heavykp.potentials import (
    Model,
    ModelConfig,
    Piece,
    PieceKind,
    Realization,
    generate,
    realization_from_csv,
)
from heavykp.rng import RngStream, frechet_cdf
from heavykp.stats import ks_distance


def _cfg(model: str, **kw) -> ModelConfig:
    defaults = {"energy": 1.0}
    defaults.update(kw)
    return ModelConfig(model=Model(model), **defaults)


def _heights_signs(r: Realization):
    """The bump heights X_n and signs eps_n (1 on a negative bump) read off the columns."""
    bumps = r.values[r.is_bump]
    return np.abs(bumps), (bumps < 0.0).astype(np.int64)


# ── Config validation ────────────────────────────────────────────────────────


def test_config_requires_model_specific_alphas():
    with pytest.raises(ValueError, match="Model I requires alpha1"):
        _cfg("I")
    with pytest.raises(ValueError, match="Model III requires alpha2"):
        _cfg("III")
    with pytest.raises(ValueError, match="Model IV requires alpha1"):
        _cfg("IV", alpha2=0.5)
    with pytest.raises(ValueError, match="Model IV requires alpha2"):
        _cfg("IV", alpha1=0.5)
    # all four construct cleanly with what they need
    _cfg("I", alpha1=0.5)
    _cfg("II", alpha1=0.5, energy=-3.0)
    _cfg("III", alpha2=0.5)
    _cfg("IV", alpha1=0.5, alpha2=0.7)


def test_config_alpha_range():
    with pytest.raises(ValueError, match=r"alpha1 must lie in \(0, 1\), got 1.7"):
        _cfg("I", alpha1=1.7)
    with pytest.raises(ValueError, match=r"alpha2 must lie in \(0, 1\)"):
        _cfg("III", alpha2=0.0)


def test_config_positive_energy_models():
    with pytest.raises(ValueError, match="Model I requires energy > 0"):
        _cfg("I", alpha1=0.5, energy=0.0)
    with pytest.raises(ValueError, match="Model III requires energy > 0"):
        _cfg("III", alpha2=0.5, energy=-1.0)
    # II and IV may sit at negative energy
    _cfg("II", alpha1=0.5, energy=-5.0)
    _cfg("IV", alpha1=0.5, alpha2=0.5, energy=-5.0)


def test_config_theta0_range():
    with pytest.raises(ValueError, match=r"theta0 must lie in \[0, pi\)"):
        _cfg("I", alpha1=0.5, theta0=math.pi)
    _cfg("I", alpha1=0.5, theta0=math.pi - 1e-9)


def test_config_law_accessors():
    cfg = _cfg("IV", alpha1=0.3, alpha2=0.7)
    assert cfg.bump_law().alpha == 0.3
    assert cfg.gap_law().alpha == 0.7
    with pytest.raises(ValueError, match="deterministic"):
        _cfg("III", alpha2=0.5).bump_law()
    with pytest.raises(ValueError, match="has no gaps"):
        _cfg("I", alpha1=0.5).gap_law()
    assert cfg.frame().k_norm == 1.0


# ── Generated geometry ───────────────────────────────────────────────────────


def test_model1_geometry():
    r = generate(_cfg("I", alpha1=0.5), 50, RngStream(1))
    assert len(r.pieces) == 50
    assert r.n_bumps == 50
    assert all(p.kind is PieceKind.BUMP and p.length == 1.0 for p in r.pieces)
    assert all(p.value > 0.0 for p in r.pieces)
    assert r.total_length == 50.0
    assert np.all(r.is_bump)  # no gaps
    assert np.array_equal(r.values, [p.value for p in r.pieces])
    assert np.array_equal(r.boundaries[r.is_bump], np.arange(1.0, 51.0))


def test_model2_geometry():
    r = generate(_cfg("II", alpha1=0.5, energy=2.0), 30, RngStream(2))
    assert all(p.value < 0.0 for p in r.pieces)
    heights, _ = _heights_signs(r)
    assert np.all(heights > 0.0)
    assert np.array_equal(heights, [-p.value for p in r.pieces])


def test_model3_geometry():
    r = generate(_cfg("III", alpha2=0.5), 40, RngStream(3))
    assert len(r.pieces) == 80  # gap, bump alternating
    assert r.n_bumps == 40
    for i, p in enumerate(r.pieces):
        if i % 2 == 0:
            assert p.kind is PieceKind.GAP and p.value == 0.0
        else:
            assert p.kind is PieceKind.BUMP and p.value == 1.0 and p.length == 1.0
    gaps = r.lengths[~r.is_bump]
    assert gaps.size == 40
    assert np.all(r.values[r.is_bump] == 1.0)  # unit bumps, no height draws
    # right edge of bump n accumulates gaps plus n unit lengths
    assert r.total_length == pytest.approx(gaps.sum() + 40.0, rel=1e-12)
    assert r.boundaries[r.is_bump][-1] == r.total_length


def test_model4_geometry():
    r = generate(_cfg("IV", alpha1=0.5, alpha2=0.7), 200, RngStream(4))
    assert len(r.pieces) == 400
    bump_vals = np.array([p.value for p in r.pieces if p.kind is PieceKind.BUMP])
    heights, signs = _heights_signs(r)
    assert np.array_equal(np.abs(bump_vals), heights)
    assert np.array_equal(signs, (bump_vals < 0).astype(np.int64))
    # fair signs: both signs show up in 200 draws
    assert 0 < signs.sum() < 200


@pytest.mark.parametrize(
    "model,kw",
    [
        ("I", {"alpha1": 0.5}),
        ("II", {"alpha1": 0.5}),
        ("III", {"alpha2": 0.5}),
        ("IV", {"alpha1": 0.5, "alpha2": 0.7}),
    ],
)
def test_columns_match_pieces(model, kw):
    r = generate(_cfg(model, **kw), 20, RngStream(5))
    assert r.values.dtype == r.lengths.dtype == float and r.is_bump.dtype == bool
    assert [p.index for p in r.pieces] == list(range(r.values.size))
    assert np.array_equal(r.values, [p.value for p in r.pieces])
    assert np.array_equal(r.lengths, [p.length for p in r.pieces])
    assert np.array_equal(r.is_bump, [p.kind is PieceKind.BUMP for p in r.pieces])
    assert np.array_equal(r.boundaries, np.add.accumulate([p.length for p in r.pieces]))


def test_assemble_infinite_heights():
    # an overflowed draw is an infinite bump: unsigned inf height, sign kept
    text = ("index,kind,value,length\n0,gap,0.0,2.0\n1,bump,inf,1.0\n"
            "2,gap,0.0,0.5\n3,bump,-inf,1.0\n4,gap,0.0,1.0\n5,bump,-0.0,1.0\n")
    r = realization_from_csv(_cfg("IV", alpha1=0.5, alpha2=0.7), io.StringIO(text))
    heights, signs = _heights_signs(r)
    assert heights.tolist() == [math.inf, math.inf, 0.0]
    assert signs.tolist() == [0, 1, 0]
    assert r.lengths[~r.is_bump].tolist() == [2.0, 0.5, 1.0]
    assert r.boundaries[r.is_bump].tolist() == [3.0, 4.5, 6.5]


def test_generate_rejects_empty_chain():
    with pytest.raises(ValueError):
        generate(_cfg("I", alpha1=0.5), 0, RngStream(1))


def test_generate_is_reproducible():
    a = generate(_cfg("IV", alpha1=0.4, alpha2=0.6), 25, RngStream(99, stream_id=7))
    b = generate(_cfg("IV", alpha1=0.4, alpha2=0.6), 25, RngStream(99, stream_id=7))
    assert a.pieces == b.pieces
    assert np.array_equal(a.boundaries, b.boundaries)


def test_boundaries_accumulate_exactly():
    r = generate(_cfg("III", alpha2=0.5), 60, RngStream(8))
    lengths = np.array([p.length for p in r.pieces])
    assert np.array_equal(r.boundaries, np.add.accumulate(lengths))


# ── Tail distributions ───────────────────────────────────────────────────────


def test_bump_height_tail_index():
    # X = Z^2 with Z Frechet(alpha1): X is Frechet(alpha1/2)
    r = generate(_cfg("I", alpha1=0.6), 20_000, RngStream(21))
    grid = np.sort(_heights_signs(r)[0])
    emp = np.arange(1, grid.size + 1) / grid.size
    assert np.abs(emp - frechet_cdf(0.3, grid)).max() < 0.015


def test_gap_length_tail_index():
    r = generate(_cfg("III", alpha2=0.8), 20_000, RngStream(22))
    grid = np.sort(r.lengths[~r.is_bump])
    emp = np.arange(1, grid.size + 1) / grid.size
    assert np.abs(emp - frechet_cdf(0.8, grid)).max() < 0.015


def test_model4_components_independent_of_signs():
    # signs are a separate block: heights of + and - bumps share one law
    r = generate(_cfg("IV", alpha1=0.5, alpha2=0.5), 20_000, RngStream(23))
    heights, signs = _heights_signs(r)
    plus = heights[signs == 0]
    minus = heights[signs == 1]
    assert ks_distance(plus, minus) < 0.03


# ── CSV round-trip ───────────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "model,kw",
    [
        ("I", {"alpha1": 0.5}),
        ("II", {"alpha1": 0.5}),
        ("III", {"alpha2": 0.5}),
        ("IV", {"alpha1": 0.5, "alpha2": 0.7}),
    ],
)
def test_csv_roundtrip_bit_exact(model, kw):
    cfg = _cfg(model, **kw)
    r = generate(cfg, 35, RngStream(31))
    buf = io.StringIO()
    r.to_csv(buf)
    buf.seek(0)
    back = realization_from_csv(cfg, buf)
    assert back.pieces == r.pieces
    assert np.array_equal(back.boundaries, r.boundaries)
    for name in ("values", "lengths", "is_bump"):
        assert getattr(back, name).tobytes() == getattr(r, name).tobytes()


def test_csv_header_checked():
    with pytest.raises(ValueError, match="header"):
        realization_from_csv(_cfg("I", alpha1=0.5), io.StringIO("a,b,c\n"))


def test_csv_rejects_sign_violation():
    # a Model II dump must not carry positive bump values
    text = "index,kind,value,length\n0,bump,3.5,1.0\n"
    with pytest.raises(ValueError, match="nonpositive"):
        realization_from_csv(_cfg("II", alpha1=0.5), io.StringIO(text))


def test_csv_rejects_index_out_of_position():
    text = "index,kind,value,length\n0,gap,0.0,1.5\n2,bump,1.0,1.0\n"
    with pytest.raises(ValueError, match="row 1: index 2 is not the row position"):
        realization_from_csv(_cfg("III", alpha2=0.5), io.StringIO(text))


@pytest.mark.parametrize("length", ["0.0", "-1.0", "inf", "nan"])
def test_csv_rejects_bad_length(length):
    text = f"index,kind,value,length\n0,bump,2.0,1.0\n1,bump,3.0,{length}\n"
    with pytest.raises(ValueError, match=f"row 1: length {length} is not positive and finite"):
        realization_from_csv(_cfg("I", alpha1=0.5), io.StringIO(text))


def test_csv_rejects_nan_value():
    # an infinite value is an overflowed draw and passes; NaN is no potential
    text = "index,kind,value,length\n0,bump,inf,1.0\n1,bump,nan,1.0\n"
    with pytest.raises(ValueError, match="row 1: value nan is NaN"):
        realization_from_csv(_cfg("I", alpha1=0.5), io.StringIO(text))


@pytest.mark.parametrize("body", ["", "\n\n"], ids=["header-only", "blank-rows"])
def test_csv_rejects_dump_without_pieces(body):
    # refused at read time, not at the first total_length or BoxProblem
    text = "index,kind,value,length\n" + body
    with pytest.raises(ValueError, match="no piece rows"):
        realization_from_csv(_cfg("III", alpha2=0.5), io.StringIO(text))


@pytest.mark.parametrize("row,message", [
    ("1,bump,3.0", "row 1: 3 fields, expected 4"),
    ("1,bump,3.0,1.0,1.0", "row 1: 5 fields, expected 4"),
    ("1.0,bump,3.0,1.0", "row 1: index 1.0 is not an integer"),
    ("one,bump,3.0,1.0", "row 1: index one is not an integer"),
    ("1,wall,3.0,1.0", "row 1: kind wall is not bump or gap"),
    ("1,bump,three,1.0", "row 1: value three is not a number"),
    ("1,bump,3.0,", "row 1: length  is not a number"),
])
def test_csv_malformed_rows_name_their_row(row, message):
    text = f"index,kind,value,length\n0,bump,2.0,1.0\n{row}\n"
    with pytest.raises(ValueError, match=f"^realization CSV {message}$"):
        realization_from_csv(_cfg("I", alpha1=0.5), io.StringIO(text))


def test_assemble_supports_synthetic_shapes():
    # a single free gap is a valid chain for box problems
    text = "index,kind,value,length\n0,gap,0.0,7.5\n"
    r = realization_from_csv(_cfg("III", alpha2=0.5), io.StringIO(text))
    assert r.total_length == 7.5
    assert r.n_bumps == 0
