"""The four heavy-tailed chain models and their sampled realizations.

All four models are step potentials on the half line, described as a list of
constant pieces:

    I    unit-length bumps of height X_n, sqrt(X) Frechet(alpha1), repulsive;
    II   the same bumps with flipped sign, attractive wells;
    III  unit bumps of height 1 separated by Frechet(alpha2) gaps;
    IV   signed unit-length bumps (-1)^eps X_n separated by Frechet gaps,
         with fair independent signs.

A Realization holds the pieces as columns, values, lengths and an is_bump
mask, which is what the chain walks read, together with the raw structural
draws and the piece boundaries derived from them, so every downstream
consumer (flows, products, spectra) reads the identical geometry.  generate
fills the columns straight from one bulk draw; Piece objects are built only
on request, for inspection.  The draw order per model is stated once, in
``_draw_blocks``; ``generate``, the estimator sweeps and the phase-chain
mixing all draw through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Optional, Tuple

import numpy as np

from .rng import RngStream, TailKind, TailLaw, draw_block
# generate draws through draw_block; the samplers stay bound here because
# bench/spans.py wraps them at this module too.
from .rng import sample_bump_height, sample_gap_length  # noqa: F401
from .transfer import EnergyFrame


class Model(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


class PieceKind(Enum):
    BUMP = "bump"
    GAP = "gap"


@dataclass(frozen=True)
class ModelConfig:
    """Static description of one chain model instance.

    alpha1 indexes the bump-height tail (models I, II, IV); alpha2 indexes
    the gap-length tail (IV) and is the single index of model III.  theta0
    parametrizes the boundary condition psi(0) cos(theta0) = psi'(0) sin(theta0);
    energy is the spectral parameter the chain is examined at.
    """

    model: Model
    energy: float
    alpha1: Optional[float] = None
    alpha2: Optional[float] = None
    theta0: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.model, Model):
            raise ValueError("model must be a Model")
        if not math.isfinite(self.energy):
            raise ValueError("energy must be finite")
        if not (0.0 <= self.theta0 < math.pi):
            raise ValueError("theta0 must lie in [0, pi)")
        if self.model in (Model.I, Model.II, Model.IV):
            _need_alpha(self.alpha1, "alpha1", self.model)
        if self.model in (Model.III, Model.IV):
            _need_alpha(self.alpha2, "alpha2", self.model)
        if self.model in (Model.I, Model.III) and not (self.energy > 0.0):
            raise ValueError(f"Model {self.model.value} requires energy > 0")

    def frame(self) -> EnergyFrame:
        return EnergyFrame.from_lambda(self.energy)

    def bump_law(self) -> TailLaw:
        if self.model is Model.III:
            raise ValueError("Model III bumps are deterministic")
        return TailLaw(alpha=self.alpha1, kind=TailKind.BUMP_HEIGHT)

    def gap_law(self) -> TailLaw:
        if self.model in (Model.I, Model.II):
            raise ValueError(f"Model {self.model.value} has no gaps")
        return TailLaw(alpha=self.alpha2, kind=TailKind.GAP_LENGTH)


def _need_alpha(value: Optional[float], name: str, model: Model) -> None:
    if value is None:
        raise ValueError(f"Model {model.value} requires {name}")
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


@dataclass(frozen=True)
class Piece:
    """One constant piece of the potential: V = value on an interval of len length."""

    value: float
    length: float
    index: int
    kind: PieceKind


@dataclass(frozen=True)
class Realization:
    """One sampled chain: its piece columns plus the raw structural draws.

    Piece i has potential values[i] on an interval of length lengths[i], and
    is_bump[i] tells a bump from a gap.  bump_heights holds the X_n as drawn
    (positive even for model II, whose piece values carry the sign);
    gap_lengths and signs are empty for models without them.  boundaries[i]
    is the right edge of piece i, summed in piece order, and bump_positions
    holds the right edges of the bumps.
    """

    config: ModelConfig
    values: np.ndarray
    lengths: np.ndarray
    is_bump: np.ndarray
    bump_heights: np.ndarray
    gap_lengths: np.ndarray
    signs: np.ndarray
    bump_positions: np.ndarray
    boundaries: np.ndarray = field(repr=False)

    @property
    def total_length(self) -> float:
        return float(self.boundaries[-1])

    @property
    def n_bumps(self) -> int:
        return int(self.bump_positions.size)

    @property
    def pieces(self) -> Tuple[Piece, ...]:
        """The columns as Piece objects, built on every access."""
        return tuple(
            Piece(value=v, length=l, index=i, kind=PieceKind.BUMP if b else PieceKind.GAP)
            for i, (v, l, b) in enumerate(zip(self.values.tolist(), self.lengths.tolist(),
                                              self.is_bump.tolist())))

    def to_csv(self, fileobj: IO[str]) -> None:
        """Columnar piece dump (index, kind, value, length); values round-trip."""
        fileobj.write("index,kind,value,length\n")
        for i, (v, l, b) in enumerate(zip(self.values.tolist(), self.lengths.tolist(),
                                          self.is_bump.tolist())):
            fileobj.write(f"{i},{'bump' if b else 'gap'},{v!r},{l!r}\n")


def realization_from_csv(config: ModelConfig, fileobj: IO[str]) -> Realization:
    """Rebuild a Realization from its to_csv dump (structural draws inferred).

    Rows are the pieces in order: a row whose index is not its position, or
    whose length is not positive and finite, is a ValueError naming the row.
    """
    header = fileobj.readline().strip()
    if header != "index,kind,value,length":
        raise ValueError("unrecognized realization CSV header")
    values, lengths, is_bump = [], [], []
    for line in fileobj:
        line = line.strip()
        if not line:
            continue
        idx_s, kind_s, value_s, length_s = line.split(",")
        row = len(values)
        if int(idx_s) != row:
            raise ValueError(f"realization CSV row {row}: index {idx_s} is not the row position")
        length = float(length_s)
        if not (0.0 < length < math.inf):
            raise ValueError(f"realization CSV row {row}: length {length_s} is not "
                             "positive and finite")
        values.append(float(value_s))
        lengths.append(length)
        is_bump.append(PieceKind(kind_s) is PieceKind.BUMP)
    return _assemble(config, np.array(values, dtype=float), np.array(lengths, dtype=float),
                     np.array(is_bump, dtype=bool))


def _assemble(config: ModelConfig, values: np.ndarray, lengths: np.ndarray,
              is_bump: np.ndarray) -> Realization:
    """Derive boundaries and the structural draws from the piece columns."""
    boundaries = np.add.accumulate(lengths)
    model = config.model
    bump_values = values[is_bump]
    if model is Model.II and np.any(bump_values > 0.0):
        raise ValueError("Model II bump values must be nonpositive")
    heights = np.zeros(0) if model is Model.III else np.abs(bump_values)
    if model is Model.IV:
        signs = (~(bump_values >= 0.0)).astype(np.int64)  # NaN reads as negative
    else:
        signs = np.zeros(0, dtype=np.int64)
    return Realization(
        config=config,
        values=values,
        lengths=lengths,
        is_bump=is_bump,
        bump_heights=heights,
        gap_lengths=lengths[~is_bump],
        signs=signs,
        bump_positions=boundaries[is_bump],
        boundaries=boundaries,
    )


def _draw_blocks(config: ModelConfig, seed: int, stream_ids, n: int):
    """Structural draws of the chains RngStream(seed, i), i in stream_ids.

    The canonical draw order, and the only statement of it: each chain's
    stream draws n bump heights X (models I, II, IV), then n gap lengths Y
    (models III, IV), then n fair signs eps in {0, 1} (model IV), each as one
    block.  Returns (x, y, eps) as (chains, n) arrays, row r from stream
    stream_ids[r], with None for what the model does not draw.
    """
    x = y = eps = None
    if config.model is Model.III:
        (y,) = draw_block(seed, stream_ids, n, [config.gap_law()])
    elif config.model is Model.IV:
        x, y, eps = draw_block(seed, stream_ids, n, [config.bump_law(), config.gap_law()],
                               signs=True)
    else:
        (x,) = draw_block(seed, stream_ids, n, [config.bump_law()])
    return x, y, eps


def generate(config: ModelConfig, n_bumps: int, stream: RngStream) -> Realization:
    """Sample a chain with n_bumps bumps from stream, drawn as _draw_blocks states."""
    if n_bumps < 1:
        raise ValueError("n_bumps must be at least 1")
    x, y, eps = _draw_blocks(config, stream.seed, [stream.stream_id], n_bumps)
    model = config.model
    if model in (Model.I, Model.II):
        values = x[0] if model is Model.I else -x[0]
        return _assemble(config, values, np.ones(n_bumps), np.ones(n_bumps, dtype=bool))
    # gap, bump, gap, bump, ...
    values = np.zeros(2 * n_bumps)
    values[1::2] = 1.0 if model is Model.III else x[0] * (1.0 - 2.0 * eps[0])
    lengths = np.ones(2 * n_bumps)
    lengths[0::2] = y[0]
    is_bump = np.zeros(2 * n_bumps, dtype=bool)
    is_bump[1::2] = True
    return _assemble(config, values, lengths, is_bump)
