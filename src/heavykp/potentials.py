"""The four heavy-tailed chain models and their sampled realizations.

All four models are step potentials on the half line, described as a list of
constant pieces:

    I    unit-length bumps of height X_n, sqrt(X) Frechet(alpha1), repulsive;
    II   the same bumps with flipped sign, attractive wells;
    III  unit bumps of height 1 separated by Frechet(alpha2) gaps;
    IV   signed unit-length bumps (-1)^eps X_n separated by Frechet gaps,
         with fair independent signs.

A Realization materializes the piece list together with the raw structural
draws, so every downstream consumer (flows, products, spectra) reads the
identical geometry.  The draw order per model is stated once, in
``_draw_blocks``; ``generate``, the estimator sweeps and the phase-chain
mixing all draw through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Optional, Sequence, Tuple

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
    """One sampled chain: piece list plus the raw structural draws.

    bump_heights holds the X_n as drawn (positive even for model II, whose
    piece values carry the sign); gap_lengths and signs are empty for models
    without them.  bump_positions[n] is the coordinate of the right edge of
    bump n, accumulated in piece order so that summing piece lengths
    reproduces it bit for bit.
    """

    config: ModelConfig
    pieces: Tuple[Piece, ...]
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
        return int(self.bump_heights.size) if self.config.model is not Model.III else int(
            self.bump_positions.size
        )

    def l_index(self, x: float) -> int:
        """Index of the piece whose half-open interval [left, right) contains x.

        The right endpoint of the chain is assigned to the last piece so the
        full closed interval [0, total_length] is covered.
        """
        if not (0.0 <= x <= self.total_length):
            raise ValueError("x must lie in [0, total_length]")
        idx = int(np.searchsorted(self.boundaries, x, side="right"))
        return min(idx, len(self.pieces) - 1)

    def to_csv(self, fileobj: IO[str]) -> None:
        """Columnar piece dump (index, kind, value, length); values round-trip."""
        fileobj.write("index,kind,value,length\n")
        for p in self.pieces:
            fileobj.write(f"{p.index},{p.kind.value},{p.value!r},{p.length!r}\n")


def realization_from_csv(config: ModelConfig, fileobj: IO[str]) -> Realization:
    """Rebuild a Realization from its to_csv dump (structural draws inferred)."""
    header = fileobj.readline().strip()
    if header != "index,kind,value,length":
        raise ValueError("unrecognized realization CSV header")
    pieces = []
    for line in fileobj:
        line = line.strip()
        if not line:
            continue
        idx_s, kind_s, value_s, length_s = line.split(",")
        pieces.append(
            Piece(value=float(value_s), length=float(length_s), index=int(idx_s), kind=PieceKind(kind_s))
        )
    return _assemble(config, pieces)


def _assemble(config: ModelConfig, pieces: Sequence[Piece]) -> Realization:
    """Recompute derived arrays from a piece list, in piece order."""
    boundaries = np.add.accumulate(np.array([p.length for p in pieces], dtype=float))
    bump_edge = [boundaries[i] for i, p in enumerate(pieces) if p.kind is PieceKind.BUMP]
    heights = []
    gaps = []
    signs = []
    for p in pieces:
        if p.kind is PieceKind.BUMP:
            if config.model is Model.III:
                continue
            heights.append(abs(p.value))
            if config.model is Model.IV:
                signs.append(0 if p.value >= 0.0 else 1)
            elif config.model is Model.II and p.value > 0.0:
                raise ValueError("Model II bump values must be nonpositive")
        else:
            gaps.append(p.length)
    return Realization(
        config=config,
        pieces=tuple(pieces),
        bump_heights=np.array(heights, dtype=float),
        gap_lengths=np.array(gaps, dtype=float),
        signs=np.array(signs, dtype=np.int64),
        bump_positions=np.array(bump_edge, dtype=float),
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
    pieces = []
    if model in (Model.I, Model.II):
        sign = 1.0 if model is Model.I else -1.0
        for i in range(n_bumps):
            pieces.append(Piece(value=sign * float(x[0, i]), length=1.0, index=i,
                                kind=PieceKind.BUMP))
    elif model is Model.III:
        for i in range(n_bumps):
            pieces.append(Piece(value=0.0, length=float(y[0, i]), index=2 * i, kind=PieceKind.GAP))
            pieces.append(Piece(value=1.0, length=1.0, index=2 * i + 1, kind=PieceKind.BUMP))
    elif model is Model.IV:
        values = x[0] * (1.0 - 2.0 * eps[0])
        for i in range(n_bumps):
            pieces.append(Piece(value=0.0, length=float(y[0, i]), index=2 * i, kind=PieceKind.GAP))
            pieces.append(
                Piece(value=float(values[i]), length=1.0, index=2 * i + 1, kind=PieceKind.BUMP)
            )
    else:  # pragma: no cover - Model enum is closed
        raise ValueError(f"unknown model {model!r}")
    return _assemble(config, pieces)
