"""The four heavy-tailed chain models and their sampled realizations.

All four models are step potentials on the half line, described as a list of
constant pieces:

    I    unit-length bumps of height X_n, sqrt(X) Frechet(alpha1), repulsive;
    II   the same bumps with flipped sign, attractive wells;
    III  unit bumps of height 1 separated by Frechet(alpha2) gaps;
    IV   signed unit-length bumps (-1)^eps X_n separated by Frechet gaps,
         with fair independent signs.

A Realization is the pieces as columns, values, lengths and an is_bump
mask, which is what the chain walks read, plus the piece boundaries summed
from the lengths, so every downstream consumer (flows, products, spectra)
reads the identical geometry.  generate fills the columns straight from one
bulk draw.  The map from the draws to bump potentials and gap lengths is
stated once, in ``_draw_blocks``, which draws in ``rng.draw_block``'s order;
``generate``, the estimator sweeps and the phase-chain mixing all read its
pieces as they come, and a bump's height, sign or position is read off the
columns where it is needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Optional, Tuple

import numpy as np

from .rng import RngStream, draw_block
# generate draws through draw_block; the per-seed samplers remain only as
# test references, bound here because the benchmark tracer (bench/spans.py)
# wraps them at this module too.
from .rng import sample_bump_height, sample_gap_length  # noqa: F401
from .transfer import EnergyFrame


class Model(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


# The kind field of a to_csv dump, indexed by is_bump.
_KINDS = ("gap", "bump")


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
        return EnergyFrame(self.energy)


def _need_alpha(value: Optional[float], name: str, model: Model) -> None:
    if value is None:
        raise ValueError(f"Model {model.value} requires {name}")
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


@dataclass(frozen=True)
class Realization:
    """One sampled chain as piece columns.

    The i-th piece has potential values[i] on an interval of length
    lengths[i], and is_bump[i] tells a bump from a gap.  boundaries[i] is the
    right edge of piece i, summed in piece order at construction.  pieces
    gives the same columns as (value, length, is_bump) rows.
    """

    values: np.ndarray
    lengths: np.ndarray
    is_bump: np.ndarray
    boundaries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundaries", np.add.accumulate(self.lengths))

    @property
    def total_length(self) -> float:
        return float(self.boundaries[-1])

    @property
    def pieces(self) -> Tuple[Tuple[float, float, bool], ...]:
        """The columns as (value, length, is_bump) rows, built on every access."""
        return tuple(zip(self.values.tolist(), self.lengths.tolist(), self.is_bump.tolist()))

    def to_csv(self, fileobj: IO[str]) -> None:
        """Columnar piece dump (index, kind, value, length); values round-trip."""
        fileobj.write("index,kind,value,length\n")
        for i, (v, l, b) in enumerate(zip(self.values.tolist(), self.lengths.tolist(),
                                          self.is_bump.tolist())):
            fileobj.write(f"{i},{_KINDS[b]},{v!r},{l!r}\n")


def realization_from_csv(config: ModelConfig, fileobj: IO[str]) -> Realization:
    """Rebuild a Realization from its to_csv dump.

    Rows are the pieces in order, and a dump without any is a ValueError.  A
    row without exactly four fields, whose index is not an integer or not its
    position, whose kind is neither bump nor gap, whose value does not parse
    or is NaN, or whose length is not a positive finite number, is a
    ValueError naming the row; so is a positive bump value in a model II
    dump.  Infinite values pass: an overflowed draw is an infinite bump.
    """
    header = fileobj.readline().strip()
    if header != "index,kind,value,length":
        raise ValueError("unrecognized realization CSV header")
    values, lengths, is_bump = [], [], []
    for line in fileobj:
        line = line.strip()
        if not line:
            continue
        row = len(values)
        fields = line.split(",")
        if len(fields) != 4:
            raise ValueError(f"realization CSV row {row}: {len(fields)} fields, expected 4")
        idx_s, kind_s, value_s, length_s = fields
        if _parse_field(row, "index", idx_s, int, "an integer") != row:
            raise ValueError(f"realization CSV row {row}: index {idx_s} is not the row position")
        bump = _parse_field(row, "kind", kind_s, _KINDS.index, "bump or gap") == 1
        length = _parse_field(row, "length", length_s, float, "a number")
        if not (0.0 < length < math.inf):
            raise ValueError(f"realization CSV row {row}: length {length_s} is not "
                             "positive and finite")
        value = _parse_field(row, "value", value_s, float, "a number")
        if math.isnan(value):
            raise ValueError(f"realization CSV row {row}: value {value_s} is NaN")
        if config.model is Model.II and bump and value > 0.0:
            raise ValueError(f"realization CSV row {row}: Model II bump values must be "
                             "nonpositive")
        values.append(value)
        lengths.append(length)
        is_bump.append(bump)
    if not values:
        raise ValueError("realization CSV holds no piece rows")
    return Realization(values=np.array(values, dtype=float),
                       lengths=np.array(lengths, dtype=float),
                       is_bump=np.array(is_bump, dtype=bool))


def _parse_field(row: int, name: str, text: str, parse, expected: str):
    """parse(text), or a ValueError saying that row's field is not what was expected."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"realization CSV row {row}: {name} {text} is not {expected}") from None


def _draw_blocks(config: ModelConfig, seed: int, stream_ids, n: int):
    """Bump potentials and gap lengths of the chains RngStream(seed, i), i in stream_ids.

    The map from draws to pieces, and the only statement of it: each chain's
    stream draws, in rng.draw_block's order, n bump heights X of index
    alpha1 (models I, II, IV), n gap lengths Y of index alpha2 (models III,
    IV) and n fair signs eps in {0, 1} (model IV).  Bump j has potential X_j
    (I), -X_j (II), 1 (III) or (-1)**eps_j X_j (IV), and gap j, of length
    Y_j, lies just before it.  Returns (values, gaps): values as a
    (chains, n) array, row r from stream stream_ids[r], or the scalar 1.0
    for model III's unit bumps; gaps as a (chains, n) array, or None for
    models I and II.
    """
    model = config.model
    if model is Model.III:
        (gaps,) = draw_block(seed, stream_ids, n, gaps=config.alpha2)
        return 1.0, gaps
    if model is Model.IV:
        values, gaps, eps = draw_block(seed, stream_ids, n, heights=config.alpha1,
                                       gaps=config.alpha2, signs=True)
        # (-1)**eps as 1 - 2 eps, in place in the int64 signs, then one
        # multiply by +-1, which changes no bit but the sign
        eps *= -2
        eps += 1
        np.multiply(values, eps, out=values)
        return values, gaps
    (values,) = draw_block(seed, stream_ids, n, heights=config.alpha1)
    if model is Model.II:
        np.negative(values, out=values)
    return values, None


def generate(config: ModelConfig, n_bumps: int, stream: RngStream) -> Realization:
    """Sample a chain with n_bumps bumps from stream, drawn as _draw_blocks states."""
    if n_bumps < 1:
        raise ValueError("n_bumps must be at least 1")
    values, gaps = _draw_blocks(config, stream.seed, [stream.stream_id], n_bumps)
    if gaps is None:
        return Realization(values=values[0], lengths=np.ones(n_bumps),
                           is_bump=np.ones(n_bumps, dtype=bool))
    # gap, bump, gap, bump, ...: each block's one row, or model III's 1.0
    piece_values = np.zeros(2 * n_bumps)
    piece_values[1::2] = values
    lengths = np.ones(2 * n_bumps)
    lengths[0::2] = gaps
    is_bump = np.zeros(2 * n_bumps, dtype=bool)
    is_bump[1::2] = True
    return Realization(values=piece_values, lengths=lengths, is_bump=is_bump)
