"""Working-set construction.

The generator "samples this file server model to produce working sets":
a working set is a collection of file subregions totaling the requested
size.  File selection is weighted by popularity; subregion lengths are
Poisson (clamped to the file size); subregion starting points are
uniform — exactly the distributions §4 specifies.
"""

from __future__ import annotations

import random
from typing import List

from repro.errors import ConfigError
from repro.fsmodel.distributions import WeightedSampler, poisson_sample
from repro.fsmodel.files import FileSystemModel


class WorkingSetPiece:
    """One contiguous file subregion belonging to a working set."""

    __slots__ = ("file_id", "start", "nblocks", "weight")

    def __init__(self, file_id: int, start: int, nblocks: int, weight: float) -> None:
        self.file_id = file_id
        self.start = start
        self.nblocks = nblocks
        self.weight = weight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<WSPiece file=%d start=%d n=%d w=%.0f>" % (
            self.file_id,
            self.start,
            self.nblocks,
            self.weight,
        )


class WorkingSet:
    """A sampled working set: pieces plus a weighted sampler over them.

    Pieces are weighted by ``popularity * nblocks`` so that, within a
    popularity class, every working-set block is equally likely to be
    the target of an I/O.
    """

    def __init__(self, pieces: List[WorkingSetPiece]) -> None:
        if not pieces:
            raise ConfigError("working set must contain at least one piece")
        self.pieces = pieces
        self.sampler = WeightedSampler([p.weight * p.nblocks for p in pieces])

    @property
    def total_blocks(self) -> int:
        return sum(piece.nblocks for piece in self.pieces)

    def sample_piece(self, rng: random.Random) -> WorkingSetPiece:
        """Pick a piece, weighted by popularity x size."""
        return self.pieces[self.sampler.sample(rng)]

    def __len__(self) -> int:
        return len(self.pieces)


def build_working_set(
    model: FileSystemModel,
    target_blocks: int,
    region_mean_blocks: float,
    rng: random.Random,
) -> WorkingSet:
    """Sample file subregions until the working set reaches ``target_blocks``.

    The same file may contribute multiple (possibly overlapping) pieces;
    overlap slightly shrinks the *unique* footprint, mirroring how real
    working sets revisit hot files.
    """
    if target_blocks < 1:
        raise ConfigError("working set target must be >= 1 block")
    file_sampler = WeightedSampler(model.popularities())
    pieces: List[WorkingSetPiece] = []
    total = 0
    while total < target_blocks:
        spec = model[file_sampler.sample(rng)]
        length = min(
            spec.blocks,
            max(1, poisson_sample(rng, region_mean_blocks)),
            target_blocks - total if target_blocks - total > 0 else 1,
        )
        start = rng.randrange(spec.blocks - length + 1)
        pieces.append(WorkingSetPiece(spec.file_id, start, length, float(spec.popularity)))
        total += length
    return WorkingSet(pieces)
