"""Coarsest partition of rows by update history.

Footnote 2 of the paper: two data points have identical background
parameters iff they have been inside exactly the same set of assimilated
pattern extensions. The number of distinct parameter pairs therefore
stays small (at most ``2^t`` after ``t`` patterns, in practice close to
``t + 1``), and every model computation can be done per *block* instead
of per point. :class:`BlockPartition` maintains that partition.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class BlockPartition:
    """Partition of ``range(n)`` refined by successive boolean masks.

    Blocks are identified by integer labels ``0..n_blocks-1``. The
    partition starts as a single block 0 covering all rows; each
    :meth:`split` refines it against a mask so that afterwards every
    block lies entirely inside or entirely outside the mask.
    """

    def __init__(self, n_rows: int) -> None:
        if n_rows <= 0:
            raise ModelError(f"n_rows must be positive, got {n_rows}")
        self._labels = np.zeros(n_rows, dtype=np.int64)
        self._n_blocks = 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return int(self._labels.shape[0])

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def labels(self) -> np.ndarray:
        """Read-only view of the per-row block labels."""
        view = self._labels.view()
        view.setflags(write=False)
        return view

    def members(self, block: int) -> np.ndarray:
        """Row indices belonging to ``block``."""
        self._check_block(block)
        return np.flatnonzero(self._labels == block)

    def sizes(self) -> np.ndarray:
        """Array of block sizes, indexed by block label."""
        return np.bincount(self._labels, minlength=self._n_blocks)

    def counts_in(self, mask: np.ndarray) -> np.ndarray:
        """Per-block number of rows inside the boolean ``mask``."""
        mask = self._check_mask(mask)
        return np.bincount(self._labels[mask], minlength=self._n_blocks)

    def blocks_in(self, mask: np.ndarray) -> np.ndarray:
        """Labels of blocks with at least one row inside ``mask``."""
        mask = self._check_mask(mask)
        return np.unique(self._labels[mask])

    def is_aligned(self, mask: np.ndarray) -> bool:
        """True if every block is entirely inside or outside ``mask``."""
        mask = self._check_mask(mask)
        counts = self.counts_in(mask)
        sizes = self.sizes()
        return bool(np.all((counts == 0) | (counts == sizes)))

    # ------------------------------------------------------------------ #
    # Refinement
    # ------------------------------------------------------------------ #
    def split(self, mask: np.ndarray) -> dict[int, int]:
        """Refine the partition against ``mask``.

        Every block straddling the mask boundary is split in two: rows
        inside the mask keep the old label; rows outside get a fresh
        label. Keeping the inside part on the old label means callers
        that are about to update "the blocks inside the extension" can
        reuse labels obtained before the split.

        Returns
        -------
        dict[int, int]
            Mapping ``old_label -> new_label`` for the *outside* halves
            of blocks that were split; the new block must inherit (copy)
            the old block's parameters.
        """
        mask = self._check_mask(mask)
        sizes = self.sizes()
        counts = self.counts_in(mask)
        created: dict[int, int] = {}
        for block in np.flatnonzero((counts > 0) & (counts < sizes)):
            new_label = self._n_blocks
            outside = (~mask) & (self._labels == block)
            self._labels[outside] = new_label
            self._n_blocks += 1
            created[int(block)] = new_label
        return created

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #
    def _check_block(self, block: int) -> None:
        if not 0 <= block < self._n_blocks:
            raise ModelError(f"block {block} out of range [0, {self._n_blocks})")

    def _check_mask(self, mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self.n_rows,):
            raise ModelError(
                f"mask must be a boolean array of shape ({self.n_rows},), "
                f"got dtype {mask.dtype} shape {mask.shape}"
            )
        return mask
