"""Binary chromosome encoding of a wavelength allocation (Fig. 4 of the paper).

A chromosome is a binary array of ``Nl * NW`` genes, where ``Nl`` is the number
of communication edges of the task graph and ``NW`` the number of wavelengths
carried by the waveguide.  Genes are grouped per communication: genes
``[k*NW, (k+1)*NW)`` describe the channels reserved for communication ``ck``
('1' = reserved, '0' = not reserved).  The paper writes chromosomes as
``[1000/0001/0001/0001/1000/1000]``; :meth:`Chromosome.to_paper_string`
reproduces that notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import AllocationError

__all__ = ["Chromosome"]


@dataclass(frozen=True)
class Chromosome:
    """An immutable binary chromosome.

    Parameters
    ----------
    genes:
        Flat binary gene array of length ``communication_count * wavelength_count``.
    communication_count:
        Number of communication edges ``Nl``.
    wavelength_count:
        Number of wavelengths ``NW``.
    """

    genes: Tuple[int, ...]
    communication_count: int
    wavelength_count: int

    def __post_init__(self) -> None:
        values = np.asarray(self.genes)
        if values.ndim != 1 or values.dtype.kind not in "biu":
            # Anything but a flat integer/boolean array goes through int(),
            # which accepts (and rejects) exactly what it always has; an
            # object array keeps out-of-range integers for the 0/1 check.
            values = np.array([int(gene) for gene in self.genes], dtype=object)
        if self.communication_count < 1:
            raise AllocationError("a chromosome needs at least one communication")
        if self.wavelength_count < 1:
            raise AllocationError("a chromosome needs at least one wavelength")
        expected = self.communication_count * self.wavelength_count
        if values.size != expected:
            raise AllocationError(
                f"expected {expected} genes "
                f"({self.communication_count} communications x {self.wavelength_count} "
                f"wavelengths), got {values.size}"
            )
        if not ((values == 0) | (values == 1)).all():
            raise AllocationError("genes must be 0 or 1")
        # astype copies, so the chromosome never aliases the caller's buffer.
        array = values.astype(np.uint8).reshape(
            self.communication_count, self.wavelength_count
        )
        array.setflags(write=False)
        object.__setattr__(self, "genes", tuple(array.ravel().tolist()))
        object.__setattr__(self, "_array", array)

    # -------------------------------------------------------------- factories
    @classmethod
    def from_array(
        cls, genes: Sequence[int] | np.ndarray, communication_count: int, wavelength_count: int
    ) -> "Chromosome":
        """Build a chromosome from any flat sequence of 0/1 values."""
        return cls(
            # __post_init__ turns the array into a tuple of ints.
            genes=np.asarray(genes).ravel(),  # type: ignore[arg-type]
            communication_count=communication_count,
            wavelength_count=wavelength_count,
        )

    @classmethod
    def from_allocation(
        cls,
        allocation: Sequence[Iterable[int]],
        wavelength_count: int,
    ) -> "Chromosome":
        """Build a chromosome from per-communication channel index sets.

        ``allocation[k]`` is the iterable of channel indices reserved for
        communication ``ck``.
        """
        communication_count = len(allocation)
        genes = np.zeros(communication_count * wavelength_count, dtype=int)
        for comm_index, channels in enumerate(allocation):
            for channel in channels:
                if not 0 <= channel < wavelength_count:
                    raise AllocationError(
                        f"channel {channel} outside the {wavelength_count}-wavelength grid"
                    )
                genes[comm_index * wavelength_count + channel] = 1
        return cls.from_array(genes, communication_count, wavelength_count)

    @classmethod
    def random(
        cls,
        communication_count: int,
        wavelength_count: int,
        rng: np.random.Generator,
        reserve_probability: float = 0.5,
    ) -> "Chromosome":
        """A uniformly random chromosome (used to seed the GA population)."""
        genes = (rng.random(communication_count * wavelength_count) < reserve_probability)
        return cls.from_array(genes.astype(int), communication_count, wavelength_count)

    @classmethod
    def from_numpy(
        cls, genes: np.ndarray, communication_count: int, wavelength_count: int
    ) -> "Chromosome":
        """Build a chromosome from a binary NumPy array (flat or ``(Nl, NW)``).

        This is the bridge the batch engine uses to materialise individual
        population rows back into first-class chromosomes: the 0/1 and length
        checks run on the array, and the genes become a tuple of Python
        ``int`` through one ``tolist()``.
        """
        return cls.from_array(genes, communication_count, wavelength_count)

    @classmethod
    def from_paper_string(cls, text: str, wavelength_count: int | None = None) -> "Chromosome":
        """Parse the paper's ``[1000/0001/...]`` notation."""
        body = text.strip().strip("[]")
        groups = [group for group in body.split("/") if group]
        if not groups:
            raise AllocationError(f"cannot parse chromosome string {text!r}")
        width = wavelength_count or len(groups[0])
        genes: List[int] = []
        for group in groups:
            if len(group) != width:
                raise AllocationError(
                    f"group {group!r} does not have {width} genes in {text!r}"
                )
            genes.extend(int(char) for char in group)
        return cls.from_array(genes, len(groups), width)

    # ------------------------------------------------------------------ views
    def as_array(self) -> np.ndarray:
        """The genes as a read-only ``(communication_count, wavelength_count)`` array.

        The array is computed once at construction time and shared by every
        caller (zero-copy), so batch code can stack population rows without
        re-materialising the genes.
        """
        return self._array  # type: ignore[attr-defined]

    @property
    def gene_bytes(self) -> bytes:
        """The raw genes as bytes — a compact fingerprint for memo tables."""
        return self._array.tobytes()  # type: ignore[attr-defined]

    def channels_of(self, communication_index: int) -> Tuple[int, ...]:
        """Channel indices reserved for communication ``communication_index``."""
        if not 0 <= communication_index < self.communication_count:
            raise AllocationError(
                f"communication index {communication_index} outside chromosome with "
                f"{self.communication_count} communications"
            )
        row = self.as_array()[communication_index]
        return tuple(int(channel) for channel in np.flatnonzero(row))

    def allocation(self) -> List[Tuple[int, ...]]:
        """Per-communication channel sets, in chromosome order."""
        return [self.channels_of(index) for index in range(self.communication_count)]

    def wavelength_counts(self) -> Tuple[int, ...]:
        """Number of reserved wavelengths per communication (the paper's ``[2,8,6,...]``)."""
        return tuple(int(count) for count in self.as_array().sum(axis=1))

    def total_reserved(self) -> int:
        """Total number of reserved genes across every communication."""
        return int(sum(self.genes))

    def has_empty_communication(self) -> bool:
        """True when at least one communication has no reserved wavelength."""
        return any(count == 0 for count in self.wavelength_counts())

    # ------------------------------------------------------------- operations
    def with_gene(self, position: int, value: int) -> "Chromosome":
        """A copy of this chromosome with one gene replaced."""
        if not 0 <= position < len(self.genes):
            raise AllocationError(f"gene position {position} out of range")
        genes = list(self.genes)
        genes[position] = int(value)
        return Chromosome.from_array(genes, self.communication_count, self.wavelength_count)

    def flipped(self, position: int) -> "Chromosome":
        """A copy of this chromosome with one gene inverted (the paper's mutation)."""
        if not 0 <= position < len(self.genes):
            raise AllocationError(f"gene position {position} out of range")
        return self.with_gene(position, 1 - self.genes[position])

    def to_paper_string(self) -> str:
        """The paper's ``[1000/0001/...]`` textual representation."""
        rows = self.as_array()
        groups = ["".join(str(int(gene)) for gene in row) for row in rows]
        return "[" + "/".join(groups) + "]"

    def __len__(self) -> int:
        return len(self.genes)

    def __hash__(self) -> int:
        return hash((self.genes, self.communication_count, self.wavelength_count))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Chromosome({self.to_paper_string()})"
