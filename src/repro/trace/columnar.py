"""The columnar trace: parallel arrays end to end, plus on-disk ``.npz``.

:class:`ColumnarTrace` is the canonical trace representation of the
whole stack: every access is a row across parallel numpy columns
(address, size, write flag, instruction gap, object id), and the
derived columns the simulators consume — block numbers per cache
geometry, cumulative instruction counts — are computed vectorized and
cached on the trace, so no consumer ever round-trips the stream
through per-access Python objects.

Three ways in:

* :class:`ColumnarRecorder` — the one recorder, what instrumented
  workloads record into directly (a scalar access appends its address
  and a slot code to flat buffers that become columns at each seal;
  ``append_many`` for vectorizable patterns);
* :meth:`ColumnarTrace.from_columns` — wrap arrays you already have;
* :func:`load_npz` — the on-disk format (below).

On-disk format: a plain ``numpy.savez`` archive (uncompressed zip of
``.npy`` members) holding the five columns plus the variable-name
table.  Because members are stored uncompressed, :func:`load_npz` can
memory-map them in place (``mmap=True``): the loader parses the zip
local headers, finds each member's data offset, and hands the columns
to :class:`ColumnarTrace` as read-only ``np.memmap`` views — a
million-access trace replays with a file-cache-sized footprint.
:meth:`ColumnarTrace.iter_chunks` streams bounded windows off either
representation (:data:`DEFAULT_CHUNK_ACCESSES` accesses each in a
replay).  The loader checks each column's dtype and shape from its
npy header (integer, or bool for the write flag; 1-D, every column of
one length) and rejects any other, so a float column never reaches
the int64 casts.  The values are checked once, on first read (see
:class:`ColumnarTrace`).
"""

from __future__ import annotations

import math
import struct
import zipfile
from array import array
from pathlib import Path
from typing import (
    BinaryIO,
    Callable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

import numpy as np

#: ``variable_ids`` value for accesses with no known variable.
NO_VARIABLE = -1

#: On-disk format version written into every archive.
NPZ_FORMAT_VERSION = 1

#: Default replay streaming window (accesses per chunk).  Small enough
#: that a chunk's columns stay cache-resident, large enough to
#: amortize the per-chunk kernel dispatch.
DEFAULT_CHUNK_ACCESSES = 1 << 18

#: Each archive column and the numpy dtype kinds it may be stored as:
#: integers, and for the write flag also bools.
_COLUMN_KINDS = {
    "addresses": "iu",
    "sizes": "iu",
    "writes": "biu",
    "gaps": "iu",
    "variable_ids": "iu",
}


def _check_domain(
    column: str,
    values: np.ndarray,
    low: int,
    high: Optional[int] = None,
    first: int = 0,
) -> None:
    """Raise a ValueError naming the first value outside ``[low, high)``
    (``first`` is the position of ``values[0]`` in ``column``)."""
    if not len(values) or (
        values.min() >= low and (high is None or values.max() < high)
    ):
        return
    outside = values < low
    if high is not None:
        outside |= values >= high
    index = int(np.argmax(outside))
    allowed = f">= {low}" if high is None else f"in [{low}, {high})"
    raise ValueError(
        f"{column}[{first + index}] = {int(values[index])}; "
        f"must be {allowed}"
    )


class ColumnarTrace:
    """An immutable memory-reference trace stored as parallel arrays.

    Build with :class:`ColumnarRecorder` (preferred) or
    :meth:`from_columns`, or open one with :func:`load_npz`.

    A trace :func:`load_npz` opened, and each window of one, checks its
    value columns (``sizes``, ``gaps``, ``variable_ids``) once, on the
    first read of any of them.  The ``ValueError`` names the archive,
    the column and the first bad position: an id outside ``[-1,
    len(variable_names))``, a size below 1, a negative gap, or the gap
    that takes the instruction total past ``2**63 - 1``.  Replay reads
    only the addresses and checks nothing; a trace built in memory is
    not checked here.

    Attributes:
        addresses: int64 array of byte addresses.
        writes: bool array, True for stores.
        variable_names: id -> name table for ``variable_ids``.
    """

    def __init__(
        self,
        addresses: np.ndarray,
        writes: np.ndarray,
        gaps: np.ndarray,
        variable_ids: np.ndarray,
        variable_names: list[str],
        name: str = "trace",
        sizes: Optional[np.ndarray] = None,
    ):
        length = len(addresses)
        if not (len(writes) == len(gaps) == len(variable_ids) == length):
            raise ValueError("trace arrays must have equal length")
        self.addresses = np.asarray(addresses, dtype=np.int64)
        self.writes = np.asarray(writes, dtype=bool)
        self._gaps = np.asarray(gaps, dtype=np.int64)
        self._variable_ids = np.asarray(variable_ids, dtype=np.int64)
        # Values still to be checked: (archive, position of the first
        # access in it) for a trace load_npz opened, or a window of
        # one; None once checked, or for a trace built in memory.
        self._unchecked: Optional[tuple[str, int]] = None
        if sizes is None:
            self._sizes = np.ones(length, dtype=np.int32)
        else:
            if len(sizes) != length:
                raise ValueError("trace arrays must have equal length")
            self._sizes = np.asarray(sizes, dtype=np.int32)
        self.variable_names = list(variable_names)
        self.name = name
        # Derived-column caches (offset_bits -> blocks, cumulative
        # instruction counts, the session's content digest).  Computed
        # lazily, shared by every consumer of this trace object.
        self._blocks: dict[int, np.ndarray] = {}
        self._cumulative: Optional[np.ndarray] = None
        self._digest: Optional[str] = None

    @property
    def sizes(self) -> np.ndarray:
        """int32 array of access widths in bytes."""
        return self._checked()._sizes

    @property
    def gaps(self) -> np.ndarray:
        """int64 array of non-memory instruction gaps."""
        return self._checked()._gaps

    @property
    def variable_ids(self) -> np.ndarray:
        """int64 object-id column (``NO_VARIABLE`` = none)."""
        return self._checked()._variable_ids

    def _checked(self) -> "ColumnarTrace":
        """This trace, a loaded trace's values checked (once).

        The instruction total is a checked sum: each term of the
        cumulative column is in ``[1, 2**63]``, so the column's first
        int64 wrap is its first negative entry.  The column is kept as
        :attr:`cumulative_instructions`.
        """
        if self._unchecked is None:
            return self
        archive, first = self._unchecked
        _check_domain(
            f"{archive}: variable_ids",
            self._variable_ids,
            NO_VARIABLE,
            len(self.variable_names),
            first=first,
        )
        _check_domain(f"{archive}: sizes", self._sizes, 1, first=first)
        _check_domain(f"{archive}: gaps", self._gaps, 0, first=first)
        cumulative = np.cumsum(self._gaps + 1, dtype=np.int64)
        if len(cumulative) and cumulative.min() < 0:
            index = int(np.argmax(cumulative < 0))
            raise ValueError(
                f"{archive}: gaps[{first + index}] = "
                f"{int(self._gaps[index])}; takes the instruction "
                "total past 2**63 - 1"
            )
        self._cumulative = cumulative
        self._unchecked = None
        return self

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        addresses: Sequence[int] | np.ndarray,
        writes: Optional[Sequence[bool] | np.ndarray] = None,
        gaps: Optional[Sequence[int] | np.ndarray] = None,
        variable: Optional[str] = None,
        variable_ids: Optional[np.ndarray] = None,
        variable_names: Optional[Sequence[str]] = None,
        sizes: Optional[Sequence[int] | np.ndarray] = None,
        name: str = "trace",
    ) -> "ColumnarTrace":
        """Build a trace directly from column arrays (all vectorized).

        ``variable`` labels every access with one name; pass
        ``variable_ids`` + ``variable_names`` instead for multi-variable
        columns.  Omitted columns default to reads / zero gaps / size 1.

        Raises:
            ValueError: when a gap is negative, or a variable id is
                outside ``[-1, len(variable_names))``; the message
                names the first such entry and its value.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        length = len(addresses)
        if writes is None:
            writes = np.zeros(length, dtype=bool)
        elif np.isscalar(writes):
            writes = np.full(length, bool(writes))
        if gaps is None:
            gaps = np.zeros(length, dtype=np.int64)
        gaps = np.asarray(gaps, dtype=np.int64)
        _check_domain("gaps", gaps, 0)
        if variable_ids is not None:
            names = list(variable_names or [])
            variable_ids = np.asarray(variable_ids, dtype=np.int64)
            _check_domain(
                "variable_ids", variable_ids, NO_VARIABLE, len(names)
            )
        elif variable is not None:
            names = [variable]
            variable_ids = np.zeros(length, dtype=np.int64)
        else:
            names = []
            variable_ids = np.full(length, NO_VARIABLE, dtype=np.int64)
        return cls(
            addresses,
            np.asarray(writes, dtype=bool),
            gaps,
            variable_ids,
            names,
            name=name,
            sizes=None if sizes is None else np.asarray(sizes),
        )

    @classmethod
    def empty(cls, name: str = "trace") -> "ColumnarTrace":
        """A zero-length trace."""
        zero = np.zeros(0, dtype=np.int64)
        return cls(zero, zero.astype(bool), zero, zero, [], name=name)

    # ------------------------------------------------------------------
    # Derived columns (cached, vectorized)
    # ------------------------------------------------------------------
    def blocks_for(
        self, offset_bits: int, address_offset: int = 0
    ) -> np.ndarray:
        """Block numbers (``address >> offset_bits``), cached.

        With ``address_offset == 0`` the returned array is the shared
        cached column — treat it as read-only.  A non-zero offset
        (disjoint per-job address spaces) reuses the cached column
        when the offset is block-aligned (one vectorized add), and
        falls back to a direct shift otherwise; either way the result
        is a fresh array the caller owns.
        """
        blocks = self._blocks.get(offset_bits)
        if blocks is None:
            blocks = np.ascontiguousarray(
                self.addresses >> np.int64(offset_bits), dtype=np.int64
            )
            self._blocks[offset_bits] = blocks
        if address_offset == 0:
            return blocks
        if address_offset % (1 << offset_bits) == 0:
            return blocks + np.int64(address_offset >> offset_bits)
        return np.ascontiguousarray(
            (self.addresses + np.int64(address_offset))
            >> np.int64(offset_bits),
            dtype=np.int64,
        )

    @property
    def cumulative_instructions(self) -> np.ndarray:
        """``cum[i]`` = instructions contributed by accesses 0..i.

        Cached; shared by the multitask schedulers and the fleet
        executor.  Treat as read-only.  A loaded trace's value check
        computes it.

        Raises:
            ValueError: when a gap is negative; the message names the
                trace and the first such gap's index and value.  The
                schedulers need every access to cost at least one
                instruction.
        """
        if self._checked()._cumulative is None:
            _check_domain(f"trace {self.name!r}: gaps", self._gaps, 0)
            self._cumulative = np.cumsum(self._gaps + 1, dtype=np.int64)
        return self._cumulative

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def instruction_count(self) -> int:
        """Total instructions: one per access plus all gaps."""
        return int(len(self) + self.gaps.sum())

    @property
    def access_count(self) -> int:
        """Number of memory accesses."""
        return len(self)

    def variables(self) -> list[str]:
        """Names of all variables that appear in the trace."""
        used = set(int(i) for i in np.unique(self.variable_ids))
        used.discard(NO_VARIABLE)
        return [self.variable_names[i] for i in sorted(used)]

    def variable_of(self, position: int) -> Optional[str]:
        """Variable name at trace position, or None."""
        identifier = int(self.variable_ids[position])
        if identifier == NO_VARIABLE:
            return None
        return self.variable_names[identifier]

    def positions_of(self, variable: str) -> np.ndarray:
        """Trace positions whose access belongs to ``variable``."""
        try:
            identifier = self.variable_names.index(variable)
        except ValueError:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.variable_ids == identifier)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def slice(
        self, start: int, stop: int, name: Optional[str] = None
    ) -> "ColumnarTrace":
        """A sub-trace of positions ``[start, stop)`` (array views)."""
        piece = ColumnarTrace(
            self.addresses[start:stop],
            self.writes[start:stop],
            self._gaps[start:stop],
            self._variable_ids[start:stop],
            self.variable_names,
            name=name or f"{self.name}[{start}:{stop}]",
            sizes=self._sizes[start:stop],
        )
        if self._unchecked is not None:
            # A window of unchecked values checks its own when read.
            archive, first = self._unchecked
            piece._unchecked = (archive, first + start)
        # Windowed consumers slice traces constantly; hand the slice
        # views of any block columns already computed on the parent.
        piece._blocks = {
            offset_bits: blocks[start:stop]
            for offset_bits, blocks in self._blocks.items()
        }
        return piece

    def repeat(self, count: int, name: Optional[str] = None) -> "ColumnarTrace":
        """The trace concatenated with itself ``count`` times."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return ColumnarTrace(
            np.tile(self.addresses, count),
            np.tile(self.writes, count),
            np.tile(self.gaps, count),
            np.tile(self.variable_ids, count),
            self.variable_names,
            name=name or f"{self.name}x{count}",
            sizes=np.tile(self.sizes, count),
        )

    def iter_chunks(
        self, chunk_size: int = 1 << 16
    ) -> Iterator["ColumnarTrace"]:
        """Bounded sub-trace windows, in order (streaming consumers).

        Chunks are array views — no copies, so a memory-mapped trace
        streams through a simulator touching one window at a time.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, len(self), chunk_size):
            yield self.slice(start, min(start + chunk_size, len(self)))

    # ------------------------------------------------------------------
    # On-disk format
    # ------------------------------------------------------------------
    def save_npz(self, path: Union[str, Path]) -> Path:
        """Write the trace as an uncompressed ``.npz`` archive.

        Members are stored (not deflated) so :func:`load_npz` can
        memory-map the columns in place.
        """
        path = Path(path)
        np.savez(
            path,
            format_version=np.int64(NPZ_FORMAT_VERSION),
            name=np.array(self.name),
            addresses=self.addresses,
            sizes=self.sizes,
            writes=self.writes,
            gaps=self.gaps,
            variable_ids=self.variable_ids,
            variable_names=np.array(self.variable_names, dtype=str),
        )
        # np.savez appends ".npz" when missing; mirror that here.
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        return path

    def __len__(self) -> int:
        return len(self.addresses)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, {len(self)} accesses, "
            f"{self.instruction_count} instructions, "
            f"{len(self.variables())} variables)"
        )


def _read_member(
    archive: zipfile.ZipFile, info: zipfile.ZipInfo, path: Path, key: str
) -> np.ndarray:
    """One archive member read eagerly; errors name the member."""
    try:
        with archive.open(info) as member:
            return np.lib.format.read_array(member, allow_pickle=False)
    except (ValueError, zipfile.BadZipFile) as error:
        raise ValueError(f"{path}: member {key!r}: {error}") from error


def _zip(handle: BinaryIO, path: Path) -> zipfile.ZipFile:
    """The zip archive in ``handle``, or a ValueError naming ``path``."""
    try:
        return zipfile.ZipFile(handle)
    except zipfile.BadZipFile as error:
        raise ValueError(f"{path}: not a zip archive ({error})") from error


def _stored_npy_header(
    handle: BinaryIO, info: zipfile.ZipInfo
) -> Optional[tuple[tuple[int, ...], bool, np.dtype, int, int]]:
    """Where a stored member's array data lies in the archive file.

    Returns ``(shape, fortran_order, dtype, start, end)``: the npy
    header's fields, the file offset where the array data starts and
    the offset where the member's stored bytes end.  None for an npy
    version other than 1.0 and 2.0, or an object dtype, which the
    caller reads eagerly.
    """
    handle.seek(info.header_offset)
    # Local file header: magic, sizes at 26 (name) / 28 (extra field);
    # the member's data starts right after both.
    name_length, extra_length = struct.unpack("<HH", handle.read(30)[26:])
    data_start = info.header_offset + 30 + name_length + extra_length
    handle.seek(data_start)
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        header = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        header = np.lib.format.read_array_header_2_0(handle)
    else:
        return None
    shape, fortran, dtype = header
    if dtype.hasobject:
        return None
    return shape, fortran, dtype, handle.tell(), data_start + info.file_size


def _npz_member_arrays(
    path: Path, mmap: bool
) -> dict[str, np.ndarray]:
    """All ``.npy`` members of an archive, optionally memory-mapped.

    ``numpy.load`` ignores ``mmap_mode`` for zip archives, so the mmap
    path maps the whole file once, finds each stored member's array
    data through its zip local header and npy header, and takes the
    member as a read-only ``np.ndarray`` view of that one map (its
    ``.base`` is the ``np.memmap``).  Members that are compressed,
    hold objects or carry another npy version are read eagerly.

    Raises:
        ValueError: naming the file when it is not a zip archive, and
            the member when its stored data is shorter than its npy
            header's shape and dtype need, or an eager read fails.
    """
    arrays: dict[str, np.ndarray] = {}
    mapped: Optional[np.memmap] = None
    with open(path, "rb") as handle, _zip(handle, path) as archive:
        for info in archive.infolist():
            key = info.filename.removesuffix(".npy")
            found = None
            if mmap and info.compress_type == zipfile.ZIP_STORED:
                found = _stored_npy_header(handle, info)
            if found is None:
                arrays[key] = _read_member(archive, info, path, key)
                continue
            shape, fortran, dtype, start, end = found
            size = dtype.itemsize * math.prod(shape)
            if start + size > end:
                raise ValueError(
                    f"{path}: member {key!r} is truncated: its header "
                    f"needs {size} data bytes, the archive stores "
                    f"{max(end - start, 0)}"
                )
            if mapped is None:
                mapped = np.memmap(handle, dtype=np.uint8, mode="r")
            arrays[key] = np.ndarray(
                shape,
                dtype=dtype,
                buffer=mapped,
                offset=start,
                order="F" if fortran else "C",
            )
    return arrays


def read_npz_members(
    path: Union[str, Path], mmap: bool = False
) -> dict[str, np.ndarray]:
    """Read every array member of an uncompressed ``.npz`` archive.

    The public face of the memory-map loader behind :func:`load_npz`:
    any archive written with uncompressed :func:`numpy.savez` (traces,
    inspection event streams) can be opened in O(1) with ``mmap=True``
    and its members paged in on demand.
    """
    return _npz_member_arrays(Path(path), mmap=mmap)


def load_npz(
    path: Union[str, Path], mmap: bool = False
) -> ColumnarTrace:
    """Load a :meth:`ColumnarTrace.save_npz` archive.

    With ``mmap=True`` the columns are read-only memory maps — the
    trace opens in O(1) and pages stream in as consumers touch them
    (combine with :meth:`ColumnarTrace.iter_chunks` for flat-memory
    replay of arbitrarily long traces).

    The values are checked on first use, not here (see
    :class:`ColumnarTrace`), so opening reads no column data.

    Raises:
        ValueError: naming the file and the member, when a column is
            missing, is not 1-D, differs in length from ``addresses``,
            or is stored with a dtype other than integer (bool or
            integer for ``writes``), such as float.
    """
    path = Path(path)
    arrays = _npz_member_arrays(path, mmap=mmap)
    missing = [column for column in _COLUMN_KINDS if column not in arrays]
    if missing:
        raise ValueError(
            f"{path}: not a columnar trace archive (missing {missing})"
        )
    # Dtypes and shapes come from each member's npy header, so this
    # reads no column data even when the columns are memory-mapped.
    length = arrays["addresses"].shape[:1]
    for column, kinds in _COLUMN_KINDS.items():
        member = arrays[column]
        if member.dtype.kind not in kinds:
            expected = "bool or integer" if "b" in kinds else "integer"
            raise ValueError(
                f"{path}: member {column!r} has dtype {member.dtype}; "
                f"a trace column must be {expected}"
            )
        if member.ndim != 1:
            raise ValueError(
                f"{path}: member {column!r} has shape {member.shape}; "
                "a trace column must be 1-D"
            )
        if member.shape != length:
            raise ValueError(
                f"{path}: member {column!r} has {len(member)} entries, "
                f"'addresses' has {length[0]}; trace columns must be "
                "of one length"
            )
    version = int(arrays.get("format_version", np.int64(1)))
    if version > NPZ_FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {version} is newer than "
            f"supported ({NPZ_FORMAT_VERSION})"
        )
    names_array = arrays.get("variable_names")
    variable_names = (
        [str(name) for name in names_array.tolist()]
        if names_array is not None and names_array.size
        else []
    )
    name_member = arrays.get("name")
    name = str(name_member) if name_member is not None else path.stem
    trace = ColumnarTrace(
        arrays["addresses"],
        arrays["writes"],
        arrays["gaps"],
        arrays["variable_ids"],
        variable_names,
        name=name,
        sizes=arrays["sizes"],
    )
    trace._unchecked = (str(path), 0)
    return trace


class ColumnarRecorder:
    """Append-only columnar trace constructor.

    The recorder instrumented kernels write into directly.  A scalar
    access costs two appends to flat fixed-width buffers: its address,
    and the code of its *slot*, the interned ``(variable, size,
    is_write)`` triple it was recorded under.  :meth:`add_gap` appends
    one marker, ``~instructions``, to the code buffer, so a marker is
    the one negative code and its position among the accesses is
    implicit.  A seal (every bulk call, and :meth:`build`) turns the
    buffers into columns with one numpy gather through the slot table,
    and interns the variable names in order of first access.  The bulk
    method :meth:`append_many` records a whole vectorized access
    pattern in one call.  Accesses default to a size of 1 byte.

    Traced storage resolves its slots once, with :meth:`slot`, and
    records through the two appenders :meth:`sinks` returns;
    :meth:`append` is the general form, resolving its slot per call.

    >>> recorder = ColumnarRecorder()
    >>> recorder.add_gap(3)          # three ALU instructions
    >>> recorder.append(0x1000, variable="block")
    >>> recorder.append_many([0x2000, 0x2002, 0x2004], variable="row")
    >>> recorder.build().instruction_count
    7
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        # Sealed column parts: (addresses, sizes, writes, gaps, ids).
        self._parts: list[tuple[np.ndarray, ...]] = []
        self._sealed = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Slot (variable, size, is_write) -> its code, in code order.
        self._slots: dict[tuple[Optional[str], int, bool], int] = {}
        # The scalar buffer, since the last seal: one address per
        # access; slot codes interleaved with gap markers.  A seal
        # empties both in place, so the appenders sinks() hands out
        # stay valid for the recorder's lifetime.
        self._addresses = array("q")
        self._codes = array("q")

    def _variable_id(self, variable: Optional[str]) -> int:
        if variable is None:
            return NO_VARIABLE
        identifier = self._name_ids.get(variable)
        if identifier is None:
            identifier = len(self._names)
            self._names.append(variable)
            self._name_ids[variable] = identifier
        return identifier

    def slot(
        self,
        variable: Optional[str],
        size: int = 1,
        is_write: bool = False,
    ) -> int:
        """The code of the ``(variable, size, is_write)`` access slot.

        Interned on first use; the variable's name is interned only
        when an access recorded under the slot is sealed, so the name
        table stays in first-access order.
        """
        key = (variable, size, bool(is_write))
        return self._slots.setdefault(key, len(self._slots))

    def sinks(self) -> tuple[Callable[[int], None], Callable[[int], None]]:
        """The appenders of one scalar access: address, then slot code.

        Traced storage records an access by passing its address to the
        first and then a :meth:`slot` code to the second.  Neither
        checks its argument: the caller guarantees a non-negative
        address.
        """
        return self._addresses.append, self._codes.append

    def add_gap(self, instructions: int = 1) -> None:
        """Record non-memory instructions before the next access."""
        if instructions < 0:
            raise ValueError(f"gap must be non-negative, got {instructions}")
        self._codes.append(~instructions)

    def append(
        self,
        address: int,
        is_write: bool = False,
        variable: Optional[str] = None,
        size: Optional[int] = None,
    ) -> None:
        """Record one memory access."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        code = self.slot(variable, 1 if size is None else size, is_write)
        self._addresses.append(address)
        self._codes.append(code)

    def _seal(self) -> int:
        """Move the scalar buffer into a sealed part.

        Returns the gap instructions recorded after the buffer's last
        access; the caller folds them into its own first access or
        records them again as pending.
        """
        count = len(self._addresses)
        stream = np.array(self._codes, dtype=np.int64)
        del self._codes[:]
        # A marker's position is the number of accesses before it.
        markers = np.flatnonzero(stream < 0)
        gaps = np.zeros(count + 1, dtype=np.int64)
        np.add.at(gaps, markers - np.arange(len(markers)), ~stream[markers])
        if count:
            addresses = np.array(self._addresses, dtype=np.int64)
            del self._addresses[:]
            sizes, writes, ids = self._slot_columns(np.delete(stream, markers))
            self._parts.append((addresses, sizes, writes, gaps[:count], ids))
            self._sealed += count
        return int(gaps[count])

    def _slot_columns(
        self, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sizes, writes and variable ids of a run of slot codes.

        Interns the slots' variable names in order of each slot's first
        occurrence, which keeps the name table in first-access order.
        """
        slots = list(self._slots)
        first = np.full(len(slots), len(codes), dtype=np.intp)
        np.minimum.at(first, codes, np.arange(len(codes)))
        used = np.flatnonzero(first < len(codes))
        variable_ids = np.full(len(slots), NO_VARIABLE, dtype=np.int64)
        for code in used[np.argsort(first[used])].tolist():
            variable_ids[code] = self._variable_id(slots[code][0])
        sizes = np.array([size for _, size, _ in slots], dtype=np.int32)
        writes = np.array([write for _, _, write in slots], dtype=bool)
        return sizes[codes], writes[codes], variable_ids[codes]

    def append_many(
        self,
        addresses: Sequence[int] | np.ndarray,
        is_write: bool | Sequence[bool] | np.ndarray = False,
        variable: Optional[str] = None,
        gaps: Optional[Sequence[int] | np.ndarray] = None,
        sizes: Optional[Sequence[int] | np.ndarray] = None,
        gap_each: int = 0,
    ) -> None:
        """Record a whole access batch in one vectorized call.

        ``is_write`` may be a scalar or a per-access array;
        ``variable`` labels every access of the batch; ``gaps`` gives
        per-access gaps (``gap_each`` a uniform one).  A pending
        :meth:`add_gap` is folded into the first access, matching the
        scalar path exactly.  Every input array is copied — callers
        may freely reuse their scratch buffers after the call.
        """
        addresses = np.array(addresses, dtype=np.int64)  # owned copy
        count = len(addresses)
        if count == 0:
            return
        if addresses.min() < 0:
            raise ValueError("addresses must be non-negative")
        if gaps is not None:
            gaps = np.array(gaps, dtype=np.int64)  # owned copy
            if len(gaps) != count:
                raise ValueError("gaps length mismatch")
            if gaps.min() < 0:
                raise ValueError("gaps must be non-negative")
        elif gap_each:
            if gap_each < 0:
                raise ValueError("gap_each must be non-negative")
            gaps = np.full(count, gap_each, dtype=np.int64)
        else:
            gaps = np.zeros(count, dtype=np.int64)
        if np.isscalar(is_write) or isinstance(is_write, bool):
            writes = np.full(count, bool(is_write))
        else:
            writes = np.array(is_write, dtype=bool)  # owned copy
            if len(writes) != count:
                raise ValueError("is_write length mismatch")
        if sizes is None:
            sizes = np.ones(count, dtype=np.int32)
        else:
            sizes = np.array(sizes, dtype=np.int32)  # owned copy
            if len(sizes) != count:
                raise ValueError("sizes length mismatch")
        # Seal first, so the scalar buffer's names are interned before
        # the batch's variable.
        gaps[0] += self._seal()
        ids = np.full(count, self._variable_id(variable), dtype=np.int64)
        self._parts.append((addresses, sizes, writes, gaps, ids))
        self._sealed += count

    def __len__(self) -> int:
        return self._sealed + len(self._addresses)

    def build(self) -> ColumnarTrace:
        """Freeze into an immutable :class:`ColumnarTrace`.

        A gap recorded after the last access stays pending.
        """
        pending = self._seal()
        if pending:
            self.add_gap(pending)
        if not self._parts:
            return ColumnarTrace.empty(self.name)
        columns = [np.concatenate(column) for column in zip(*self._parts)]
        return ColumnarTrace(
            columns[0],
            columns[2],
            columns[3],
            columns[4],
            list(self._names),
            name=self.name,
            sizes=columns[1],
        )
