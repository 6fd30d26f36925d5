"""Build, load and wrap the compiled C lockstep kernel.

The kernel source (``_lockstep.c``, shipped next to this module) has
zero dependencies beyond a C compiler: it is compiled on demand with
``cc``/``gcc``/``clang`` into a shared library cached under
``~/.cache/repro/kernels`` (override with ``REPRO_KERNEL_CACHE``) and
loaded through :mod:`ctypes`.  It exports three entry points:
``repro_lockstep_flags``, the per-access loop behind
:func:`lockstep_run_compiled`, which reads either precomputed rows and
tags or one column of blocks or byte addresses (deriving each access's
row and tag itself) and writes hit and bypass flags, miss positions or
LRU stack depths, or only adds the batch's hits and bypasses into a
2-slot count (how :class:`~repro.sim.engine.batched.LockstepCache`
counts a batch without building any per-access array);
``repro_fused_multitask``, the walk of a schedule built ahead behind
:func:`fused_multitask_compiled` (the Figure 5 matrix's warm-ups); and
``repro_fleet_segment``, round-robin quanta over one shared cache
behind :func:`fleet_segment_compiled`, which cuts each quantum as it
walks it (a fleet segment, or a Figure 5 point) and folds each
resident's working-set signature.
Nothing here compiles at import time — :func:`available` performs the
(cached) probe, and :mod:`repro.sim.engine.backends` decides when to
call it.

When no compiler or loadable library is available the module degrades
cleanly: :func:`available` returns False and :func:`unavailable_reason`
says why, so ``REPRO_KERNEL=auto`` can fall back to numpy while
``REPRO_KERNEL=compiled`` fails loudly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.sim.engine.batched import LockstepState

import numpy as np

from repro.utils.validation import check_quantum

_SOURCE = Path(__file__).with_name("_lockstep.c")

#: Compiler candidates, first found wins (``$CC`` overrides).
_COMPILERS = ("cc", "gcc", "clang")

#: Widest associativity the C kernel handles (mask fits int64).
MAX_COMPILED_WAYS = 63

_lib: Optional[ctypes.CDLL] = None
_probe_error: Optional[str] = None
_probed = False


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "kernels"


def _find_compiler() -> Optional[str]:
    env = os.environ.get("CC")
    if env:
        return shutil.which(env)
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _library_path(source: str) -> Path:
    digest = hashlib.sha256(
        source.encode("utf-8") + sys.platform.encode("ascii")
    ).hexdigest()[:16]
    suffix = ".dll" if sys.platform == "win32" else ".so"
    return _cache_dir() / f"lockstep-{digest}{suffix}"


def _build(compiler: str, source_path: Path, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        dir=out.parent, suffix=out.suffix
    )
    os.close(handle)
    try:
        subprocess.run(
            [
                compiler,
                "-O3",
                "-fPIC",
                "-shared",
                "-o",
                temp_name,
                str(source_path),
            ],
            check=True,
            capture_output=True,
            timeout=120,
        )
        # Atomic publish: concurrent builders race harmlessly.
        os.replace(temp_name, out)
    finally:
        if os.path.exists(temp_name):
            os.unlink(temp_name)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    ptr = ctypes.c_void_p
    lib.repro_lockstep_flags.restype = None
    lib.repro_lockstep_flags.argtypes = [
        i64, ptr, ptr, ptr, i64, i64, i64, i64, ptr, i64, ptr, ptr, ptr,
        ptr, ptr, ptr, ptr,
    ]
    lib.repro_fused_multitask.restype = None
    lib.repro_fused_multitask.argtypes = [
        i64, ptr, ptr, ptr, ptr, ptr, ptr, i32, ptr, i64, i64, i64,
        ptr, ptr, ptr, ptr,
    ]
    lib.repro_fleet_segment.restype = None
    lib.repro_fleet_segment.argtypes = [
        i64, ptr, i64, i64, i64, i64, i64, i64, i64, ptr, ptr, ptr, ptr,
        i64, ptr, ptr,
    ]
    return lib


def _probe() -> tuple[Optional[ctypes.CDLL], Optional[str]]:
    if not _SOURCE.is_file():
        return None, f"kernel source missing: {_SOURCE}"
    source = _SOURCE.read_text(encoding="utf-8")
    library = _library_path(source)
    if not library.is_file():
        compiler = _find_compiler()
        if compiler is None:
            return None, (
                "no C compiler found (tried $CC, "
                + ", ".join(_COMPILERS)
                + ")"
            )
        try:
            _build(compiler, _SOURCE, library)
        except (OSError, subprocess.SubprocessError) as error:
            detail = ""
            stderr = getattr(error, "stderr", None)
            if stderr:
                detail = ": " + stderr.decode(
                    "utf-8", "replace"
                ).strip()
            return None, f"kernel build failed ({error}){detail}"
    try:
        return _declare(ctypes.CDLL(str(library))), None
    except OSError as error:
        return None, f"kernel load failed: {error}"


def load() -> ctypes.CDLL:
    """The loaded kernel library, building it on first use.

    Raises:
        RuntimeError: when the kernel cannot be built or loaded (the
            message carries :func:`unavailable_reason`).
    """
    global _lib, _probe_error, _probed
    if not _probed:
        _lib, _probe_error = _probe()
        _probed = True
    if _lib is None:
        raise RuntimeError(
            f"compiled lockstep kernel unavailable: {_probe_error}"
        )
    return _lib


def available() -> bool:
    """True when the compiled kernel builds and loads on this host."""
    try:
        load()
    except RuntimeError:
        return False
    return True


def unavailable_reason() -> Optional[str]:
    """Why :func:`available` is False (None when it is True)."""
    if available():
        return None
    return _probe_error


#: Identity-checked buffer-address memo.  ``array.ctypes.data``
#: rebuilds the ctypes helper (and the array-interface dict) on every
#: access — microseconds that dominate small fused windows where one
#: kernel call passes a dozen long-lived arrays.  An ndarray's buffer
#: never moves while the object lives (nothing here calls in-place
#: ``ndarray.resize``), and the weakref identity check rejects any
#: recycled ``id()`` after an array dies.
_ADDR_CACHE: dict[int, tuple["weakref.ref[np.ndarray]", int]] = {}
_ADDR_CACHE_MAX = 256


def _addr(array: Optional[np.ndarray]) -> Optional[int]:
    if array is None:
        return None
    key = id(array)
    entry = _ADDR_CACHE.get(key)
    if entry is not None and entry[0]() is array:
        return entry[1]
    address = array.ctypes.data
    if len(_ADDR_CACHE) >= _ADDR_CACHE_MAX:
        _ADDR_CACHE.clear()  # mostly dead per-call arrays; refill cheap
    _ADDR_CACHE[key] = (weakref.ref(array), address)
    return address


def supports(ways: int) -> bool:
    """Whether the C kernel handles this associativity."""
    return 1 <= ways <= MAX_COMPILED_WAYS


def ensure_state_native(state: "LockstepState") -> None:
    """Make a ``LockstepState``'s arrays C-contiguous int64 in place.

    States built by :meth:`LockstepState.cold` already are; this
    guards callers that assembled states from slices or narrower
    dtypes.
    """
    for field in ("tags", "last_use", "clock"):
        array = getattr(state, field)
        if array.dtype != np.int64 or not array.flags.c_contiguous:
            setattr(
                state, field, np.ascontiguousarray(array, np.int64)
            )


def lockstep_run_compiled(
    keys: np.ndarray,
    tags: Optional[np.ndarray],
    state: "LockstepState",
    mask_bits: Optional[np.ndarray],
    uniform_mask: Optional[int],
    collect: str,
    shift: int = 0,
    counts: Optional[np.ndarray] = None,
) -> Union[np.ndarray, tuple[np.ndarray, Optional[np.ndarray]]]:
    """Compiled twin of :func:`repro.sim.engine.batched.lockstep_run`.

    ``keys`` is the one per-access column.  With ``tags`` given it
    holds each access's row (``lockstep_run``'s form: stacked banks of
    rows).  With ``tags`` None it holds blocks, or byte addresses when
    ``shift`` (the line's offset bits) is positive; the state's rows
    are then one cache's power-of-two sets, and the kernel derives
    ``block = key >> shift``, its row ``block & (rows - 1)`` and its
    tag ``block >> log2(rows)`` in the loop, building no row or tag
    column.

    ``collect`` is ``lockstep_run``'s ``"flags"``, ``"misses"`` or
    ``"depths"``, or ``"hits"`` (the hit flags alone) or ``"counts"``
    (nothing per access; returns ``counts``).  The kernel adds the
    batch's hits and bypasses into ``counts``, a 2-slot int64 array
    (allocated in ``"counts"`` mode when None).  Arguments are
    pre-validated by the caller; state and outputs are bit-identical
    to the numpy kernel.
    """
    lib = load()
    n = len(keys)
    ways = state.ways
    keys64 = np.ascontiguousarray(keys, dtype=np.int64)
    if tags is None:
        rows64 = tags64 = None
        values64: Optional[np.ndarray] = keys64
        sets = state.rows
        if sets & (sets - 1):
            raise ValueError(
                f"deriving rows needs a power-of-two row count, "
                f"got {sets}"
            )
        index_bits = sets.bit_length() - 1
    else:
        rows64 = keys64
        tags64 = np.ascontiguousarray(tags, dtype=np.int64)
        values64 = None
        sets = 1
        index_bits = 0
    if mask_bits is not None:
        masks64 = np.ascontiguousarray(mask_bits, dtype=np.int64)
        uniform = 0
    else:
        masks64 = None
        uniform = (
            (1 << ways) - 1 if uniform_mask is None else int(uniform_mask)
        )
    ensure_state_native(state)
    if counts is None and collect == "counts":
        counts = np.zeros(2, dtype=np.int64)
    depths = np.empty(n, dtype=np.uint8) if collect == "depths" else None
    hit_flags = (
        np.zeros(n, np.bool_)
        if collect in ("flags", "hits", "misses")
        else None
    )
    bypass_flags = (
        np.zeros(n, dtype=np.bool_) if collect == "flags" else None
    )
    lib.repro_lockstep_flags(
        n,
        _addr(rows64),
        _addr(tags64),
        _addr(values64),
        shift,
        sets - 1,
        index_bits,
        ways,
        _addr(masks64),
        uniform,
        _addr(state.tags),
        _addr(state.last_use),
        _addr(state.clock),
        _addr(hit_flags),
        _addr(bypass_flags),
        _addr(depths),
        _addr(counts),
    )
    if depths is not None:
        return depths
    if collect == "counts":
        return counts
    if collect == "hits":
        return hit_flags
    if collect == "misses":
        return np.flatnonzero(~hit_flags)
    return hit_flags, bypass_flags


def fused_multitask_compiled(
    seg_jobs: np.ndarray,
    seg_pos: np.ndarray,
    seg_len: np.ndarray,
    job_offsets: np.ndarray,
    job_lengths: np.ndarray,
    blocks_concat: np.ndarray,
    mask_table: np.ndarray,
    state: "LockstepState",
    *,
    sets_mask: int,
    index_bits: int,
    job_hits: np.ndarray,
) -> None:
    """Run a quantum schedule without materializing its access stream.

    The compiled schedule walk behind
    :func:`repro.sim.engine.fused.fused_multitask_run`, which the
    Figure 5 matrix's warm-ups call: segment ``s`` simulates
    ``seg_len[s]`` accesses of job ``seg_jobs[s]``, walking that job's
    slice of ``blocks_concat`` circularly from ``seg_pos[s]`` —
    exactly the stream the numpy path's gather materializes.  Per-job
    hits accumulate into ``job_hits``.
    """
    lib = load()
    if blocks_concat.dtype == np.int32:
        blocks_native = np.ascontiguousarray(blocks_concat)
        is32 = 1
    else:
        blocks_native = np.ascontiguousarray(
            blocks_concat, dtype=np.int64
        )
        is32 = 0
    seg_jobs64 = np.ascontiguousarray(seg_jobs, np.int64)
    seg_pos64 = np.ascontiguousarray(seg_pos, np.int64)
    seg_len64 = np.ascontiguousarray(seg_len, np.int64)
    offsets64 = np.ascontiguousarray(job_offsets, np.int64)
    lengths64 = np.ascontiguousarray(job_lengths, np.int64)
    table64 = np.ascontiguousarray(mask_table, np.int64)
    ensure_state_native(state)
    lib.repro_fused_multitask(
        len(seg_jobs64),
        _addr(seg_jobs64),
        _addr(seg_pos64),
        _addr(seg_len64),
        _addr(offsets64),
        _addr(lengths64),
        _addr(blocks_native),
        is32,
        _addr(table64),
        sets_mask,
        index_bits,
        state.ways,
        _addr(state.tags),
        _addr(state.last_use),
        _addr(state.clock),
        _addr(job_hits),
    )


#: A second name for the same walk.  Nothing in the package calls it
#: since the Figure 5 matrix walks through ``fused_multitask_run``; it
#: stays only because the benchmark's tracer (``perfbench/tracer.py``)
#: resolves it by name, and goes together with that tracer entry.
schedule_count_compiled = fused_multitask_compiled


#: The cap of a walk whose every quantum runs whole (no quantum runs
#: past 2**63 - 1 instructions): the Figure 5 matrix's points.
NO_CAP = 2**63 - 1


def fleet_segment_compiled(
    blocks: Sequence[np.ndarray],
    cumulatives: Sequence[np.ndarray],
    cursors: Sequence[int],
    masks: Sequence[int],
    quantum: int,
    budget: int,
    start_at: int,
    state: "LockstepState",
    *,
    sets_mask: int,
    index_bits: int,
    cap: Optional[int] = None,
    signature_bits: Optional[int] = None,
    collect_flags: bool = False,
) -> tuple[
    list[list[int]], int, int, Optional[list[int]], Optional[np.ndarray]
]:
    """Round-robin quanta over one shared cache in one C call.

    ``repro_fleet_segment`` cuts each quantum from its resident's
    cursor as it walks it, so no schedule, concatenated batch or
    per-resident call is built.  Each turn runs
    ``min(quantum, cap - executed)`` instructions, until ``budget``
    have run.  With ``cap`` None (the budget) this is the compiled
    path of :func:`repro.sim.engine.fused.fleet_segment` (same
    arguments), whose final quantum is cut to the budget; with
    :data:`NO_CAP` every quantum runs whole, as the Figure 5 matrix's
    points run them.  Returns ``(rows, executed, next_turn,
    signatures, hit_flags)``: ``rows[r]`` is resident ``r``'s
    ``[cursor, instructions, accesses, wraps, quanta, hits]`` after the
    walk, ``signatures`` one int per resident (when ``signature_bits``
    is given) and ``hit_flags`` one bool per access (when
    ``collect_flags``).  The window's shape is pre-validated by the
    caller (:func:`~repro.sim.multitask.check_window`); this checks
    only the O(1) conditions that keep the C loop in bounds, not that
    each ``cumulatives[r]`` strictly increases.

    Raises:
        ValueError: before anything is walked, when ``cap`` is below
            the budget or above :data:`NO_CAP`, ``collect_flags`` is
            asked of a walk not cut at its budget (the flag buffer
            holds ``budget`` accesses), a cursor is not a position of
            its trace, a trace's block and cumulative columns differ
            in length, some ``cumulatives[r]`` charges an access no
            instruction, or ``quantum`` is above ``2**63 - 1`` minus
            some resident's pass total
            (:func:`~repro.utils.validation.check_quantum`, the check
            the numpy path's ``quantum_tables`` makes too).
    """
    if cap is None:
        cap = budget
    if not budget <= cap <= NO_CAP:
        raise ValueError(
            f"cap must be in [{budget}, {NO_CAP}] (from the budget), "
            f"got {cap}"
        )
    if collect_flags and cap != budget:
        raise ValueError(
            "hit flags are collected only for a walk cut at its budget "
            f"(cap {cap}, budget {budget})"
        )
    lib = load()
    blocks64 = [np.ascontiguousarray(column, np.int64) for column in blocks]
    cumulatives64 = [
        np.ascontiguousarray(column, np.int64) for column in cumulatives
    ]
    rows: list[list[int]] = []
    for block, cumulative, mask, cursor in zip(
        blocks64, cumulatives64, masks, cursors
    ):
        if not 0 <= cursor < len(block) == len(cumulative):
            raise ValueError(
                f"cursor {cursor} is outside a trace of {len(block)} "
                f"blocks and {len(cumulative)} instruction counts"
            )
        rows.append(
            [_addr(block), _addr(cumulative), len(block), mask, cursor]
            + [0] * 5
        )
    table = np.array(rows, dtype=np.int64)
    signatures = (
        np.zeros((len(table), (signature_bits + 7) // 8), np.uint8)
        if signature_bits
        else None
    )
    flags = np.zeros(budget, np.uint8) if collect_flags else None
    outcome = np.empty(4, np.int64)
    ensure_state_native(state)
    lib.repro_fleet_segment(
        len(table),
        table.ctypes.data,
        start_at,
        quantum,
        budget,
        cap,
        sets_mask,
        index_bits,
        state.ways,
        _addr(state.tags),
        _addr(state.last_use),
        _addr(state.clock),
        None if signatures is None else signatures.ctypes.data,
        signature_bits or 0,
        None if flags is None else flags.ctypes.data,
        outcome.ctypes.data,
    )
    executed, next_turn, accesses, refused = outcome.tolist()
    if refused >= 0:
        # That trace charges some access no instruction, or its pass
        # total leaves no room for the quantum.
        length = len(cumulatives64[refused])
        total = int(cumulatives64[refused][-1])
        if total < length:
            raise ValueError(
                f"cumulative instructions must charge each of the "
                f"{length} accesses at least one (total {total})"
            )
        check_quantum(quantum, total)
    folded: Optional[list[int]] = None
    if signatures is not None:
        width = signatures.shape[1]
        raw = signatures.tobytes()
        folded = [
            int.from_bytes(raw[start : start + width], "little")
            for start in range(0, len(raw), width)
        ]
    return (
        table[:, 4:].tolist(),
        executed,
        next_turn,
        folded,
        None if flags is None else flags[:accesses].view(np.bool_),
    )
