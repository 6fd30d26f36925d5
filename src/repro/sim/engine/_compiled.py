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
``repro_fused_multitask``, the schedule walk behind
:func:`fused_multitask_compiled` (the fleet's windows and the Figure 5
matrix's points and warm-up); and ``repro_quantum_orbit``, one job's
closed-form quantum orbit behind :func:`quantum_orbit_compiled` (the
Figure 5 matrix's schedule).
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
from typing import TYPE_CHECKING, Optional, Union

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
        ptr, ptr, ptr, ptr, ptr,
    ]
    lib.repro_quantum_orbit.restype = None
    lib.repro_quantum_orbit.argtypes = [
        ptr, i64, i64, i64, i64, ptr, ptr, ptr, ptr,
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


def _reset_probe() -> None:
    """Forget the probe result (tests only)."""
    global _lib, _probe_error, _probed
    _lib = None
    _probe_error = None
    _probed = False


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
    hit_flags: Optional[np.ndarray] = None,
) -> None:
    """Run a quantum schedule without materializing its access stream.

    The compiled schedule walk behind
    :func:`repro.sim.engine.fused.fused_multitask_run`, which the
    fleet and the Figure 5 matrix both call: segment ``s`` simulates
    ``seg_len[s]`` accesses of job ``seg_jobs[s]``, walking that job's
    slice of ``blocks_concat`` circularly from ``seg_pos[s]`` —
    exactly the stream the numpy path's gather materializes.  Per-job
    hits accumulate into ``job_hits``; when ``hit_flags`` (uint8, one
    slot per scheduled access) is given, per-access hit flags are
    written in global schedule order.
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
        _addr(hit_flags),
    )


#: A second name for the same walk.  Nothing in the package calls it
#: since the Figure 5 matrix walks through ``fused_multitask_run``; it
#: stays only because the benchmark's tracer (``perfbench/tracer.py``)
#: resolves it by name, and goes together with that tracer entry.
schedule_count_compiled = fused_multitask_compiled


def quantum_orbit_compiled(
    cumulative: np.ndarray, quantum: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One job's first ``count`` quanta from ``start``, in C.

    Returns ``(positions, accesses, ran, wraps)``: entry ``i`` is
    quantum ``i``'s start position, the accesses it performs, the
    instructions it runs and the trace wraps it causes, exactly as
    :class:`repro.sim.multitask.QuantumWalkTables` gathered along its
    :meth:`~repro.sim.multitask.QuantumWalkTables.orbit` gives them, or
    as :func:`repro.sim.multitask.single_quantum` iterated from
    ``start``.
    ``repro_quantum_orbit`` gallops to each quantum's end from the
    cursor, so the orbit costs O(count x log accesses-per-quantum)
    and builds no table over the trace's positions.  ``cumulative``
    must be strictly increasing, as
    :attr:`repro.trace.columnar.ColumnarTrace.cumulative_instructions`
    is; checking that would cost a pass over the trace, so only the
    O(1) conditions that keep the C loop in bounds are checked.

    Raises:
        ValueError: when ``cumulative`` is empty or charges some
            access no instruction (its last entry is below its
            length), ``start`` is not a position of it, or
            ``quantum`` is outside ``[1, 2**63 - 1 - cumulative[-1]]``
            (:func:`~repro.utils.validation.check_quantum`, the check
            the numpy path's ``quantum_tables`` makes too).
    """
    cum64 = np.ascontiguousarray(cumulative, dtype=np.int64)
    length = len(cum64)
    total = int(cum64[-1]) if length else 0
    if length == 0 or total < length:
        raise ValueError(
            f"cumulative instructions must charge each of the "
            f"{length} accesses at least one (total {total})"
        )
    if not 0 <= start < length:
        raise ValueError(f"start {start} out of range 0..{length - 1}")
    check_quantum(quantum, total)
    lib = load()
    positions = np.empty(count, dtype=np.int64)
    accesses = np.empty(count, dtype=np.int64)
    ran = np.empty(count, dtype=np.int64)
    wraps = np.empty(count, dtype=np.int64)
    lib.repro_quantum_orbit(
        _addr(cum64),
        length,
        quantum,
        start,
        count,
        _addr(positions),
        _addr(accesses),
        _addr(ran),
        _addr(wraps),
    )
    return positions, accesses, ran, wraps
