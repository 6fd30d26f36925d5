"""Build the lockstep kernel under AddressSanitizer and UBSan.

Usage (from the root of a checkout)::

    python tests/build_sanitized_kernel.py DIR >> "$GITHUB_ENV"

compiles ``src/repro/sim/engine/_lockstep.c`` with
``-O1 -g -fno-omit-frame-pointer -fsanitize=address,undefined
-fno-sanitize-recover=all -fPIC -shared`` into ``DIR``, under the file
name ``_compiled._library_path`` gives for the source there, and
prints the environment a run needs to load it::

    REPRO_KERNEL=compiled
    REPRO_KERNEL_CACHE=DIR
    LD_PRELOAD=<libasan.so>:<libubsan.so>
    ASAN_OPTIONS=detect_leaks=0

With those set, the compiled backend finds the sanitized library in
its cache and never builds the optimized one; any out-of-bounds or
misaligned access, or other undefined behaviour, in the kernel aborts
the test process.  ``DIR`` must be empty or hold only this build, so
a sanitized and an optimized library never share a cache directory.
The interpreter is not instrumented, so the sanitizer runtimes are
preloaded and leak checking (which would report the interpreter's
own allocations) is off.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SANITIZE_FLAGS = (
    "-O1",
    "-g",
    "-fno-omit-frame-pointer",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-fPIC",
    "-shared",
)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    directory = Path(argv[0]).resolve()
    os.environ["REPRO_KERNEL_CACHE"] = str(directory)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.sim.engine import _compiled

    source = _compiled._SOURCE
    library = _compiled._library_path(source.read_text(encoding="utf-8"))
    directory.mkdir(parents=True, exist_ok=True)
    strangers = [p.name for p in directory.iterdir() if p != library]
    if strangers:
        print(
            f"{directory} must hold only the sanitized kernel, "
            f"found {strangers}",
            file=sys.stderr,
        )
        return 1
    compiler = _compiled._find_compiler()
    if compiler is None:
        print("no C compiler found", file=sys.stderr)
        return 1
    subprocess.run(
        [compiler, *SANITIZE_FLAGS, "-o", str(library), str(source)],
        check=True,
    )
    runtimes = [
        subprocess.run(
            [compiler, f"-print-file-name={name}"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
        for name in ("libasan.so", "libubsan.so")
    ]
    missing = [path for path in runtimes if not os.path.isabs(path)]
    if missing:
        print(
            f"{compiler} has no sanitizer runtime {missing}",
            file=sys.stderr,
        )
        return 1
    print("REPRO_KERNEL=compiled")
    print(f"REPRO_KERNEL_CACHE={directory}")
    print(f"LD_PRELOAD={':'.join(runtimes)}")
    print("ASAN_OPTIONS=detect_leaks=0")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
