"""The package's C kernels, compiled on first use and loaded through ctypes.

Two hot loops run as small C ports of their Python specifications: the LRU
replay (``sim/lru.c``) and the R-tree searches (``spatial/traverse.c``).
:func:`load` builds one with the system C compiler the first time it is
asked for and keeps the library in a per-user cache; callers run the Python
specification when it returns None.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from typing import Optional

__all__ = ["COMPILERS", "CFLAGS", "load"]

COMPILERS = ("cc", "gcc", "clang")
#: ``-ffp-contract=off`` keeps the compiler from fusing a product and a sum
#: into one FMA (GCC does where FMA is baseline, e.g. aarch64), so every
#: distance rounds exactly as the Python loop it ports.
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _build(source: Path) -> ctypes.CDLL:
    """``source`` compiled into ``~/.cache/repro`` (once) and loaded.

    The library's name carries a hash of the source, the flags and the
    platform, so an edit rebuilds it; it is compiled to a temporary name and
    published with ``os.replace``, so no process loads a half-written file.
    """
    plat = sysconfig.get_platform()
    key = hashlib.sha256(
        source.read_bytes() + " ".join(CFLAGS + (plat,)).encode()
    ).hexdigest()[:16]
    lib = Path.home() / ".cache" / "repro" / f"{source.stem}-{plat}-{key}.so"
    if not lib.exists():
        cc = next(filter(None, map(shutil.which, COMPILERS)), None)
        if cc is None:
            raise OSError(f"no C compiler ({', '.join(COMPILERS)}) on PATH")
        lib.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
        os.close(fd)
        try:
            subprocess.run(
                [cc, *CFLAGS, "-o", tmp, str(source)],
                check=True,
                capture_output=True,
            )
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(lib))


def load(source: Path, fallback: str) -> Optional[ctypes.CDLL]:
    """The compiled ``source``, or None after a RuntimeWarning naming
    ``fallback`` (what runs instead).  Callers keep the result, so each
    kernel warns once."""
    try:
        return _build(source)
    except (OSError, subprocess.CalledProcessError) as exc:
        warnings.warn(
            f"cannot build {source.name} ({exc}); {fallback}",
            RuntimeWarning,
            stacklevel=4,
        )
        return None
