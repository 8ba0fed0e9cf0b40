"""Thin runner for one cayleygap CLI invocation, as a user would start it.

    python3 -I perfbench/child.py RESULT.json {plain,trace,reference} -- <cayleygap argv...>
    python3 -I perfbench/child.py RESULT.json probe

Imports ``cayleygap.cli`` from the checkout's ``src`` (``reference``: from the
frozen copy in ``perfbench/reference``), times the call to
``cayleygap.cli.main(argv)``, under the outside-in tracer with ``trace``,
writes a JSON result and exits with main's exit code.  ``probe`` only imports
both packages (which also compiles their bytecode) and records the
environment.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"


def _import_cli(src: Path = SRC):
    sys.path.insert(0, str(src))
    import cayleygap.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cayleygap imported from {cli.__file__}, not from {src}")
    return cli


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be read."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def probe() -> dict:
    import platform

    import numpy as np

    _import_cli()
    for name in [name for name in sys.modules if name.partition(".")[0] == "cayleygap"]:
        del sys.modules[name]
    sys.path.remove(str(SRC))
    _import_cli(REFERENCE)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    if mode == "probe":
        Path(result_path).write_text(json.dumps(probe()))
        return 0
    argv = sys.argv[sys.argv.index("--") + 1 :]
    cli = _import_cli(REFERENCE if mode == "reference" else SRC)
    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(HERE))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - start
    result = {"exit": code, "main_s": main_s}
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
