"""Prequential streaming benchmark for adaptive_sgp.

Usage, from the repository root:

    python3 perfbench/run.py --workload toy-agp --seed 1 --seconds 10 --trace 0

One process, one caller, one BLAS thread: each sample is sent only after
the previous step has returned its prediction (closed loop), as
``run_experiment`` does.  ``--trace 0`` reports the end-to-end metrics of an
untraced run; ``--trace 1`` reports per-layer metrics from a traced pass
that wraps the library's functions from outside.  Every metric is printed
by name with its unit; the last stdout line is the JSON result.  The exit
code is non-zero when a correctness check fails or when the library is not
found under ``src/``.
"""

import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "adaptive_sgp" / "__init__.py").is_file():
        print(f"error: no adaptive_sgp package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench     # needs the path above

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
