import sys
from pathlib import Path

# The benchmark's modules live in bench/, the package in src/.
BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
