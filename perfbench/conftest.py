import sys
from pathlib import Path

# The benchmark's tests import slitkit from this checkout's src/, as the
# benchmark itself does.
SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
