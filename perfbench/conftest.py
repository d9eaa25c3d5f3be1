import sys
from pathlib import Path

# The benchmark's tests import epifuse from this checkout and the
# benchmark's own modules by name, as worker.py does.
_HERE = Path(__file__).resolve().parent
for _path in (_HERE.parent / "src", _HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
