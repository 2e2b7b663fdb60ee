"""Entry point: ``python3 benchmarks/ledger/__main__.py`` or ``python -m
benchmarks.ledger``, from a checkout of the repository.

Puts the checkout's root (for ``benchmarks``) and ``src`` (for ``repro``)
on ``sys.path`` itself, so no ``PYTHONPATH`` is needed; run as a script,
this directory is taken off the path so that ``trace.py`` here cannot
shadow the standard library's ``trace``.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]

if __name__ == "__main__":
    sys.path[:] = [p for p in sys.path if Path(p).resolve() != _HERE]
    for entry in (str(_ROOT), str(_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.ledger.cli import main

    sys.exit(main())
