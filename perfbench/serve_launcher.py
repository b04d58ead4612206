"""Start ``repro.experiments serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_launcher.py TRACE_PATH serve [serve options]``.
The server runs as the CLI runs it; on SIGINT it stops, and this
launcher writes every span it recorded, plus the ``repro.obs``
snapshot, to ``TRACE_PATH``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from spans import Tracer, install


def main(argv: list[str]) -> int:
    path = Path(argv[0])
    tracer = Tracer(path.stem.removesuffix("-server"))
    install(tracer)
    tracer.on = True
    from repro import obs
    from repro.experiments.__main__ import main as cli

    try:
        return cli(argv[1:])
    finally:
        tracer.dump(path)
        with path.open("a") as out:
            out.write(json.dumps({"snapshot": obs.snapshot().to_dict(), "pid": os.getpid()}) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
