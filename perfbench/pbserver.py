"""Launch the async model server for the serve-http workload.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/pbserver.py --model DIR --port PORT [--trace OUT.json]

With ``--trace`` the benchmark's wrappers are installed before
``serve_async`` loads the model, and the spans are written to
``OUT.json`` once the server has drained (after SIGTERM).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    """Serve one static model route until SIGTERM, then dump spans."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from pbtrace import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.serving import serve_async

    serve_async(model_dirs={"bench": args.model}, port=args.port)
    if tracer is not None:
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
