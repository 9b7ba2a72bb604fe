"""Run ``repro serve`` through its CLI, optionally traced.

Usage: ``python3 hpnbench/serve_launcher.py [--trace-out FILE] -- serve ...``

With ``--trace-out`` the benchmark's span wrappers are installed in
this process before the daemon starts; when the daemon stops (after
``POST /admin/shutdown``) the spans, counters and the final length of
the topology's link-state log are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro.cli import main as repro_main

    if args.trace_out is None:
        return repro_main(serve_args)

    from repro.serve import ServeState

    from tracer import Tracer, write_json

    states = []
    init = ServeState.__init__

    def remember(state, *a, **kw):
        init(state, *a, **kw)
        states.append(state)

    ServeState.__init__ = remember
    tracer = Tracer().install()
    tracer.run_id = "http"
    rc = repro_main(serve_args)
    dump = tracer.dump()
    dump["state_log_len"] = sum(
        len(s.topo.link_state_changes(0)) for s in states)
    write_json(str(args.trace_out), dump)
    return rc


if __name__ == "__main__":
    sys.exit(main())
