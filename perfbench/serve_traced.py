"""``repro serve`` with the layer hooks installed; spans written at exit.

Run from the checkout root with ``src`` on ``PYTHONPATH``::

    python perfbench/serve_traced.py --spans-out FILE serve [repro serve args...]

The daemon behaves as ``python -m repro serve`` does (same CLI, same
defaults); on SIGTERM it drains, and the spans of its whole life are
written to FILE.
"""

from __future__ import annotations

import sys

import tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, repro_args = sys.argv[2], sys.argv[3:]
    import repro.service.daemon  # noqa: F401  (load every module before patching)
    from repro.cli import main as repro_main

    recorder = tracer.Recorder()
    tracer.install_service(recorder)
    try:
        return repro_main(repro_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
