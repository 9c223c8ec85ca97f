"""One benchmark child: a fresh interpreter running one dendrodyn step.

    python3 perfbench/child.py run CONFIG [--trace-out FILE]
    python3 perfbench/child.py setup SYSTEM

``run`` goes through ``dendrodyn.cli.main(["run", "--config", CONFIG])``, the
path a user's ``dendrodyn run`` takes, and exits with its code.  With
``--trace-out`` the layer wrappers of ``tracer.py`` are installed first and
their totals are written to FILE at exit.  ``setup`` imports the package and
resolves one zoo system, which builds and validates its generators.

The package is found through ``PYTHONPATH``, which the parent sets to the
checkout's ``src`` directory.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    mode, arg = argv[0], argv[1]
    if mode == "setup":
        from dendrodyn.zoo import get_system
        get_system(arg)
        return 0
    if mode != "run":
        raise SystemExit(f"unknown child mode {mode!r}")
    from dendrodyn.cli import main as cli_main
    if len(argv) == 4 and argv[2] == "--trace-out":
        import tracer
        recorder = tracer.install()
        try:
            return cli_main(["run", "--config", arg])
        finally:
            recorder.write(argv[3])
    return cli_main(["run", "--config", arg])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
