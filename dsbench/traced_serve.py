"""Run ``imprecise`` with the per-layer span recorder installed.

    PYTHONPATH=src python3 dsbench/traced_serve.py SPANS.json serve STORE ...

Everything after the spans path is the ordinary ``imprecise`` command
line.  The spans are written to SPANS.json when the command returns
(``serve --http`` returns after SIGTERM).
"""

import sys

from spans import Recorder, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
