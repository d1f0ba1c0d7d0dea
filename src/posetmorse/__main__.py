import os
import sys

try:
    from .cli import run
except KeyboardInterrupt:  # Ctrl-C while the package is still importing
    print("interrupted", file=sys.stderr, flush=True)
    # Not SystemExit: an interrupt raised inside exec() or eval() of source
    # text, as namedtuple builds each record's __new__, leaves the
    # interpreter set to end itself by SIGINT after any other exit status.
    os._exit(130)

run()
