"""Set-up probe: a fresh interpreter imports the CLI and runs one warm-up job.

run.py starts this file once per set-up sample and times it from the
spawn to the line it prints when the warm-up job is done:

    python3 bench/probe.py '<JSON list of CLI argv lists>'

The line is a JSON object {"returns": [exit codes], "maxrss_kb": int};
maxrss_kb is the peak resident set size of this process after the job.
The job's outputs are checked in the timed loop, which runs the same job.
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main():
    argvs = json.loads(sys.argv[1])
    from schwarzfront import cli
    returns = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            returns.append(cli.main(argv))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"returns": returns, "maxrss_kb": rss}), flush=True)


if __name__ == "__main__":
    main()
