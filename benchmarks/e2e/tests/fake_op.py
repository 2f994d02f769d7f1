"""A stand-in for ``op.py`` that misbehaves on request (runner self-tests)."""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

parser = argparse.ArgumentParser()
parser.add_argument("mode", choices=("ok", "exit", "digest", "leak", "tmp", "hang"))
parser.add_argument("--workdir", required=True)
parser.add_argument("--spawned-at", type=float)
args = parser.parse_args()

np.save(os.path.join(args.workdir, "result.npy"), np.zeros(3))
if args.mode == "exit":
    print("boom", file=sys.stderr)
    sys.exit(3)
if args.mode == "leak":
    # Same process group, still alive when this process exits.
    subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
if args.mode == "tmp":
    tempfile.mkdtemp(prefix="imr-spool-")
if args.mode == "hang":
    import time
    time.sleep(60)
print(json.dumps({
    "digest": "wrong" if args.mode == "digest" else "right",
    "counters": {"edges": 1}, "work": 10.0, "setup_s": 0.1, "run_wall_s": 0.2,
    "peak_rss_mb": 30.0,
}))
