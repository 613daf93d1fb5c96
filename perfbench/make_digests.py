"""Regenerate ``cli_digests.json``: the digest of stdout and exit code of
every identify_cli command on every model of its fixed set.

The identify_cli workload compares each command it runs against these
digests, which keeps CLI output byte-identical across changes.  Re-run
this only when a change to the CLI's output is intended, and say so in
the change.

Usage: python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import gen
import measure


def main() -> None:
    measure._import_package()
    workdir = tempfile.mkdtemp(prefix=".perfbench_digests_", dir=measure.ROOT)
    try:
        digests = {}
        for op in gen.identify_ops(workdir, smoke=False):
            argv = list(op["argv"])
            argv[2] = os.path.join(workdir, argv[2])
            code, stdout, stderr = measure.run_cli(argv)
            if code not in (0, 1):
                raise SystemExit(f"{op['key']}: exit {code}: {stderr.strip()}")
            digests[op["key"]] = measure.cli_digest(code, stdout)
    finally:
        shutil.rmtree(workdir)
    with open(measure.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {measure.DIGESTS}")


if __name__ == "__main__":
    main()
