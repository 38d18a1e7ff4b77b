"""Run one lexitree command as `python -m lexitree` would, then report on
stderr, as the last line, how long importing lexitree.cli and running main()
took and the process's peak resident set size. The traced cli workload runs
commands through this script, and every workload measures peak memory
with it.

    python bench/cli_probe.py <lexitree arguments...>
"""

import json
import sys
import time

start = time.perf_counter()
import lexitree.cli  # noqa: E402

imported = time.perf_counter()
code = lexitree.cli.main(sys.argv[1:])
done = time.perf_counter()
sys.stdout.flush()
# VmHWM, the peak RSS of this program's own memory: getrusage's ru_maxrss
# would also count the parent's memory, which Linux carries across exec
with open("/proc/self/status") as status:
    maxrss_mb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
print(json.dumps({"import_s": imported - start, "main_s": done - imported, "maxrss_mb": maxrss_mb}),
      file=sys.stderr)
sys.exit(code)
