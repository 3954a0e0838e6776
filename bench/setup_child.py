"""One cold start of the shapesplit CLI, timed by the benchmark as set-up.

    python3 bench/setup_child.py SRC_DIR subdivide --input IN --k K --output OUT

Before importing anything else, it times a pure-Python reference loop and
writes ``<sum> <min>`` of its three runs to standard error. The parent
removes the sum from the process's wall time and divides the rest by the
minimum, so that the set-up time is measured in units of this process's
own CPU speed.
"""

import heapq
import sys
import time


def _loop() -> int:
    heap = []
    x = 12345
    for i in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x & 1023, i))
    total = 0
    while heap:
        total += heapq.heappop(heap)[0]
    return total


def main() -> int:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    sys.path.insert(0, sys.argv[1])
    import shapesplit.cli

    code = shapesplit.cli.main(sys.argv[2:])
    print(f"{sum(times)!r} {min(times)!r}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
