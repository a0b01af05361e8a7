"""Child process for ``cli-cold``: runs one ssph command in a fresh
interpreter and reports what the benchmark cannot see from outside.

    python perfbench/cold_child.py --out STATS.json [--trace] -- predict ...

Times ``import ssph.cli``, runs ``ssph.cli.main`` on the arguments after
``--`` (with the tracer's wrappers installed when ``--trace`` is given, and
removed afterwards) and writes the import time, this process's peak RSS,
and with ``--trace`` the spans and any wrapper left in place, to STATS.json.
Exits with the command's exit code.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    """High-water RSS of this process's own address space. (getrusage's
    maxrss would also count the parent's memory at the time of the spawn.)"""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1:]
    out = options[options.index("--out") + 1]

    start = time.perf_counter()
    import ssph.cli
    stats = {"import_s": time.perf_counter() - start}

    if "--trace" in options:
        from tracer import Tracer
        tracer = Tracer()
        run = tracer.begin("op")
        tracer.install()
        try:
            code = ssph.cli.main(command)
        finally:
            stats["leftovers"] = tracer.uninstall()
        stats["trace"] = tracer.export(run)
    else:
        code = ssph.cli.main(command)
    stats["peak_rss_kb"] = peak_rss_kb()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
