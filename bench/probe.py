"""In-interpreter side of a pass: a reference timing, clocks on stdin/stdout, traced seams.

The CLI's only interface stays stdin, stdout and argv.  Latency passes
(mode ``lat``) wrap stdin and stdout in clocks: a record's latency is the
time from its stdin line being handed to the program to the newline that
ends its output line; when the program reads no stdin (``verify``), a
record starts when ``cli.main`` is called.  Other passes use the plain
streams, so the clocks cost nothing in ``wall_s`` or in peak memory.

Tracing wraps each seam's function object wherever a ``gencong.*`` module
holds it as a global, so callers may move between modules without the
benchmark listing call sites; every reference is restored afterwards.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from array import array


class LineClock:
    """Iterates stdin lines, stamping each as it is handed over."""

    def __init__(self, raw):
        self.raw = raw
        self.times = array("d")

    def __iter__(self):
        stamp = self.times.append
        for line in self.raw:
            stamp(time.perf_counter())
            yield line


class NewlineClock:
    """Passes writes through to stdout, stamping each newline written."""

    def __init__(self, raw):
        self.raw = raw
        self.times = array("d")

    def write(self, text):
        self.raw.write(text)
        if "\n" in text:
            now = time.perf_counter()
            for _ in range(text.count("\n")):
                self.times.append(now)
        return len(text)

    def flush(self):
        self.raw.flush()


def _digits(stat, args, result):
    text = args[0]
    stat["digits"] += len(text) - text.count("-") - text.count(".")


def _depth(stat, args, result):
    stat["depth_sum"] += result.s
    stat["depth_max"] = max(stat["depth_max"], result.s)


def _bits(stat, args, result):
    stat["bits_max"] = max(stat["bits_max"], args[0].bit_length())


def _exponent_bits(stat, args, result):
    stat["exponent_bits"] += args[1].bit_length()


#: (layer name, module that defines the function, attribute, extra stats).
#: Operand parsing covers both the integer and the LO..HI range parser.
SEAMS = (
    ("cli.parse", "gencong.cli", "_parse_int", _digits),
    ("cli.parse", "gencong.cli", "_parse_range", _digits),
    ("reduction.build_chain", "gencong.reduction", "build_chain", _depth),
    ("reduction.reduce_exponent", "gencong.reduction", "reduce_exponent", None),
    ("reduction.verify_theorem", "gencong.reduction", "verify_theorem", None),
    ("arith.totient", "gencong.arith", "totient", None),
    ("arith.factorize", "gencong.arith", "factorize", _bits),
    ("arith.is_prime", "gencong.arith", "is_prime", None),
    ("arith.mod_pow", "gencong.arith", "mod_pow", _exponent_bits),
)

_EXTRA = {
    _digits: ("digits",),
    _depth: ("depth_sum", "depth_max"),
    _bits: ("bits_max",),
    _exponent_bits: ("exponent_bits",),
}


class SeamError(RuntimeError):
    """A seam's function is missing, so its layer cannot be traced."""


class Tracer:
    """Self time and call counts per seam, from wrappers around module globals.

    A seam's self time is its duration minus the durations of seams it
    called; ``cli.self_s`` is the rest of the traced ``cli.main`` call.
    """

    def __init__(self, seams=SEAMS):
        self.seams = seams
        self.stats: dict[str, dict] = {}
        self._stack = [0.0]
        self._patched: list[tuple[object, str, object]] = []
        self._totient = None
        self._cache_before = None

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "gencong" or name.startswith("gencong.")]
        self._totient = sys.modules["gencong.arith"].totient
        self._cache_before = self._totient.cache_info()
        targets = []
        for layer, home, attr, extra in self.seams:
            target = getattr(sys.modules.get(home), attr, None)
            if target is None:
                raise SeamError(f"seam {layer}: {home}.{attr} not found")
            stat = self.stats.setdefault(layer, {"calls": 0, "self_s": 0.0})
            for key in _EXTRA.get(extra, ()):
                stat.setdefault(key, 0)
            targets.append((target, self._wrap(stat, target, extra)))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                for target, wrapper in targets:
                    if value is target:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, target))

    def restore(self) -> None:
        for mod, key, target in reversed(self._patched):
            setattr(mod, key, target)
        self._patched.clear()

    def _wrap(self, stat, target, extra):
        stack = self._stack
        clock = time.perf_counter

        def seam(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stat["calls"] += 1
                stat["self_s"] += elapsed - inner
            if extra is not None:
                extra(stat, args, result)
            return result

        return seam

    def report(self, wall_s: float) -> dict[str, float]:
        """Flat ``<layer>.<stat>`` values for a traced call that took ``wall_s``."""
        out = {"cli.self_s": wall_s - self._stack[0]}
        for layer, stat in self.stats.items():
            for key, value in stat.items():
                out[f"{layer}.{key}"] = value
        for module in ("reduction", "arith"):
            out[f"{module}.self_s"] = sum(
                stat["self_s"] for layer, stat in self.stats.items()
                if layer.startswith(module + "."))
        after = self._totient.cache_info()
        hits = after.hits - self._cache_before.hits
        misses = after.misses - self._cache_before.misses
        out["arith.totient.cache_hits"] = hits
        out["arith.totient.cache_misses"] = misses
        out["arith.totient.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out


def peak_rss_kb() -> int:
    """Peak resident memory of this interpreter's own address space.

    ``ru_maxrss`` is not used on Linux: it keeps the high-water mark of the
    forking parent across ``exec``, so it would report the benchmark's memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _totient(n: int, memo: dict) -> int:
    if n in memo:
        return memo[n]
    result, k, p = n, n, 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1
    if k > 1:
        result -= result // k
    memo[n] = result
    return result


def reference_s() -> float:
    """Duration of a fixed computation, the unit of the benchmark's ``*_ref`` metrics.

    It does what gencong does, with the benchmark's own code: memoised
    trial-division totients, ``pow`` and ``gcd`` on small moduli, and
    decimal-to-int conversion.  The machine's speed drifts by tens of
    percent over minutes, and a pass's time divided by this one, taken in
    the same interpreter next to it, does not.
    """
    start = time.perf_counter()
    memo: dict[int, int] = {}
    for i in range(1, 4500):
        m = (i * 7919) % 40_009 + 2
        pow(i, _totient(m, memo) + 1, m)
        math.gcd(i, m)
    for _ in range(48):
        int("7" * 4000)
    return time.perf_counter() - start


def run_pass(argv: list[str], mode: str) -> dict:
    """Call ``cli.main(argv)`` once on this process's stdin and stdout.

    ``mode`` is ``off`` (plain streams), ``lat`` (clocked streams) or ``on``
    (plain streams, traced seams).
    """
    from gencong import arith, cli

    arith.totient.cache_clear()
    stdin, stdout = sys.stdin, sys.stdout
    if mode == "lat":
        sys.stdin, sys.stdout = LineClock(stdin), NewlineClock(stdout)
    tracer = Tracer() if mode == "on" else None
    if tracer is not None:
        tracer.install()
    error = None
    before = reference_s()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        import traceback

        code, error = 1, traceback.format_exc()
    wall = time.perf_counter() - start
    maxrss_kb = peak_rss_kb()
    after = reference_s()
    clocks = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = stdin, stdout
    if tracer is not None:
        tracer.restore()
    stdout.flush()
    report = {
        "exit": code,
        "error": error,
        "wall_s": wall,
        "reference_before_s": before,
        "reference_s": (before + after) / 2,
        "maxrss_kb": maxrss_kb,
    }
    if mode == "lat":
        line_clock, newline_clock = clocks
        starts = line_clock.times or array("d", [start]) * len(newline_clock.times)
        report["latency_s"] = [end - begin for begin, end in zip(starts, newline_clock.times)]
    if tracer is not None:
        report["trace"] = tracer.report(wall)
    return report


def main(ready: float, args: list[str]) -> int:
    report_path, mode, argv = args[0], args[1], args[2:]
    import gencong.cli

    report = {"ready": ready, "cli_file": gencong.cli.__file__}
    report.update(run_pass(argv, mode))
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0
