"""Host-speed calibration: a fixed pure-Python reference kernel.

The host this benchmark was written on shares its cores with other
machines, and its speed for the program drifts by up to 1.8x within
minutes (one brb-burst run took 0.47-0.85 s over six minutes).  The
benchmark times this kernel after every round of a run and multiplies
the run's times by ``(NOMINAL_S / kernel time) ** EXPONENT``.

The kernel is compute-bound and slows about twice as much as the
program does (in log terms) when the host is busy, hence the exponent
of one half.  It was fitted on six minutes of runs alternating the
three workloads, 22 runs each: the run-to-run coefficient of variation
of wall time was 16 %, 11 % and 13 % raw (brb-burst, ledger-faults,
brb-store-traced), 13 %, 12 % and 11 % with exponent 1, and 8 %, 6 %
and 6 % with exponent 1/2.  A memory-bound kernel did about as well
but depends on how much of the cache the program leaves it.  The raw
wall times stay in the report.  The kernel does not call the program,
so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Seconds one :func:`sample` takes at the reference speed (about its
#: median on the 2-core Intel Xeon host the README figures come from).
NOMINAL_S = 0.002
#: Share of the kernel's slowdown that the program shows (see above).
EXPONENT = 0.5
#: Kernel passes per sample.
PASSES = 4


def _encode(value: object, out: bytearray) -> None:
    # A tagged length-prefixed encoding: the mix of type tests, int and
    # bytes building, sorting and recursion that dominates the program.
    if value is None:
        out += b"N"
    elif isinstance(value, int):
        body = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        out += b"i"
        out += len(body).to_bytes(4, "big")
        out += body
    elif isinstance(value, str):
        body = value.encode()
        out += b"s"
        out += len(body).to_bytes(8, "big")
        out += body
    elif isinstance(value, bytes):
        out += b"b"
        out += len(value).to_bytes(8, "big")
        out += value
    elif isinstance(value, tuple):
        out += b"T"
        out += len(value).to_bytes(8, "big")
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        out += b"d"
        for key, item in sorted((_bytes(k), _bytes(v)) for k, v in value.items()):
            out += key
            out += item


def _bytes(value: object) -> bytes:
    out = bytearray()
    _encode(value, out)
    return bytes(out)


_VALUE = {
    ("label", i): (i, "x" * (i % 7), b"\x00" * (i % 5), (i, i + 1, None))
    for i in range(60)
}


def sample() -> float:
    """Seconds the kernel takes now.  The collector is off meanwhile, so
    the size of the program's heap cannot change the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(PASSES):
            _bytes(_VALUE)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(kernel_s: float) -> float:
    """The factor that scales a time measured while one :func:`sample`
    took ``kernel_s`` to the reference speed."""
    return (NOMINAL_S / kernel_s) ** EXPONENT
