"""Host-speed-corrected timing.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth or more over tens of seconds, so a raw pass time says as much about the
neighbours as about the program. `HostClock` times each program segment
(one call into compopt) and runs a fixed calibration kernel, which uses no
compopt code, before and after it; consecutive segments share the kernel
run between them. The kernel does small numpy calls from an interpreter
loop and streams arithmetic over an 8 MB array, the two kinds of work the
workloads spend their time on. A segment's corrected time is its raw time
scaled by REFERENCE_KERNEL_S over the mean of the kernel times that bracket
it (a clock made without a lead kernel has only the one after its first
segment): the seconds the segment would have taken on a host on which the
kernel takes exactly REFERENCE_KERNEL_S. A change to compopt moves the corrected time exactly as
it moves the raw time; a change of host speed that slows the kernel and the
program alike cancels.

Raw segment times and both parts of every kernel time are kept, so every
record shows the raw figures and how they were corrected.
"""

import time

# kernel time, in seconds, on the host speed corrected times refer to
REFERENCE_KERNEL_S = 0.12
# kernel sizes; together about REFERENCE_KERNEL_S on a 2-vCPU Xeon VM at its
# usual speed, two thirds of it in the small-call part
SMALL_CALL_STEPS = 4000
STREAM_PASSES = 40


def small_call_kernel() -> float:
    """Small numpy calls driven from an interpreter loop, like the solver
    steps. Returns a checksum so no step can be skipped."""
    import numpy as np  # here, so a set-up timed before the first kernel pays for it

    rng = np.random.default_rng(12345)
    mat = rng.standard_normal((25, 25)) / 25.0
    vec = np.ones(25)
    acc = 0.0
    for i in range(SMALL_CALL_STEPS):
        idx = rng.integers(0, 2000, size=5)
        vec = np.clip(vec - 0.01 * (mat @ vec), -1.0, 1.0)
        for j in range(40):
            acc += (i ^ j) * 0.5
        acc += float(idx[0]) + float(vec[0])
    return acc


def stream_kernel() -> float:
    """In-place arithmetic streamed over an 8 MB array, like the Jacobian
    batches and Monte-Carlo tables. Returns a checksum."""
    import numpy as np

    stream = np.arange(1_000_000, dtype=np.float64)
    for _ in range(STREAM_PASSES):
        np.multiply(stream, 1.0000001, out=stream)
        np.add(stream, 0.5, out=stream)
    return float(stream[-1])


class Segment:
    """One timed stretch of program work; times are set when it ends."""

    def __init__(self, clock):
        self._clock = clock
        self.raw_s = 0.0
        self.factor = 1.0  # corrected seconds per raw second

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = time.perf_counter() - self._t0
        before = self._clock._last_kernel_s
        after = self._clock._calibrate()
        kernel_s = after if before is None else 0.5 * (before + after)
        self.factor = REFERENCE_KERNEL_S / kernel_s
        self._clock.raw_s += self.raw_s
        self._clock.segment_raw_s.append(self.raw_s)
        self._clock.seconds += self.seconds
        return False

    @property
    def seconds(self) -> float:
        return self.raw_s * self.factor

    def scale(self, raw_inner_s: float) -> float:
        """Corrected time of a stretch measured inside this segment."""
        return raw_inner_s * self.factor


class HostClock:
    """Accumulates raw and corrected time over a pass's segments."""

    def __init__(self, lead_kernel: bool = True):
        """lead_kernel=False leaves out the kernel before the first segment,
        for a set-up that must time importing numpy itself."""
        self.raw_s = 0.0
        self.seconds = 0.0
        self.segment_raw_s: list[float] = []
        self.kernel_parts: list[tuple[float, float]] = []  # (small-call, stream)
        self._last_kernel_s = None
        if lead_kernel:
            self._calibrate()

    def segment(self) -> Segment:
        return Segment(self)

    def _calibrate(self):
        if not self.kernel_parts:
            # untimed: the first run in a process pays one-off costs
            # (BLAS start-up, first page faults) that later runs do not
            small_call_kernel()
            stream_kernel()
        t0 = time.perf_counter()
        small_call_kernel()
        t1 = time.perf_counter()
        stream_kernel()
        t2 = time.perf_counter()
        self.kernel_parts.append((t1 - t0, t2 - t1))
        self._last_kernel_s = t2 - t0
        return self._last_kernel_s
