"""Vectorised simulation engines for large-N parameter sweeps.

The object-oriented lane (:mod:`repro.network`) is the readable reference
implementation; these engines re-express the per-BP inner loop as numpy
array operations over all nodes at once (per the optimisation guides:
first make it work and tested, then vectorise the measured hot loop).

Both engines resolve each beacon window with the shared carrier-sense
cascade on skew-exact times, and share one run scaffold
(:class:`~repro.fastlane.common.VectorLane`: clocks, presence, churn,
attack window, metric sampling and one site per RNG draw kind).
Differences from the reference lane, listed in docs/simulation.md
("Two lanes"):

* SSTSP beacon protection uses the modeled backend's decision logic
  inlined (the decisions are what matters; the backends are proven
  equivalent in ``tests/test_core_backend.py``);
* slots, per-receiver loss coins and timestamp jitter are drawn as one
  vector over all n nodes (absent ones and the sender included) on the
  ``slots`` and ``channel`` streams, so the lanes agree statistically,
  not draw for draw;
* an SSTSP window holds the medium for ``rx_latency_us`` (airtime plus
  propagation, 64 us) rather than the 63 us airtime;
* the TSF engine samples the metric on the nominal grid.

``tests/test_fastlane.py`` cross-validates both engines against the
reference lane statistically, and ``benchmarks/bench_fastlane.py``
measures the speedup.
"""

from repro.fastlane.tsf_vec import VectorTsfResult, run_tsf_vectorized
from repro.fastlane.sstsp_vec import VectorSstspResult, run_sstsp_vectorized

__all__ = [
    "run_tsf_vectorized",
    "run_sstsp_vectorized",
    "VectorTsfResult",
    "VectorSstspResult",
]
