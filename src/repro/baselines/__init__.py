"""The comparator CLASH is evaluated against.

:class:`~repro.baselines.fixed_depth.FixedDepthDhtSimulator` is the paper's
own comparator: basic Chord with a *fixed* identifier-key length (``DHT(2)``,
``DHT(6)``, ``DHT(12)``, ``DHT(24)``), evaluated over the same phased workload
and reporting the same metrics as the CLASH simulator.
"""

from repro.baselines.fixed_depth import FixedDepthDhtSimulator

__all__ = ["FixedDepthDhtSimulator"]
