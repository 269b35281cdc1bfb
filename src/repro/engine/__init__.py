"""Basic-block translation engine: cached decode + fused execution.

The interpreter in :mod:`repro.core.cpu` pays one full Python dispatch
per simulated instruction.  This package removes that cost for the code
that dominates every workload in the reproduction — small straight-line
hardware-loop bodies executed millions of times — in two tiers:

* **fast blocks** — maximal straight-line instruction runs are
  discovered once, cached keyed on program digest + address span, and
  executed from flat pre-decoded tables with batched (but bit- and
  cycle-identical) performance accounting;
* **fused superinstructions** — hardware-loop bodies whose semantics
  are provably vectorizable (per-op ``fusion`` metadata on
  :class:`~repro.isa.instruction.InstrSpec`) execute *all* iterations
  at once with numpy array semantics and closed-form cycle accounting.

Anything the engine cannot prove — traps, barriers, CSR reads of live
counters, attached tracers, quantization FSM stalls — side-exits back to
the interpreter, which remains the reference semantics.  Parity is the
contract: identical register and memory state and identical
:class:`~repro.core.perf.PerfCounters` for any program.  Every
single-core :meth:`~repro.core.cpu.Cpu.run` goes through this engine,
and so does every cluster core during a replayed epoch, against a port
that logs its TCDM accesses for the cluster to arbitrate afterwards
(:mod:`repro.cluster.replay`); ``Cpu(engine="interp")`` keeps the
interpreter as the test oracle.  See ``docs/ENGINE.md``.
"""
