"""The compiled library, below every layer that calls it.

One shared object, built on demand from :file:`kernel.c`, carries two
entry points: ``sib_run``, the tick kernel that :mod:`repro.sim.kernels`
drives, and ``sib_draw_trace``, the per-request draw loop of
:class:`repro.traces.synthetic.SyntheticTraceGenerator`.  Both talk
through the one pointer table declared in :mod:`.abi`; :mod:`.library`
builds, loads and handshakes the binary and resolves the NumPy samplers
the draw loop calls.  Neither module imports ``sim`` or ``traces``, so
both layers reach the library without reaching each other.
"""
