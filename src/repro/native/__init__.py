"""The compiled library, below every layer that calls it.

One shared object, built on demand from :file:`kernel.c`, carries the
entry points of :data:`.library.ENTRIES`: ``tick`` for
:mod:`repro.sim.kernels`, ``draw`` for :mod:`repro.traces.synthetic`
and ``rnn`` for :mod:`repro.rl.rnn`.  All talk through the one pointer
table declared in :mod:`.abi`; :mod:`.library` builds, loads and
handshakes the binary and gates each entry point; :mod:`.blas` finds
NumPy's OpenBLAS and pins its thread pool.  None of them imports
``sim``, ``traces`` or ``rl``.
"""
