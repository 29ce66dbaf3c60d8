"""repro-lint: AST static analysis for the reproduction's invariants.

The package enforces, mechanically and on every PR, the properties the
repo's guarantees rest on:

* **determinism** — no ambient RNG (RL001), no wall-clock reads outside
  telemetry (RL002), no unordered-set iteration in simulation or
  serialization code (RL003), and none of the three reached from the
  simulation kernels through helpers in other modules (RL009);
* **float-safety** — no exact ``==``/``!=`` on float expressions in
  fairness/throughput math (RL004);
* **paper traceability** — every ``Eq. N`` docstring reference resolves
  against PAPER.md and each equation has exactly one canonical
  implementation (RL005);
* **hygiene** — no mutable default arguments (RL006), no bare
  ``except:`` (RL007);
* **supervision** — no bare process pools (RL008), no undocumented
  module-global mutation on supervised-worker paths (RL010).

Entry points: ``python -m repro lint`` (see :mod:`repro.analysis.cli`),
:func:`repro.analysis.engine.run_lint` for programmatic use, and
``docs/STATIC_ANALYSIS.md`` for the rule catalog, its mutation table,
and the workflow.
"""
