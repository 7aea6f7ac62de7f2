"""qgms: reversible GF(2) elimination circuits and exact search analysis.

The package has three layers:

* ``gf2``, ``circuit``, ``sim``: classical linear algebra over GF(2), a
  small reversible-circuit IR, and simulators for it.
* ``synth``, ``oracles``, ``amplify``: circuit constructions (triangular
  solve, reduced echelon form, kernel extraction) and the amplitude
  amplification loop that consumes them.
* ``analysis``, ``counting``, ``verify``: exact success-probability
  bounds, coefficient-matrix counting, and the end-to-end checks the
  command line exposes.

The root exports only ``__version__``; import the submodules
(``from qgms import gf2``). ``circuit``, ``gf2``, ``synth``, ``verify`` and
``cli`` import without numpy, so ``import qgms``, ``qgms synth`` and ``qgms
verify gf2`` never load it; the other modules, suites and commands do.
"""

__version__ = "0.1.0"
