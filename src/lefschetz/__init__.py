"""Exact-arithmetic Lie theory engine.

Root systems and Weyl groups, Chevalley algebras with parabolic
decompositions, highest-weight modules, nilradical cohomology with an
independent prediction oracle, Clifford/spin modules, Euler characteristics
and the spectral/geometric evaluators of the trace identity.
"""

__version__ = "0.1.0"
