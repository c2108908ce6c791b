"""No code: the benchmark's tracer (``bench/tracer.py``) imports each
module it names, this one among them.  The exactness of the complex128
routes is stated where their values are formed (:mod:`sdirac.hermite`,
:func:`sdirac.operators.definition_coeffs`) and bounds
:data:`sdirac.checks.K_LIMITS`.
"""
