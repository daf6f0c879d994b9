"""Resource bounds and default tolerances.

The exact layer works with widths up to `MAX_WIDTH`; the numeric layer
caps the ambient tensor-power dimension at `max_rep_dimension()`, which
can be raised through the MOTZKIN_MAX_DIM environment variable.  The
relation battery forms no operator on the whole power; its windows are
held to the same bound and its instances to RELATION_MAX_INSTANCES.
The expression language bounds nesting and exponents, so that no input
string can exhaust the interpreter's stack or run an unbounded power.
"""

from __future__ import annotations

import os

from .errors import ParameterError

# Exact diagram calculus.
MAX_WIDTH = 6
MAX_TERMS = 10**6

# Expression language.
# Parenthesis nesting and syntax-tree depth; the parser and the
# interpreters recurse once or a few times per level.
MAX_NESTING = 100
# Largest exponent of `^`.  Powers are taken by repeated squaring; exact
# coefficients grow by about one bit per unit of exponent, and a generic
# width-4 element to this power takes under a second.
MAX_EXPONENT = 4096

# Numeric (matrix) layer.
DEFAULT_MAX_DIM = 4096
# Relation instances the battery lists at one width: width 149 at most, whose
# residuals take about 1 s of CPU and 23 MiB on a 2-vCPU Xeon host.
RELATION_MAX_INSTANCES = 10**5
# Bytes the span closure may hold at once: its basis, one round's images
# (counted twice, as they may all become basis rows) and three images of
# SVD work, each operator n^(2k) entries in the pair's dtype.  At k = 3
# the largest round counts 604 operators, 72 MiB for a real n = 5 pair;
# the real n = 4 pair at k = 5 would need 312 MiB before its first round.
SPAN_MAX_BYTES = 2**28
# Bytes the subproduct level build may hold: the hat frames so far, counted
# from chi, and the SVD arrays of a level's costliest charge block.  The
# default n = 4 pair needs about 128 MiB at level 9 (254 MiB for a complex
# pair of the same shape); level 10 (801 MiB) is refused before level 1.
FOCK_MAX_BYTES = 2**29

# Tolerances.
TOL_CHECK = 1e-10       # pass/fail residual threshold for identities
TOL_CONSTRUCT = 1e-12   # internal construction consistency
TOL_RANK = 1e-8         # relative threshold for numerical rank / spans
TOL_TOEPLITZ = 1e-9     # Toeplitz relation suite


def max_rep_dimension() -> int:
    """Largest allowed dimension n**k for operators on the k-fold tensor power."""
    value = os.environ.get("MOTZKIN_MAX_DIM")
    if value is None:
        return DEFAULT_MAX_DIM
    try:
        bound = int(value)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ParameterError(
            f"MOTZKIN_MAX_DIM must be a positive integer, got {value!r}"
        )
    return bound
