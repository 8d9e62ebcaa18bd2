"""Desk-scale toolkit for heavy-quark energy loss in 1+1D SU(2) lattice gauge theory."""

import os

# one BLAS/OpenMP thread, fixed before numpy loads: LAPACK's eigensolvers and
# OpenBLAS's long dot products round differently under other thread counts,
# and printed values must not depend on them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

from .lattice import LatticeSpec
from .pauli import PauliString, PauliSum, StateVector

__all__ = ["LatticeSpec", "PauliString", "PauliSum", "StateVector"]
__version__ = "0.1.0"
