"""Regular-grid Jacobi — the non-adaptive control application.

A 5-point stencil on a static uniform grid with block-row partitioning:
communication is two fixed halo rows per iteration, perfectly balanced.
On this workload the three programming models should essentially tie —
the contrast with the adaptive applications is experiment R-F5's point.
"""

from repro.apps.jacobi.common import JacobiConfig, reference_checksum
from repro.apps.jacobi.mpi_app import jacobi_mpi
from repro.apps.jacobi.shmem_app import jacobi_shmem
from repro.apps.jacobi.sas_app import jacobi_sas
from repro.apps.jacobi.hybrid_app import jacobi_hybrid

JACOBI_PROGRAMS = {
    "mpi": jacobi_mpi,
    "shmem": jacobi_shmem,
    "sas": jacobi_sas,
    "hybrid": jacobi_hybrid,
}

__all__ = [
    "JacobiConfig",
    "reference_checksum",
    "jacobi_mpi",
    "jacobi_shmem",
    "jacobi_sas",
    "jacobi_hybrid",
    "JACOBI_PROGRAMS",
]
