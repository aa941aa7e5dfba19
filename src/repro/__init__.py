"""repro — hybrid HPC-QC cluster scheduling simulator.

Reproduction of "Assessing the Elephant in the Room in Scheduling for
Current Hybrid HPC-QC Clusters" (Viviani et al., DSN 2025).

The package provides:

- :mod:`repro.sim` — a from-scratch discrete-event simulation kernel;
- :mod:`repro.cluster` — an HPC cluster substrate (nodes, partitions);
- :mod:`repro.quantum` — QPU technology/device models and a cloud
  access-queue model;
- :mod:`repro.scheduler` — a SLURM-like batch scheduler with
  heterogeneous jobs, generic resources (gres) and backfill;
- :mod:`repro.strategies` — the paper's four integration strategies
  (exclusive co-scheduling, loosely-coupled workflows, virtual QPUs,
  malleability) driving a common hybrid-application model;
- :mod:`repro.workloads` — synthetic hybrid workload and trace
  generation;
- :mod:`repro.metrics` — summary statistics and plain-text tables;
- :mod:`repro.experiments` — one regenerable experiment per paper
  figure/claim.
"""

from repro._version import __version__

__all__ = ["__version__"]
