"""Workload generators.

Synthetic workloads mirroring the paper's evaluation design:

* :mod:`repro.workloads.patterns` — arrival processes (sinusoidal demand,
  short/large bursts, predictable periodic jobs) modelled after the CAB
  cloud-workload study;
* :mod:`repro.workloads.tpch` — TPC-H-like schema and data generator
  (``lineitem`` partitioned by ship-date month, ``orders`` unpartitioned —
  the §6 update-pattern mix);
* :mod:`repro.workloads.cab` — the CAB-gen-style multi-database workload
  driving Figures 6–8 and Table 1;
* :mod:`repro.workloads.tpcds` — TPC-DS-like schema and the
  single-user/maintenance experiment of Figure 3;
* :mod:`repro.workloads.lstbench` — LST-Bench-like phase runner with the
  WP1/WP3 workload phases used by the §6.3 auto-tuning study;
* :mod:`repro.workloads.ingestion` — the Gobblin-style managed ingestion
  pipeline producing target-sized files (Figure 1's "raw" distribution).
"""

from repro.workloads.patterns import (
    ArrivalPattern,
    BurstPattern,
    CombinedPattern,
    PeriodicPattern,
    SinusoidalPattern,
)
from repro.workloads.tpch import TPCH_TABLES, create_tpch_database
from repro.workloads.ingestion import RawIngestionPipeline
from repro.workloads.cab import CabConfig, CabWorkload
from repro.workloads.tpcds import TPCDS_TABLES, TpcdsExperiment, create_tpcds_database
from repro.workloads.lstbench import LstBenchRun, PhaseResult

__all__ = [
    "ArrivalPattern",
    "BurstPattern",
    "CabConfig",
    "CabWorkload",
    "CombinedPattern",
    "LstBenchRun",
    "PeriodicPattern",
    "PhaseResult",
    "RawIngestionPipeline",
    "SinusoidalPattern",
    "TPCDS_TABLES",
    "TPCH_TABLES",
    "TpcdsExperiment",
    "create_tpcds_database",
    "create_tpch_database",
]
