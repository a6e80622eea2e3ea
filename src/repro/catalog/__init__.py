"""Catalog / control plane (OpenHouse stand-in).

OpenHouse gives LinkedIn a *declarative catalog* — table definitions, schema
governance, per-tenant quotas — plus *data services* that reconcile observed
and desired table state (§2).  This package provides the same surface:

* :class:`~repro.catalog.catalog.Catalog` — databases and tables, with each
  database mapped to a quota-carrying storage directory;
* :class:`~repro.catalog.policies.TablePolicy` — per-table maintenance
  policy (target file size, snapshot retention, minimum age before
  compaction);
* :class:`~repro.catalog.data_services.DataServices` — retention and
  compaction entry points that AutoComp's act phase calls into.
"""

from repro.catalog.catalog import Catalog, Database
from repro.catalog.data_services import DataServices
from repro.catalog.policies import TablePolicy

__all__ = [
    "Catalog",
    "Database",
    "DataServices",
    "TablePolicy",
]
