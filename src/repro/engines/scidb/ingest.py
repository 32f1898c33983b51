"""The two SciDB ingest paths measured in Figure 11.

"We implemented two strategies to ingest the neuroscience use case's
NIfTI files into SciDB: SciDB-py's built-in API (i.e., from_array), and
SciDB's accelerated IO library (i.e., aio_input)." (Section 4.1.)

- :func:`from_array` (SciDB-1): convert NIfTI to NumPy on the client,
  then push everything through the coordinator's Python connection one
  chunk at a time -- "an order of magnitude" slower than aio.
- :func:`aio_input` (SciDB-2): convert NIfTI to CSV, then load in
  parallel on every instance; the CSV conversion overhead is what keeps
  SciDB slightly behind Spark and Myria in Figure 11.
"""

from repro.engines.scidb.array import SciDBArray
from repro.formats.csvconv import csv_nominal_bytes


def from_array(sdb, name, dims, real, nominal_bytes, *, op):
    """SciDB-1: the coordinator-mediated ``from_array()`` path; every
    charge and task is attributed to ``op``."""
    cm = sdb.cost_model
    sdb.ensure_started()
    # NIfTI -> NumPy conversion on the client.
    sdb.cluster.charge_master(
        nominal_bytes / cm.nifti_parse_bandwidth, label="NIfTI->NumPy",
        category="scidb-convert", op=op,
    )
    # Single-stream upload through the coordinator.
    sdb.cluster.charge_master(
        nominal_bytes / cm.scidb_from_array_bandwidth,
        label="from_array upload", category="scidb-ingest", op=op,
    )
    array = SciDBArray(name, dims, real)
    # Redistribution: the coordinator scatters chunks to the instances.
    sdb.run_tasks(f"scatter-{name}", "scidb-ingest", [
        (
            coords,
            sdb.instance_node(array.instance_of(coords, sdb.n_instances)),
            cm.disk_write_time(array.chunk_nominal_bytes(coords))
            + cm.scidb_chunk_overhead,
            None,
        )
        for coords in array.chunk_grid()
    ], op=op)
    sdb.arrays[name] = array
    return array


def aio_input(sdb, name, dims, real, nominal_bytes, rank=None, *, op):
    """SciDB-2: CSV conversion + parallel ``aio_input`` load, attributed
    to ``op``."""
    cm = sdb.cost_model
    sdb.ensure_started()
    array = SciDBArray(name, dims, real)
    if rank is None:
        rank = len(array.dims)
    nominal_elements = array.nominal_elements
    csv_bytes = csv_nominal_bytes(
        nominal_elements, rank=rank, with_coordinates=rank > 0
    )

    # File conversion runs in parallel across the nodes (one conversion
    # job per node over its share of the input files).
    n_nodes = sdb.cluster.spec.n_nodes
    share = csv_bytes / n_nodes
    sdb.run_tasks(f"csvconv-{name}", "scidb-convert", [
        (
            node, node,
            (nominal_bytes / n_nodes) / cm.nifti_parse_bandwidth
            + share / cm.csv_encode_bandwidth,
            None,
        )
        for node in sdb.cluster.node_order
    ], op=op)

    # Parallel aio load: every instance parses its share of the CSV and
    # writes its chunks.
    per_instance_csv = csv_bytes / sdb.n_instances
    per_instance_binary = nominal_bytes / sdb.n_instances
    sdb.run_tasks(f"aio-{name}", "scidb-ingest", [
        (
            f"i{instance}", sdb.instance_node(instance),
            per_instance_csv / cm.scidb_aio_bandwidth
            + cm.disk_write_time(per_instance_binary),
            None,
        )
        for instance in range(sdb.n_instances)
    ], op=op)
    sdb.arrays[name] = array
    return array
