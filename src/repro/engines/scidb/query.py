"""SciDB connection and AFL-style array operators.

Operators process arrays chunk-at-a-time on the instances that own the
chunks (Section 2: "operators, including user-defined ones, process
data iteratively one chunk at a time").  Costs follow the behaviors the
paper measures:

- ``compress``/``filter_dim``: selections not aligned with the chunk
  grid must open, subset, and rebuild every chunk (Figure 12a).
- ``mean``: a native array aggregate, SciDB's sweet spot (Figure 12b).
- ``stream``: chunks cross to an external Python process as TSV
  (Figure 12c's overhead).
- ``coadd_aql``: iterative AQL without incremental-iteration support
  rescans and rematerializes the whole array every cleaning pass
  (Figure 12d: "more than one order of magnitude slower"); the
  incremental variant of [34] is available as an ablation.
- chunk-size sensitivity: per-chunk overhead penalizes small chunks,
  instance-buffer overflow penalizes large ones (Section 5.3.1).
"""

import numpy as np

from repro.cluster.faults import abort_recovery
from repro.cluster.task import Task
from repro.engines.base import Engine, as_costed
from repro.engines.scidb.array import DimSpec, SciDBArray
from repro.formats.csvconv import csv_nominal_bytes

#: Per-instance buffer for chunk processing; chunks larger than this
#: spill (calibrated to reproduce the Section 5.3.1 chunk-size curve,
#: mirroring SciDB's mem-array-threshold style settings).
INSTANCE_BUFFER_BYTES = 256 * 1024 ** 2

#: Recommended deployment: "it is good practice to run one instance per
#: 1-2 CPU cores" (Section 5.3.1).
DEFAULT_INSTANCES_PER_NODE = 4


class SciDBConnection(Engine):
    """A connection to a miniSciDB deployment."""

    name = "SciDB"

    def __init__(self, cluster, instances_per_node=DEFAULT_INSTANCES_PER_NODE):
        super().__init__(cluster)
        self.instances_per_node = int(instances_per_node)
        if self.instances_per_node <= 0:
            raise ValueError("instances_per_node must be positive")
        self.n_instances = cluster.spec.n_nodes * self.instances_per_node
        self.arrays = {}
        # Without a configured replica set an instance failure makes
        # its chunks unavailable; the query reruns from the last
        # ingested array once the node rejoins.
        cluster.install_recovery(abort_recovery("scidb-rerun"))

    def startup_cost(self):
        """One-time engine startup in simulated seconds."""
        return self.cost_model.scidb_query_startup

    def instance_node(self, instance):
        """Cluster node hosting the given instance."""
        return self.cluster.node_order[instance // self.instances_per_node]

    # ------------------------------------------------------------------
    # Chunk execution helper
    # ------------------------------------------------------------------

    def _spill_factor(self, chunk_bytes):
        """IO inflation when a chunk exceeds the instance buffer."""
        if chunk_bytes <= INSTANCE_BUFFER_BYTES:
            return 1.0
        return chunk_bytes / INSTANCE_BUFFER_BYTES

    def chunk_efficiency_factor(self, chunk_bytes):
        """Compute-time inflation from chunk sizing (Section 5.3.1).

        Chunks well below ~3/4 of the instance buffer amortize the AQL
        plan's per-chunk operator setup poorly; chunks above the buffer
        thrash it.  Both penalties are calibrated fits (see
        ``CostModel.scidb_small_chunk_penalty``).
        """
        cm = self.cost_model
        reference = 0.75 * INSTANCE_BUFFER_BYTES
        factor = 1.0
        if chunk_bytes < reference:
            factor += cm.scidb_small_chunk_penalty * (
                reference / max(1, chunk_bytes) - 1.0
            )
        if chunk_bytes > INSTANCE_BUFFER_BYTES:
            factor += cm.scidb_buffer_thrash * (
                chunk_bytes / INSTANCE_BUFFER_BYTES - 1.0
            )
        return factor

    def run_tasks(self, label, category, units, *, op):
        """The one place SciDB builds tasks.

        One task per ``(suffix, node, duration, fn)`` of ``units``, named
        ``scidb-<label>-<suffix>`` and charged to ``op``, all in one
        ``cluster.run``.  Returns the tasks' values in unit order.
        """
        tasks = [
            Task(
                f"scidb-{label}-{suffix}", fn=fn, duration=duration,
                node=node, category=category, op=op,
            )
            for suffix, node, duration, fn in units
        ]
        results = self.cluster.run(tasks)
        return [results[task.task_id].value for task in tasks]

    def run_chunks(self, array, label, work, cost, extra_chunk_io=0.0,
                   delta_only=False, delta_cells=None, cell_scale=1.0, *,
                   op):
        """One task per chunk, placed on the owning instance's node.

        ``work(coords, payload)`` computes the real result for a chunk;
        ``cost(coords)`` prices it (simulated seconds, excluding the
        universal per-chunk overhead and the base chunk read which are
        added here).  With ``delta_only`` the base read covers only the
        changed cells (``delta_cells[coords] * cell_scale`` of them)
        instead of the full chunk -- the incremental-engine access path.
        Every task is charged to ``op``.  Returns ``{coords: value}``.
        """
        self.ensure_started()
        cm = self.cost_model
        grid = array.chunk_grid()
        units = []
        for coords in grid:
            instance = array.instance_of(coords, self.n_instances)
            payload = array.chunk_payload(coords)
            if delta_only:
                changed = (delta_cells or {}).get(coords, 0)
                itemsize = array.real.dtype.itemsize
                read_bytes = int(changed * cell_scale * itemsize)
            else:
                read_bytes = array.chunk_nominal_bytes(coords)
            spill = self._spill_factor(read_bytes)

            def duration(coords=coords, read_bytes=read_bytes, spill=spill):
                total = cm.scidb_chunk_overhead
                total += cm.disk_read_time(read_bytes) * spill
                total += extra_chunk_io * spill
                total += cost(coords)
                return total

            units.append((
                coords, self.instance_node(instance), duration,
                lambda coords=coords, payload=payload: work(coords, payload),
            ))
        with self.cluster.obs.span(
            f"scidb-{label}", category="scidb", chunks=len(units),
        ):
            values = self.run_tasks(
                label, f"scidb-{label.split('-', 1)[0]}", units, op=op
            )
        return dict(zip(grid, values))

    # ------------------------------------------------------------------
    # Array lifecycle
    # ------------------------------------------------------------------

    def create_array(self, name, dims, real):
        """Register a chunked array on this connection."""
        array = SciDBArray(name, dims, real)
        self.arrays[name] = array
        return array

    # ------------------------------------------------------------------
    # AFL-style operators
    # ------------------------------------------------------------------

    def compress(self, array, keep_mask, axis, name=None, *, op):
        """Select positions of ``axis`` where ``keep_mask`` is True.

        Mirrors SciDB-py's ``compress`` used in the paper's Figure 5.
        When chunks span the filtered axis, every chunk must be opened,
        subset and reconstructed ("SciDB does more work including
        extracting subsets out of the chunks and reconstructing them",
        Section 5.2.2).
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        dim = array.dims[axis]
        if keep_mask.size != dim.length:
            raise ValueError(
                f"mask length {keep_mask.size} does not match dimension"
                f" {dim.name!r} of length {dim.length}"
            )
        cm = self.cost_model
        aligned = dim.chunk == 1
        kept_nominal = int(keep_mask.sum())

        # Real selection: map nominal mask onto the real axis.
        real_len = array.real.shape[axis]
        real_keep = np.zeros(real_len, dtype=bool)
        for nominal_index in np.nonzero(keep_mask)[0]:
            real_index = nominal_index * real_len // dim.length
            real_keep[real_index] = True
        # Guarantee the kept proportion is faithful for small arrays.
        new_real = np.compress(real_keep, array.real, axis=axis)

        def chunk_selected(coords):
            start, stop = array.chunk_bounds(coords)[axis]
            return keep_mask[start:stop].any()

        def work(coords, payload):
            return None  # selection applied globally above

        def cost(coords):
            if aligned:
                return 0.0
            chunk_bytes = array.chunk_nominal_bytes(coords)
            start, stop = array.chunk_bounds(coords)[axis]
            kept = int(keep_mask[start:stop].sum())
            kept_bytes = chunk_bytes * kept // max(1, stop - start)
            # Open + subset + rebuild the chunk.
            return (chunk_bytes + kept_bytes) * cm.memcpy_per_byte * 4.0

        if aligned:
            # Only matching chunks are touched at all.
            selected = [c for c in array.chunk_grid() if chunk_selected(c)]
            sub = _Subgrid(array, selected)
            self.run_chunks(sub, f"filter-{array.name}", work, cost, op=op)
        else:
            self.run_chunks(array, f"filter-{array.name}", work, cost, op=op)

        new_dims = list(array.dims)
        new_dims[axis] = DimSpec(dim.name, max(1, kept_nominal), min(dim.chunk, max(1, kept_nominal)))
        result = SciDBArray(
            name or f"{array.name}_filtered", new_dims, new_real, attr=array.attr
        )
        self.arrays[result.name] = result
        return result

    def mean(self, array, axis, name=None, *, op):
        """Aggregate mean along one dimension (native array math).

        "SciDB is the fastest for mean computation on the small datasets
        as it is optimized for array operations" (Section 5.2.2).
        """
        cm = self.cost_model

        def work(coords, payload):
            if payload.size == 0:
                return None
            return payload.sum(axis=axis), payload.shape[axis]

        def cost(coords):
            return array.chunk_nominal_elements(coords) * cm.elementwise_per_element

        partials = self.run_chunks(array, f"mean-{array.name}", work, cost, op=op)

        # Combine partial sums that share the same non-aggregated chunk
        # coordinates (a small reduction on the coordinator).
        combined = {}
        for coords, value in partials.items():
            if value is None:
                continue
            key = tuple(c for i, c in enumerate(coords) if i != axis)
            total, count = value
            if key in combined:
                prev_total, prev_count = combined[key]
                combined[key] = (prev_total + total, prev_count + count)
            else:
                combined[key] = (total, count)
        reduce_bytes = sum(
            t.size * t.itemsize for (t, _c) in combined.values()
        )
        self.cluster.charge_master(
            self.cluster.network.transfer_time(reduce_bytes, "instances", "combine"),
            label="SciDB mean combine",
            category="scidb-mean",
            op=op,
        )

        mean_real = array.real.mean(axis=axis) if array.real.size else array.real.sum(axis=axis)
        new_dims = tuple(d for i, d in enumerate(array.dims) if i != axis)
        result = SciDBArray(
            name or f"{array.name}_mean", new_dims, mean_real, attr=array.attr
        )
        self.arrays[result.name] = result
        return result

    def apply_elementwise(self, array, fn, per_element_cost, name=None, *,
                          op):
        """Native elementwise AFL ``apply`` over every chunk."""
        def work(coords, payload):
            return None

        def cost(coords):
            return array.chunk_nominal_elements(coords) * per_element_cost

        self.run_chunks(array, f"apply-{array.name}", work, cost, op=op)
        result = array.with_real(fn(array.real), name=name or f"{array.name}_apply")
        self.arrays[result.name] = result
        return result

    def window(self, array, radii, agg="avg", name=None, *, op):
        """AFL-style ``window()``: a box aggregate around every cell.

        This is the stencil operation the paper identifies as a core
        image-analytics pattern (Section 1).  SciDB's window supports
        box aggregates (not arbitrary convolutions -- the missing
        "high-dimensional convolutions" of Section 4.1).  Windows are
        truncated at array edges, matching SciDB's semantics.

        Chunk execution pays a halo exchange: each chunk fetches a
        ``radius``-deep shell of neighbor cells over the network before
        aggregating.
        """
        if agg not in ("avg", "sum"):
            raise ValueError(f"window supports avg/sum, got {agg!r}")
        radii = tuple(int(r) for r in radii)
        if len(radii) != len(array.dims):
            raise ValueError(
                f"need {len(array.dims)} radii, got {len(radii)}"
            )
        if any(r < 0 for r in radii):
            raise ValueError("radii must be non-negative")
        cm = self.cost_model
        taps = 1
        for r in radii:
            taps *= 2 * r + 1
        itemsize = array.real.dtype.itemsize

        def work(coords, payload):
            return None  # computed globally below (exact, no seams)

        def cost(coords):
            cells = array.chunk_nominal_elements(coords)
            compute = cells * taps * cm.elementwise_per_element
            # Halo: the chunk's surface shell, radius deep, per axis.
            bounds = array.chunk_bounds(coords)
            halo_cells = 0
            extents = [stop - start for start, stop in bounds]
            for axis, radius in enumerate(radii):
                if radius == 0:
                    continue
                face = 1
                for other, extent in enumerate(extents):
                    if other != axis:
                        face *= extent
                halo_cells += 2 * radius * face
            halo = self.cluster.network.transfer_time(
                halo_cells * itemsize, "neighbor", "chunk"
            )
            return compute + halo

        self.run_chunks(array, f"window-{array.name}", work, cost, op=op)

        out = _box_aggregate(array.real, radii, agg)
        result = array.with_real(out, name=name or f"{array.name}_window")
        self.arrays[result.name] = result
        return result

    def stream(self, array, fn, name=None, output_scale=1.0, *, op):
        """The ``stream()`` interface: chunks cross to an external
        process as TSV and return as TSV (Sections 4.1 and 5.2.3).

        ``fn`` is a :class:`CostedFunction` called as ``fn(payload,
        coords)`` for each chunk's real payload.  ``output_scale``
        estimates output bytes relative to input for the return
        conversion.
        """
        fn = as_costed(fn)
        cm = self.cost_model
        outputs = {}

        def work(coords, payload):
            outputs[coords] = fn(payload, coords)
            return None

        def cost(coords):
            elements = array.chunk_nominal_elements(coords)
            tsv_in = csv_nominal_bytes(elements, rank=0, with_coordinates=False)
            tsv_out = int(tsv_in * output_scale)
            total = cm.csv_encode_time(tsv_in)
            total += fn.cost(array.chunk_payload(coords), coords)
            total += cm.csv_decode_time(tsv_out)
            return total

        self.run_chunks(array, f"stream-{array.name}", work, cost, op=op)

        new_real = np.zeros_like(array.real, dtype=np.float64)
        for coords, value in outputs.items():
            slices = array.real_slices(coords)
            if new_real[slices].size:
                new_real[slices] = value
        result = array.with_real(new_real, name=name or f"{array.name}_stream")
        self.arrays[result.name] = result
        return result

    # ------------------------------------------------------------------
    # Iterative AQL co-addition (Step 3-A)
    # ------------------------------------------------------------------

    def coadd_aql(self, array, n_sigma=3.0, n_iter=2, incremental=False,
                  name=None, *, op):
        """Sigma-clipped co-addition expressed as iterative AQL.

        ``array`` has a leading visit dimension.  "we use the official
        SciDB release, which does not include any optimizations for
        iterative processing" (Section 5.2.4): AQL has no loop state,
        so the unrolled query for cleaning pass *k* re-derives the
        results of all *k-1* earlier passes from the base array, and
        each pass materializes a full new array version.

        With ``incremental=True`` -- the [34] (Soroush et al., SSDBM'15)
        ablation -- aggregate state is maintained between iterations and
        deltas are applied per changed *cell*: passes after the first
        charge only for the cells the previous pass nulled (plus a small
        per-touched-chunk overhead), and materialize only delta bytes.
        The paper reports ~6x improvement from this optimization.
        """
        import warnings

        cm = self.cost_model
        visit_axis = 0
        stack = np.array(array.real, dtype=np.float64)
        real_cells = max(1, stack.size)
        cell_scale = array.nominal_elements / real_cells

        def full_pass_cost(recompute_depth):
            def pass_cost(coords):
                cells = array.chunk_nominal_elements(coords)
                efficiency = self.chunk_efficiency_factor(
                    array.chunk_nominal_bytes(coords)
                )
                return cells * cm.scidb_aql_per_cell * recompute_depth * efficiency
            return pass_cost

        def delta_pass_cost(changed_by_chunk):
            def pass_cost(coords):
                changed = changed_by_chunk.get(coords, 0)
                return changed * cell_scale * cm.scidb_aql_per_cell
            return pass_cost

        changed_by_chunk = {}
        # Passes 1..n_iter are cleaning iterations; pass n_iter+1 is the
        # final outlier-free sum (free under incremental maintenance:
        # the running sum was updated as cells were nulled).
        for iteration in range(n_iter + 1):
            is_sum = iteration == n_iter
            delta_mode = incremental and iteration > 0

            if delta_mode:
                grid = _Subgrid(
                    array, [c for c, n in changed_by_chunk.items() if n > 0]
                )
                cost = delta_pass_cost(changed_by_chunk)
            elif incremental:
                grid = array
                cost = full_pass_cost(1)
            else:
                grid = array
                # AQL has no loop state: pass k re-derives passes 1..k-1.
                cost = full_pass_cost(iteration + 1)

            if not is_sum:
                with np.errstate(invalid="ignore"), warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    mean = np.nanmean(stack, axis=visit_axis)
                    std = np.nanstd(stack, axis=visit_axis)
                    outliers = np.abs(stack - mean) > n_sigma * std
                outliers &= std > 0

            self.run_chunks(
                grid,
                f"coadd-pass{iteration}-{array.name}",
                lambda coords, payload: None,
                cost,
                delta_only=delta_mode,
                delta_cells=changed_by_chunk if delta_mode else None,
                cell_scale=cell_scale, op=op,
            )
            if not is_sum:
                # Materialize the cleaned version: full array versions
                # for stock AQL, delta bytes only for the incremental
                # engine.
                if incremental and iteration > 0:
                    self._materialize_delta(
                        array, changed_by_chunk, cell_scale,
                        f"coadd-mat{iteration}-{array.name}", op=op,
                    )
                else:
                    self._materialize_wave(
                        array, f"coadd-mat{iteration}-{array.name}", op=op
                    )
                changed_by_chunk = {}
                for coords in array.chunk_grid():
                    slices = array.real_slices(coords)
                    chunk_out = outliers[(slice(None),) + slices[1:]]
                    changed_by_chunk[coords] = int(chunk_out.sum())
                stack[outliers] = np.nan

        coadd = np.nansum(stack, axis=visit_axis)
        new_dims = tuple(d for i, d in enumerate(array.dims) if i != visit_axis)
        result = SciDBArray(
            name or f"{array.name}_coadd", new_dims, coadd, attr=array.attr
        )
        self.arrays[result.name] = result
        return result

    def _materialize_delta(self, array, changed_by_chunk, cell_scale, label,
                           *, op):
        """Write only delta bytes (the incremental engine's version log)."""
        cm = self.cost_model
        itemsize = array.real.dtype.itemsize
        units = []
        for coords, changed in changed_by_chunk.items():
            if changed <= 0:
                continue
            instance = array.instance_of(coords, self.n_instances)
            nbytes = int(changed * cell_scale * itemsize)
            units.append((
                coords, self.instance_node(instance),
                cm.disk_write_time(nbytes) + cm.scidb_chunk_overhead, None,
            ))
        self.run_tasks(label, "scidb-materialize", units, op=op)

    def _materialize_wave(self, grid, label, *, op):
        cm = self.cost_model
        units = []
        source = grid.base if isinstance(grid, _Subgrid) else grid
        for coords in grid.chunk_grid():
            instance = source.instance_of(coords, self.n_instances)
            chunk_bytes = source.chunk_nominal_bytes(coords)
            spill = self._spill_factor(chunk_bytes)
            units.append((
                coords, self.instance_node(instance),
                cm.disk_write_time(chunk_bytes) * spill
                + cm.scidb_chunk_overhead, None,
            ))
        self.run_tasks(label, "scidb-materialize", units, op=op)


class _Subgrid:
    """A view of an array restricted to a subset of its chunks."""

    def __init__(self, base, coords_list):
        self.base = base
        self._coords = list(coords_list)

    def chunk_grid(self):
        """All chunk coordinates in row-major order."""
        return list(self._coords)

    def __getattr__(self, item):
        return getattr(self.base, item)


def _box_aggregate(real, radii, agg):
    """Edge-truncated box sum/avg over an n-d array (separable)."""
    out = np.asarray(real, dtype=np.float64)
    counts = np.ones_like(out)
    for axis, radius in enumerate(radii):
        if radius == 0:
            continue
        out = _axis_box_sum(out, axis, radius)
        counts = _axis_box_sum(counts, axis, radius)
    if agg == "avg":
        return out / counts
    return out


def _axis_box_sum(values, axis, radius):
    """Truncated-window sums of width ``2r+1`` along one axis."""
    length = values.shape[axis]
    cumsum = np.cumsum(values, axis=axis)
    zero_shape = list(cumsum.shape)
    zero_shape[axis] = 1
    padded = np.concatenate([np.zeros(zero_shape), cumsum], axis=axis)
    upper = np.minimum(np.arange(length) + radius + 1, length)
    lower = np.maximum(np.arange(length) - radius, 0)
    return np.take(padded, upper, axis=axis) - np.take(padded, lower, axis=axis)
