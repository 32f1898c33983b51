"""The paper's claims about every figure, checked at the full profile.

One test per claim, over the figures of ``repro.harness.figures``::

    PYTHONPATH=src python -m pytest benchmarks/test_claims.py -q
    PYTHONPATH=src python -m pytest benchmarks/test_claims.py -q -s -k fig12a

Each figure's rows are computed once per session at its ``full`` sizes
and printed by the figure's own printer, so ``-s`` shows the tables
``harness <id>`` prints; a derived figure reuses its base's rows.
``CELLS`` turns a figure's rows into the lookup its claims read.  A
claim is ``(claim id, predicate over those cells, the paper's statement
or number, deviation note or None)``.  A claim with a deviation note
holds one of our numbers inside the band we measure where we knowingly
differ from the paper, so a recalibration that moves it, toward the
paper or away from it, fails that claim by name.

Table 1 and Figures 10a/10b have the same quick and full sizes; their
claims also run in the tier-1 suite (``tests/harness/test_figures.py``).
"""

import pytest

from repro.harness.figures import FIGURES, run_figure
from repro.harness.report import speedup_table

#: Figures whose claims are checked elsewhere, and where.
NO_CLAIMS = {
    "f16": "benchmarks/test_f16_recovery.py (REPRO_LEDGER_GATE=1)",
    "opt": "harness ledger --optimize: optimized <= naive, same bytes",
}

#: Paper Figures 10a/10b (decimal GB): size -> (input, largest
#: intermediate).
PAPER_NEURO_GB = {1: (4.1, 8.4), 2: (8.4, 16.8), 4: (16.8, 33.6),
                  8: (33.6, 67.2), 12: (50.4, 100.8), 25: (105, 210)}
PAPER_ASTRO_GB = {2: (9.6, 24), 4: (19.2, 48), 8: (38.4, 96),
                  12: (57.6, 144), 24: (115.2, 288)}


def by(rows, *keys, value="simulated_s"):
    """``{key: row[value]}``; the key is a tuple when ``keys`` has several."""
    if len(keys) == 1:
        return {row[keys[0]]: row[value] for row in rows}
    return {tuple(row[k] for k in keys): row[value] for row in rows}


def _gb(rows, unit):
    return {row[unit]: (row["input_gb"], row["largest_intermediate_gb"])
            for row in rows}


def _speedups(rows, _rows_of):
    return {"t": by(rows, "engine", "nodes"),
            "s": by(speedup_table(rows), "engine", "nodes", value="speedup")}


def _matches(sizes, paper, part, rel):
    return all(gb[part] == pytest.approx(paper[n][part], rel=rel)
               for n, gb in sizes.items())


def _loc(t, use_case, step, system):
    return int(t[use_case, step, system])


#: Figure -> ``(rows, rows_of) -> cells``; ``rows_of(id)`` gives another
#: figure's rows.
CELLS = {
    "table1": lambda tables, _: {
        (use_case, row["step"], row["system"]): row["measured_loc"]
        for use_case, rows in tables.items() for row in rows
    },
    "fig10a": lambda rows, _: _gb(rows, "subjects"),
    "fig10b": lambda rows, _: _gb(rows, "visits"),
    "fig10c": lambda rows, _: by(rows, "engine", "subjects"),
    "fig10d": lambda rows, _: by(rows, "engine", "visits"),
    "fig10e": lambda rows, _: by(rows, "engine", "subjects",
                                 value="normalized"),
    "fig10f": lambda rows, _: by(rows, "engine", "visits",
                                 value="normalized"),
    "fig10g": _speedups,
    "fig10h": _speedups,
    "fig11": lambda rows, _: by(rows, "system", "subjects"),
    "fig12a": lambda rows, _: by(rows, "system"),
    "fig12b": lambda rows, _: by(rows, "system"),
    "fig12c": lambda rows, _: by(rows, "system"),
    "fig12d": lambda rows, _: by(rows, "system"),
    "fig13": lambda rows, _: by(rows, "workers_per_node"),
    "fig14": lambda rows, _: by(rows, "partitions"),
    "fig15": lambda rows, _: by(rows, "mode", "visits"),
    "s531": lambda rows, _: by(rows, "chunk"),
    "s533": lambda rows, _: by(rows, "cached", "subjects"),
    # The UDF engines' co-addition comes from Figure 12d's rows.
    "ablation": lambda rows, rows_of: dict(
        by(rows, "variant"), **by(rows_of("fig12d"), "system")
    ),
    "ablation-tf": lambda rows, _: by(rows, "variant"),
    "ablation-tuning": lambda rows, _: by(rows, "variant"),
}

NEURO_ENGINES = ("dask", "myria", "spark")
ASTRO_ENGINES = ("myria", "spark")

CLAIMS = {
    "table1": [
        ("neuro-tf-segmentation-rewrite",
         lambda t: _loc(t, "neuro", "Segmentation", "TensorFlow")
         > _loc(t, "neuro", "Segmentation", "Myria"),
         "TensorFlow rewrites segmentation: 121 LoC vs Myria's 10", None),
        ("neuro-tf-denoising-over-spark",
         lambda t: _loc(t, "neuro", "Denoising", "TensorFlow")
         > _loc(t, "neuro", "Denoising", "Spark"),
         "TensorFlow denoising 128 LoC vs Spark's 1", None),
        ("neuro-tf-denoising-over-myria",
         lambda t: _loc(t, "neuro", "Denoising", "TensorFlow")
         > _loc(t, "neuro", "Denoising", "Myria"),
         "TensorFlow denoising 128 LoC vs Myria's 3", None),
        ("neuro-scidb-fitting-na",
         lambda t: t["neuro", "Model Fitting", "SciDB"] == "NA",
         "model fitting is NA on SciDB", None),
        ("neuro-tf-fitting-na",
         lambda t: t["neuro", "Model Fitting", "TensorFlow"] == "NA",
         "model fitting is NA on TensorFlow", None),
        ("neuro-myria-denoising-handful",
         lambda t: _loc(t, "neuro", "Denoising", "Myria") <= 10,
         "Myria denoises in a handful of MyriaL lines (3)", None),
        ("astro-scidb-preprocessing-x",
         lambda t: t["astro", "Pre-processing", "SciDB"] == "X",
         "SciDB cannot express pre-processing (X)", None),
        ("astro-scidb-patches-x",
         lambda t: t["astro", "Patch Creation", "SciDB"] == "X",
         "SciDB cannot express patch creation (X)", None),
        ("astro-tf-na",
         lambda t: all(t["astro", step, "TensorFlow"] == "NA"
                       for step in ("Data Ingest", "Pre-processing",
                                    "Co-addition")),
         "no TensorFlow astronomy implementation (NA)", None),
        ("astro-scidb-coadd-over-spark",
         lambda t: _loc(t, "astro", "Co-addition", "SciDB")
         > _loc(t, "astro", "Co-addition", "Spark"),
         "SciDB's AQL co-addition 180 LoC vs Spark's 2", None),
        ("astro-scidb-coadd-over-myria",
         lambda t: _loc(t, "astro", "Co-addition", "SciDB")
         > _loc(t, "astro", "Co-addition", "Myria"),
         "SciDB's AQL co-addition 180 LoC vs Myria's 5", None),
    ],
    "fig10a": [
        ("input-gb",
         lambda t: _matches(t, PAPER_NEURO_GB, 0, rel=0.05),
         "inputs 4.1-105 GB for 1-25 subjects, within 5%", None),
        ("intermediate-gb",
         lambda t: _matches(t, PAPER_NEURO_GB, 1, rel=0.05),
         "largest intermediates 8.4-210 GB, within 5%", None),
    ],
    "fig10b": [
        ("input-gb",
         lambda t: _matches(t, PAPER_ASTRO_GB, 0, rel=0.01),
         "inputs 9.6-115.2 GB for 2-24 visits, within 1%", None),
        ("intermediate-gb",
         lambda t: _matches(t, PAPER_ASTRO_GB, 1, rel=0.01),
         "largest intermediates 24-288 GB, within 1%", None),
    ],
    "fig10c": [
        ("dask-trails-spark-at-1",
         lambda t: t["dask", 1] > 1.2 * t["spark", 1],
         "Dask is slower by 60% for single subject", None),
        ("dask-trails-myria-at-1",
         lambda t: t["dask", 1] > 1.2 * t["myria", 1],
         "Dask is slower by 60% for single subject", None),
        ("dask-beats-spark-at-25",
         lambda t: t["dask", 25] < t["spark", 25],
         "Dask is at best 14% faster (25 subjects)", None),
        ("dask-beats-myria-at-25",
         lambda t: t["dask", 25] < t["myria", 25],
         "Dask is at best 14% faster (25 subjects)", None),
        ("dask-lead-modest-at-25",
         lambda t: t["dask", 25] > 0.7 * min(t["spark", 25],
                                             t["myria", 25]),
         "Dask is at best 14% faster (25 subjects)", None),
        ("spark-myria-comparable",
         lambda t: all(0.6 < t["spark", n] / t["myria", n] < 1.7
                       for n in (1, 4, 12, 25)),
         "All three systems achieve comparable performance", None),
    ],
    "fig10d": [
        ("no-dask",
         lambda t: "dask" not in {engine for engine, _ in t},
         "Dask froze on the cluster; not reported (Section 4.4)", None),
        ("spark-myria-comparable",
         lambda t: all(0.5 < t["spark", n] / t["myria", n] < 2.0
                       for n in (2, 8, 24)),
         "Spark and Myria comparable at every size", None),
        ("grows-with-visits",
         lambda t: all(
             t[e, a] < t[e, b]
             for e in ASTRO_ENGINES
             for a, b in zip((2, 4, 8, 12), (4, 8, 12, 24))
         ),
         "runtime grows with the number of visits", None),
    ],
    "fig10e": [
        ("one-subject-is-1",
         lambda t: all(t[e, 1] == 1.0 for e in NEURO_ENGINES),
         "ratios to the one-subject runtime", None),
        ("ratios-fall-with-scale",
         lambda t: all(t[e, 25] < t[e, 4] < 1.0 for e in NEURO_ENGINES),
         "the systems become more efficient as they amortize start-up"
         " costs", None),
        ("dask-amortizes-more-than-myria",
         lambda t: t["dask", 25] < t["myria", 25],
         "Dask's efficiency increase is most pronounced (0.32 vs 0.58)",
         None),
        ("dask-amortizes-more-than-spark",
         lambda t: t["dask", 25] < t["spark", 25],
         "Dask's efficiency increase is most pronounced (0.32 vs 0.59)",
         None),
        ("dask-band", lambda t: t["dask", 25] < 0.55,
         "Dask 0.32 at 25 subjects", None),
        ("myria-band", lambda t: t["myria", 25] < 0.85,
         "Myria 0.58 at 25 subjects", None),
        ("spark-band", lambda t: t["spark", 25] < 0.85,
         "Spark 0.59 at 25 subjects", None),
        ("ratios-at-25-below-paper",
         lambda t: 0.14 < t["dask", 25] < 0.24
         and 0.40 < t["myria", 25] < 0.50
         and 0.29 < t["spark", 25] < 0.39,
         "Dask 0.32, Myria 0.58, Spark 0.59 at 25 subjects",
         "ours Dask 0.18, Myria 0.45, Spark 0.34 (bands 0.14-0.24,"
         " 0.40-0.50, 0.29-0.39): fixed overheads weigh more at our"
         " single-subject scale"),
    ],
    "fig10f": [
        ("two-visits-is-1",
         lambda t: all(t[e, 2] == 1.0 for e in ASTRO_ENGINES),
         "ratios to the two-visit runtime", None),
        ("amortizes",
         lambda t: all(t[e, 24] < 1.0 for e in ASTRO_ENGINES),
         "Spark 1 -> 0.78, Myria 1 -> 0.69 at 24 visits", None),
        ("shallower-than-neuro",
         lambda t: all(t[e, 24] > 0.4 for e in ASTRO_ENGINES),
         "a shallower drop than the neuroscience 0.32", None),
    ],
    "fig10g": [
        ("near-linear-at-64",
         lambda c: all(c["s"][e, 64] > 2.2 for e in NEURO_ENGINES),
         "All systems show near linear speedup", None),
        ("faster-at-32",
         lambda c: all(c["s"][e, 32] > 1.0 for e in NEURO_ENGINES),
         "All systems show near linear speedup", None),
        ("faster-at-64-than-32",
         lambda c: all(c["s"][e, 64] > c["s"][e, 32]
                       for e in NEURO_ENGINES),
         "All systems show near linear speedup", None),
        ("myria-scales-best",
         lambda c: c["s"]["myria", 64] >= c["s"]["dask", 64],
         "Myria achieves almost perfect linear speedup; scheduling"
         " overhead makes Dask less efficient as cluster sizes increase",
         None),
        ("dask-beats-myria-at-16",
         lambda c: c["t"]["dask", 16] < c["t"]["myria", 16],
         "Dask is better than Myria on smaller cluster sizes", None),
    ],
    "fig10h": [
        ("near-linear-at-64",
         lambda c: all(c["s"][e, 64] > 2.0 for e in ASTRO_ENGINES),
         "near-linear speedup for both engines", None),
        ("faster-with-nodes",
         lambda c: all(c["s"][e, 64] > c["s"][e, 32] > 1.0
                       for e in ASTRO_ENGINES),
         "near-linear speedup for both engines", None),
        ("spark-not-faster-than-myria-at-64",
         lambda c: c["t"]["spark", 64] >= 0.95 * c["t"]["myria", 64],
         "Spark is slower than Myria when memory is plentiful", None),
    ],
    "fig11": [
        ("scidb1-order-of-magnitude-over-scidb2",
         lambda t: t["scidb-1", 25] > 5 * t["scidb-2", 25],
         "from_array is an order of magnitude slower than aio_input",
         None),
        ("scidb2-behind-myria",
         lambda t: t["scidb-2", 25] > t["myria", 25],
         "aio_input's CSV conversion keeps SciDB-2 behind", None),
        ("scidb2-behind-spark",
         lambda t: t["scidb-2", 25] > t["spark", 25],
         "aio_input's CSV conversion keeps SciDB-2 behind", None),
        ("scidb2-on-par-with-spark",
         lambda t: t["scidb-2", 25] < 4 * t["spark", 25],
         "SciDB-2 on par with Spark and Myria", None),
        ("myria-beats-spark",
         lambda t: t["myria", 25] < t["spark", 25],
         "Myria is faster than Spark even though it writes to disk", None),
        ("tf-behind-spark",
         lambda t: t["tensorflow", 25] > t["spark", 25],
         "TensorFlow's master-mediated ingest is the slowest loader", None),
        ("tf-behind-myria",
         lambda t: t["tensorflow", 25] > t["myria", 25],
         "TensorFlow's master-mediated ingest is the slowest loader", None),
        ("tf-behind-dask",
         lambda t: t["tensorflow", 25] > t["dask", 25],
         "TensorFlow's master-mediated ingest is the slowest loader", None),
        ("dask-flat-to-12",
         lambda t: t["dask", 12] < 1.35 * t["dask", 1],
         "Dask's ingest stays flat while subjects <= 16 nodes", None),
        ("dask-steps-up-at-25",
         lambda t: t["dask", 25] > 1.5 * t["dask", 12],
         "then doubles when a node takes two subjects", None),
    ],
    "fig12a": [
        ("spark-python-tax",
         lambda t: t["spark"] > 4 * t["dask"],
         "Spark about an order of magnitude slower than Dask", None),
        ("spark-over-dask-band",
         lambda t: 4.0 < t["spark"] / t["dask"] < 5.5,
         "Spark ~10x Dask",
         "ours 4.7x (band 4.0-5.5): our Python-boundary cost is"
         " conservative; both are order-of-magnitude regimes"),
        ("scidb-behind-fastest",
         lambda t: t["scidb"] > min(t["myria"], t["dask"]),
         "SciDB's chunks are misaligned with the selection", None),
        ("tf-behind-spark",
         lambda t: t["tensorflow"] > 5 * t["spark"],
         "TensorFlow orders of magnitude slower (flatten/gather/reshape)",
         None),
        ("tf-behind-fastest",
         lambda t: t["tensorflow"] > 20 * min(t["myria"], t["dask"]),
         "TensorFlow orders of magnitude slower (flatten/gather/reshape)",
         None),
    ],
    "fig12b": [
        ("scidb-competitive",
         lambda t: t["scidb"] < 3 * min(t["spark"], t["myria"]),
         "SciDB's native array math is competitive", None),
        ("spark-myria-comparable",
         lambda t: 0.3 < t["spark"] / t["myria"] < 3.0,
         "Spark and Myria comparable to SciDB at the largest scale", None),
        ("tf-slowest",
         lambda t: t["tensorflow"] > 3 * max(t["spark"], t["myria"],
                                             t["scidb"]),
         "TensorFlow ~an order of magnitude slower (tensor conversions)",
         None),
    ],
    "fig12c": [
        ("udf-engines-within-2x",
         lambda t: max(t[e] for e in NEURO_ENGINES)
         < 2.0 * min(t[e] for e in NEURO_ENGINES),
         "Dask, Myria and Spark run the same reference code and land"
         " close together", None),
        ("scidb-behind-best-udf",
         lambda t: t["scidb"] > min(t[e] for e in NEURO_ENGINES),
         "SciDB's stream() pays a CSV conversion penalty", None),
        ("scidb-same-regime",
         lambda t: t["scidb"] < 4.0 * min(t[e] for e in NEURO_ENGINES),
         "SciDB slightly worse, not an order of magnitude", None),
        ("tf-behind-udf-engines",
         lambda t: t["tensorflow"] > 1.5 * max(t[e] for e in NEURO_ENGINES),
         "TensorFlow converts tensors and cannot mask", None),
    ],
    "fig12d": [
        ("spark-myria-comparable",
         lambda t: 0.3 < t["spark"] / t["myria"] < 3.0,
         "Spark and Myria run the reference code as UDFs", None),
        ("scidb-order-of-magnitude",
         lambda t: t["scidb"] > 8 * max(t["spark"], t["myria"]),
         "SciDB more than one order of magnitude slower", None),
    ],
    "fig13": [
        ("4-beats-1", lambda t: t[4] < t[1],
         "four workers per node yields the best results", None),
        ("4-beats-2", lambda t: t[4] < t[2],
         "four workers per node yields the best results", None),
        ("4-beats-8", lambda t: t[4] < t[8],
         "four workers per node yields the best results", None),
        ("1-wastes-nodes", lambda t: t[1] > 1.5 * t[4],
         "one worker leaves most of each node idle", None),
    ],
    "fig14": [
        ("1-to-16-dramatic", lambda t: t[16] < 0.25 * t[1],
         "the decrease in runtime is dramatic between 1 and 16"
         " partitions", None),
        ("16-to-97", lambda t: t[97] < 0.75 * t[16],
         "from 16 to 97 results in 50% improvement", None),
        ("flat-at-192", lambda t: t[192] > 0.9 * t[128],
         "Further increases do not improve performance", None),
        ("flat-at-256", lambda t: t[256] > 0.9 * t[128],
         "Further increases do not improve performance", None),
    ],
    "fig15": [
        ("pipelined-completes-small",
         lambda t: all(t["pipelined", n] != "OOM" for n in (2, 8)),
         "pipelined execution runs while data fits in memory", None),
        ("pipelined-beats-materialized",
         lambda t: all(t["pipelined", n] < t["materialized", n]
                       for n in (2, 8)),
         "pipelined 8-11% faster than materialized", None),
        ("materialized-beats-multiquery",
         lambda t: all(t["materialized", n] < t["multiquery", n]
                       for n in (2, 8)),
         "multi-query the slowest of the three", None),
        ("multiquery-over-pipelined-band",
         lambda t: all(1.5 < t["multiquery", n] / t["pipelined", n] < 2.3
                       for n in (2, 8, 24)),
         "multi-query 1.15-1.23x pipelined",
         "ours 1.7-2.1x (band 1.5-2.3 at 2, 8 and 24 visits): the narrow"
         " synthetic focal plane duplicates more boundary exposures per"
         " sky band"),
        ("pipelined-oom-at-96",
         lambda t: t["pipelined", 96] == "OOM",
         "pipelined execution fails with out-of-memory errors", None),
        ("materialized-completes-at-96",
         lambda t: t["materialized", 96] != "OOM",
         "materialization completes as data grows", None),
        ("multiquery-completes-at-96",
         lambda t: t["multiquery", 96] != "OOM",
         "multi-query completes as data grows", None),
    ],
    "s531": [
        ("1000-best", lambda t: t[1000] == min(t.values()),
         "a chunk size of [1000x1000] leads to the best performance",
         None),
        ("500-much-slower", lambda t: t[500] > 1.8 * t[1000],
         "[500x500] is 3x slower", None),
        ("1500-slower", lambda t: t[1500] > 1.05 * t[1000],
         "[1500x1500] slower by 22%", None),
        ("2000-slower-than-1500", lambda t: t[2000] > t[1500],
         "[2000x2000] slower by 55%", None),
    ],
    "s533": [
        ("consistent-improvement",
         lambda t: all(
             0.01 < (t[False, n] - t[True, n]) / t[False, n] < 0.30
             for n in (1, 4, 12, 25)
         ),
         "caching yielded a consistent 7-8% runtime improvement", None),
    ],
    "ablation": [
        ("incremental-speedup",
         lambda t: 3.0 < t["speedup"] < 12.0,
         "we showed a 6x improvement in the execution of that same step",
         None),
        ("reaches-udf-engines",
         lambda t: t["incremental [34]"]
         < 4.0 * min(t["myria"], t["spark"]),
         "SciDB's performance would be on par with Spark and Myria", None),
    ],
    "ablation-tf": [
        ("conversion-share", lambda t: t["conversion share"] > 0.5,
         "the TF step is an order of magnitude slower due to format"
         " conversions", None),
    ],
    "ablation-tuning": [
        ("default-vs-tuned", lambda t: t["speedup"] > 3.0,
         "the default results in a highly underutilized cluster", None),
    ],
}

_unclaimed = set(FIGURES) - set(CLAIMS) - set(NO_CLAIMS)
if _unclaimed:
    raise LookupError(
        f"figures with neither claims nor a NO_CLAIMS reason:"
        f" {sorted(_unclaimed)}"
    )


@pytest.fixture(scope="session")
def rows_of():
    """Each figure's rows at its full sizes, run and printed once."""
    computed = {}

    def rows_of(name):
        if name not in computed:
            fig = FIGURES[name]
            if fig.base:
                computed[name] = fig.post(rows_of(fig.base))
                fig.show(computed[name])
            else:
                computed[name] = run_figure(name, quick=False)
        return computed[name]

    return rows_of


@pytest.mark.parametrize("figure, claim", [
    pytest.param(figure, claim, id=f"{figure}/{claim[0]}")
    for figure, claims in CLAIMS.items() for claim in claims
])
def test_claim(figure, claim, rows_of):
    claim_id, holds, paper, deviation = claim
    cells = CELLS[figure](rows_of(figure), rows_of)
    assert holds(cells), (
        f"{figure}/{claim_id}: paper: {paper}"
        + (f"; known deviation: {deviation}" if deviation else "")
    )
