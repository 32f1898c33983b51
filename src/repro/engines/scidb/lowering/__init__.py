"""SciDB lowering backend: AFL/AQL + convert-then-ingest subsets.

Both plans lower only partially (Table 1): the neuro lowering stops at
denoise, the astro lowering covers ingest + co-addition.
"""
