"""mergeforge: iterative search for model-merging programs in a typed DSL."""
