"""PARULEL end-to-end and per-layer benchmark (see perfbench/README.md)."""
