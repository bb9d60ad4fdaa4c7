"""bench_e2e: four named workloads over the disk-backed cluster, with
absolute end-to-end numbers and a per-layer time budget (see README.md)."""
