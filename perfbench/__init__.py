"""End-to-end and per-layer benchmark for saldl; see README.md."""
