"""Harness of the ``perfbench`` benchmark (see ``perfbench/README.md``)."""
