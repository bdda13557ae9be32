"""Support code for ``bench/run.py``; see ``bench/README.md``."""
