"""soapsim benchmark package: see run.py."""
