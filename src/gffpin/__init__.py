"""Lattice free field under delta-pinning: simulation and verification tools.

The package itself exports only its version: `python -m gffpin.cli` loads
what a command needs and nothing else. Import from the submodules.
"""

__version__ = "0.1.0"
