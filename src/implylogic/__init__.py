"""Memristor IMPLY-logic toolchain.

Compile boolean gates and serial full adders into FALSE/IMPLY microcode,
execute it on an ideal logical machine or a linear-ion-drift device
model, and verify programs exhaustively against boolean oracles.
"""

__version__ = "0.1.0"
