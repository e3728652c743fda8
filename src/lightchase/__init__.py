"""Cylindrical Lights Out: one-pass light chasing and when it wins.

A library and CLI for the k-state Lights Out game on a cylinder (columns
wrap around).  It simulates the one-pass light-chasing strategy exactly,
computes the uniform-start row-state sequence S by recursion and by its
Fibonacci closed form, and decides which board heights are one-pass
solvable via the restricted period alpha(k) of the Fibonacci sequence,
with the simulator and the formulas continuously cross-checked against
each other.
"""

from . import engine, fib, recurrence, solvability
from .engine import *
from .fib import *
from .recurrence import *
from .solvability import *

__version__ = "0.1.0"

__all__ = [*engine.__all__, *fib.__all__, *recurrence.__all__, *solvability.__all__, "__version__"]
