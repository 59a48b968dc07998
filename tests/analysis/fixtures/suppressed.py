"""Suppression-semantics fixture.

Line 9: correct rule ID listed — suppressed.
Line 11: bare ignore — suppresses every rule on the line.
Line 13: wrong rule ID — the SBL-DET finding still fires.
"""
import time

T1 = time.time()  # sibyl: ignore[SBL-DET]

T2 = time.time()  # sibyl: ignore

T3 = time.time()  # sibyl: ignore[SBL-ENV]
