"""The element type of every matrix the simulator holds (see
:mod:`repro.formats.csr` for the arrays themselves)."""

from __future__ import annotations

import numpy as np

DTYPE = np.float32
