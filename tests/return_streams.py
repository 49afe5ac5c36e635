"""Return-stream container files for the tests that read them back.

The package reads return streams (`qsb validate`) but writes none, so the
writer lives here, beside its only callers.
"""

import json
from pathlib import Path

import numpy as np


def save_return_stream(path, returns) -> None:
    """Write (T, D) return rows as a return-stream container."""
    returns = np.asarray(returns, dtype=float)
    record = {"kind": "return-stream", "dim": returns.shape[1], "rounds": returns.shape[0],
              "rows": returns.tolist()}
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")
