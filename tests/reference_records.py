"""Reference writers of the container records, built as nested lists.

`serialize.save_matrix` and `serialize.save_dataset` write their files a
block at a time; their bytes are tested against `json.dumps` of these
records, with sorted keys and no spaces.
"""

import numpy as np

from qsoftbayes.tomography import Dataset


def pairs(M: np.ndarray) -> list:
    """The row-major [re, im] pairs of a matrix, or of each matrix of a stack."""
    M = np.ascontiguousarray(M, dtype=complex)
    return M.view(np.float64).reshape(*M.shape[:-2], -1, 2).tolist()


def matrix_to_record(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    return {"kind": "matrix", "dim": M.shape[0], "entries": pairs(M)}


def dataset_to_record(data: Dataset) -> dict:
    """Each distinct record once, as `elements`, and each record's element, `index`."""
    rec = {
        "kind": "dataset",
        "dim": data.dim,
        "n": len(data),
        "has_provenance": data.has_provenance,
        "elements": pairs(data.elements),
        "index": data.index.tolist(),
    }
    if data.has_provenance:
        rec["povm_indices"] = np.asarray(data.povm_indices, dtype=np.int64).tolist()
        rec["outcome_indices"] = np.asarray(data.outcome_indices, dtype=np.int64).tolist()
    return rec
