"""The exact referee: every answer the benchmark gets is checked here.

Truth is exact (``np.argsort`` positions per key), so a check never
depends on the program under test.  Each check returns a list of
violation strings; an empty list is a pass.  The rules are the
contract every ``repro.backend`` engine documents:

* estimate >= truth and estimate - error <= truth for every reported
  element (one-sided summaries);
* ``processed`` equals the number of elements ingested;
* heavy elements are present.  For Space Saving and its merged forms
  (``MERGED_BACKENDS``) every element whose truth exceeds the advertised
  ``error_bound`` must be reported; sketch engines (``SKETCH_BACKENDS``)
  delegate recall to a candidate set, so only the single heaviest
  element must appear in the top 10.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: heavy-presence modes
SPACE_SAVING = "space-saving"
SKETCH = "sketch"


class Truth:
    """Exact prefix counts of one ingested key sequence."""

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = np.asarray(keys, dtype=np.int64)
        self._order = np.argsort(self.keys, kind="stable")
        self._sorted = self.keys[self._order]

    def __len__(self) -> int:
        return len(self.keys)

    def count(self, element, prefix: int) -> int:
        """Occurrences of ``element`` among the first ``prefix`` keys."""
        if not isinstance(element, (int, np.integer)):
            return 0
        lo = np.searchsorted(self._sorted, element, side="left")
        hi = np.searchsorted(self._sorted, element, side="right")
        return int(np.searchsorted(self._order[lo:hi], prefix))

    def counts(self, prefix: int) -> Tuple[np.ndarray, np.ndarray]:
        """(distinct keys, their counts) over the first ``prefix`` keys."""
        return np.unique(self.keys[:prefix], return_counts=True)


def check_entries(
    entries: Iterable[Tuple[object, int, int]], truth: Truth, prefix: int
) -> List[str]:
    """Both one-sided bounds for ``(element, count, error)`` triples."""
    violations = []
    for element, count, error in entries:
        actual = truth.count(element, prefix)
        if count < actual:
            violations.append(
                f"underestimate: {element!r} count {count} < truth {actual}"
            )
        if count - error > actual:
            violations.append(
                f"lower bound: {element!r} count-error {count - error} "
                f"> truth {actual}"
            )
    return violations


def check_answer(
    entries: Sequence[Tuple[object, int, int]],
    error_bound: int,
    processed: int,
    truth: Truth,
    prefix: int,
    mode: str = SPACE_SAVING,
) -> List[str]:
    """The full referee for one answer over the first ``prefix`` keys."""
    violations = []
    if processed != prefix:
        violations.append(f"processed {processed} != ingested {prefix}")
    violations += check_entries(entries, truth, prefix)
    reported = {element for element, _, _ in entries}
    keys, counts = truth.counts(prefix)
    if mode == SKETCH:
        top = {element for element, _, _ in entries[:10]}
        heaviest = int(keys[np.argmax(counts)]) if len(keys) else None
        if heaviest is not None and heaviest not in top:
            violations.append(f"heaviest element {heaviest} not in top 10")
    else:
        for element in keys[counts > error_bound].tolist():
            if element not in reported:
                violations.append(
                    f"heavy element {element} (truth "
                    f"{truth.count(element, prefix)} > bound {error_bound}) "
                    "missing"
                )
    return violations


def snapshot_triples(snapshot) -> List[Tuple[object, int, int]]:
    """``(element, count, error)`` triples of a ``repro.backend`` snapshot."""
    return [(e.element, e.count, e.error) for e in snapshot.entries]
