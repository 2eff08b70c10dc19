"""The correctness gate: operation tallies and the write ledger.

Every operation a workload issues is tallied. An operation fails when
the program answers with an error (OVERLOADED refusals included), when
the connection breaks, or when a read's ids differ from the expected
answer. The run is correct only when nothing failed and every oracle
cross-check held.

The :class:`Ledger` is the client's record of acknowledged writes. After
a run that wrote, the program's answers are checked against the
relation the ledger says the engine must hold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    refused: int = 0
    #: Failed oracle cross-checks and ledger checks (not operations).
    check_failures: list[str] = field(default_factory=list)

    def op(self, response: dict | None, expected: list[int] | None = None
           ) -> bool:
        """Count one operation; True when it succeeded.

        ``response`` is the decoded reply, or None when the request
        never got one. With ``expected``, the reply's ``ids`` must
        equal it.
        """
        self.attempted += 1
        if response is None or not response.get("ok"):
            self.failed += 1
            error = (response or {}).get("error") or {}
            if error.get("code") == "OVERLOADED":
                self.refused += 1
            return False
        if expected is not None and response.get("ids") != expected:
            self.failed += 1
            self.wrong += 1
            return False
        return True

    def check(self, label: str, ok: bool) -> None:
        if not ok:
            self.check_failures.append(label)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 \
            and not self.check_failures


class Ledger:
    """Acknowledged writes over a starting relation of ids ``base``.

    ``free`` ids are insertable tuples not in the engine. An insert takes
    the next free id; a delete takes the oldest acknowledged insert, so
    the relation size stays near its start. An id is only handed out
    again after the write that released it was acknowledged; a write
    without a success reply releases nothing.
    """

    def __init__(self, base, free) -> None:
        self.live = set(base)
        self._free = deque(free)
        self._deletable: deque[int] = deque()

    def next_write(self, prefer_delete: bool) -> tuple[str, int]:
        if prefer_delete and self._deletable:
            return "delete", self._deletable.popleft()
        if not self._free:
            raise RuntimeError("no insertable tuples left")
        return "insert", self._free.popleft()

    def acknowledged(self, op: str, tid: int) -> None:
        if op == "insert":
            self.live.add(tid)
            self._deletable.append(tid)
        else:
            self.live.discard(tid)
            self._free.append(tid)

