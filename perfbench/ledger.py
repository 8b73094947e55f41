"""Operation accounting: every operation is attempted, then passes or fails.

A failure is an exception raised by the program, a failed output check, or
a non-finite number where a finite one is due.  All three are counted and
described; none ends the run, so a defective program yields a result line
with ``failed > 0`` rather than a traceback.
"""

from __future__ import annotations

import contextlib
import traceback


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class OpLedger:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.unexpected = 0  # failures not recorded as known in the reference

    @contextlib.contextmanager
    def op(self, name: str, known: set[str] | None = None):
        """Count one operation; record, rather than raise, what fails in it.

        ``known`` holds the check messages the reference records as known
        defects of the program at the commit that generated it; such
        failures are still counted but do not mark the run incorrect.
        """
        self.attempted += 1
        try:
            yield
        except CheckFailed as err:
            self._fail(name, str(err), known)
        except Exception as err:  # the program under test raised: count it
            detail = "".join(traceback.format_exception_only(type(err), err)).strip()
            self._fail(name, f"raised {detail}", known)

    def _fail(self, name: str, reason: str, known: set[str] | None) -> None:
        self.failed += 1
        is_known = bool(known) and reason in known
        if not is_known:
            self.unexpected += 1
        self.failures.append({"op": name, "reason": reason, "known": is_known})

    @property
    def correct(self) -> bool:
        return self.unexpected == 0
