"""The membership-query oracle and its query accounting.

The oracle is the only channel through which a solver may observe agent
preferences.  Every call is counted -- there is no transparent caching, so
query totals reflect oracle calls exactly.  Answers come from a hidden
:class:`~unanimity.core.Instance`: the oracle decides membership on its
integer ``grid_rows`` itself.  Solvers scan agents with :meth:`Oracle.rejecters`.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field
from itertools import islice
from operator import add, mul
from typing import IO, Iterable, Optional

from unanimity.core import Instance, Lottery, format_rational


class QueryCategory(enum.Enum):
    """Why a query was issued; totals are also tracked per category."""

    PURE_VERTEX = "PureVertex"
    THRESHOLD_SEARCH = "ThresholdSearch"
    VERIFICATION = "Verification"
    ADVICE_CHECK = "AdviceCheck"

    # Members are singletons, so identity hashing is exact; Enum's own
    # __hash__ is Python code, paid twice per recorded query.
    __hash__ = object.__hash__


# How many queries a captured trace keeps: the first TRACE_CAP.
TRACE_CAP = 10_000


@dataclass
class QueryLedger:
    """Running counters for oracle calls, with an optional bounded trace.

    :meth:`Oracle.query` is the only writer: it counts every query here.
    ``counts`` holds, per category asked, one list of n + 1 query counts,
    indexed by agent (slot 0 is unused).  A category's list is created on
    its first query, so the dict keeps the order in which categories were
    first asked, and a query costs one dict lookup and one list increment.
    ``agent_counts``, ``per_category`` and ``total`` are read-only views
    derived from it.

    The trace keeps the first ``TRACE_CAP`` queries; ``trace_dropped``
    counts the queries past the cap that it did not keep.
    """

    n: int
    counts: dict[QueryCategory, list[int]] = field(default_factory=dict)
    trace: Optional[list[tuple[int, QueryCategory, Lottery, bool]]] = None

    @property
    def agent_counts(self) -> list[int]:
        """``agent_counts[i]`` is agent i's count over all categories."""
        total = [0] * (self.n + 1)
        for per_agent in self.counts.values():
            total = list(map(add, total, per_agent))
        return total

    @property
    def per_category(self) -> dict[QueryCategory, int]:
        """Count per category asked, in first-asked order."""
        return {cat: sum(per_agent) for cat, per_agent in self.counts.items()}

    @property
    def total(self) -> int:
        return sum(map(sum, self.counts.values()))

    @property
    def trace_dropped(self) -> int:
        """Queries past ``TRACE_CAP`` that the trace did not keep."""
        return 0 if self.trace is None else self.total - len(self.trace)

    def write_trace_csv(self, fh: IO[str]) -> None:
        if self.trace is None:
            raise ValueError("trace capture was not enabled")
        writer = csv.writer(fh)
        writer.writerow(["seq", "agent", "category", "lottery", "answer"])
        for seq, (agent, cat, x, answer) in enumerate(self.trace, start=1):
            rendered = ";".join(format_rational(p) for p in x.probs)
            writer.writerow([seq, agent, cat.value, rendered, answer])


class Oracle:
    """Counting accept/reject oracle over a hidden instance.

    One oracle is owned by exactly one solver run, whose report keeps the
    oracle's ledger itself.  Every query is one call of :meth:`query`,
    which counts it in the ledger's per-category list for the agent.  The
    hidden instance is deliberately not part of the solver-facing API;
    solvers receive only ``n``, ``m``, the grid ``inv_epsilon``
    (1/epsilon, an int), and yes/no answers.
    """

    def __init__(self, hidden: Instance, *, capture_trace: bool = False) -> None:
        self._hidden = hidden
        self._rows = hidden.grid_rows
        self.ledger = QueryLedger(hidden.n, trace=[] if capture_trace else None)

    @property
    def n(self) -> int:
        return self._hidden.n

    @property
    def m(self) -> int:
        return self._hidden.m

    @property
    def inv_epsilon(self) -> int:
        return self._hidden.inv_epsilon

    def query(self, i: int, x: Lottery, cat: QueryCategory) -> bool:
        """Ask agent ``i`` (1-based) whether it accepts lottery ``x``.

        With (U, T) the agent's grid row and x = P/D, the agent accepts iff
        sum_j U_j P_j >= T D, decided exactly over Python ints.
        Raises IndexError for an agent outside 1..n and ValueError for a
        lottery of the wrong dimension, before anything is counted.
        """
        rows = self._rows
        if not 1 <= i <= len(rows):
            raise IndexError(f"agent index {i} out of range 1..{len(rows)}")
        U, T = rows[i - 1]
        P, D = x.scaled
        if len(P) != len(U):
            raise ValueError(f"dimension mismatch: agent has {len(U)}, lottery {len(P)}")
        answer = sum(map(mul, U, P)) >= T * D
        # The ledger update, inline: this is the hot path of every scan.
        ledger = self.ledger
        try:
            ledger.counts[cat][i] += 1
        except KeyError:  # the category's first query
            ledger.counts[cat] = per_agent = [0] * (len(rows) + 1)
            per_agent[i] = 1
        trace = ledger.trace
        if trace is not None and len(trace) < TRACE_CAP:
            trace.append((i, cat, x, answer))
        return answer

    def rejecters(self, x: Lottery, agents: Iterable[int], cat: QueryCategory,
                  first: bool = False) -> list[int]:
        """The agents of ``agents`` that reject ``x``, asked in order, each
        through :meth:`query`; with ``first`` the scan stops at the first."""
        query = self.query
        found = (i for i in agents if not query(i, x, cat))
        return list(islice(found, 1 if first else None))
