"""The four anomaly types of Section 3.1.

An anomaly arises when a source update commits before a maintenance
query of another update's maintenance process is answered
(Definition 2).  The taxonomy crosses the type of the *conflicting*
update with the type of the update *being maintained*:

==== ======================= =============================
Type conflicting update       maintenance process
==== ======================= =============================
1    data update              M(data update)
2    data update              M(schema change)
3    schema change            M(data update)
4    schema change            M(schema change)
==== ======================= =============================

Types 1-2 corrupt query answers (solved by compensation); types 3-4 are
*broken query* anomalies (solved by Dyno): the scheduler records the
type of every abort by the unit whose maintenance broke.
"""

from __future__ import annotations

import enum


class AnomalyType(enum.Enum):
    DU_CONFLICTS_WITH_M_DU = 1
    DU_CONFLICTS_WITH_M_SC = 2
    SC_CONFLICTS_WITH_M_DU = 3
    SC_CONFLICTS_WITH_M_SC = 4
