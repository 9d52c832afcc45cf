"""The work-partitioning taxonomy of Table 1.

Work partitions only at the filtering/refinement boundary (arbitrary-point
migration would ship too much state — paper section 4), giving four schemes
in the adequate-memory scenario, two of which come in data-present /
data-absent variants, plus the two insufficient-memory executions:

=============================  =======================  =====================
Computation                    Index resides            Data resides
=============================  =======================  =====================
*Adequate memory at client*
Fully at client                client + server          client + server
Fully at server                server only              server only
Fully at server                server only              client + server
Filter client, refine server   client + server          client + server
Filter client, refine server   client + server          server only
Filter server, refine client   server only              client + server
*Insufficient memory at client*
Fully at server                server only              server only
Fully at client (cached)       partly client / server   partly client / server
=============================  =======================  =====================

:class:`SchemeConfig` encodes one row; :func:`table1_rows` regenerates the
table (the Table 1 bench prints it); :meth:`SchemeConfig.validate_for`
enforces the paper's legality rules (e.g. NN queries have no phases, so only
the two "fully at" schemes apply to them).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Tuple

from repro.core.queries import Query, QueryKind

__all__ = ["Scheme", "SchemeConfig", "ADEQUATE_MEMORY_CONFIGS", "table1_rows", "validate_pairs"]


class Scheme(Enum):
    """Where the two query phases execute."""

    FULLY_CLIENT = "fully_client"
    FULLY_SERVER = "fully_server"
    FILTER_CLIENT_REFINE_SERVER = "filter_client_refine_server"
    FILTER_SERVER_REFINE_CLIENT = "filter_server_refine_client"

    @property
    def label(self) -> str:
        """Human-readable name matching the paper's figure captions."""
        return {
            Scheme.FULLY_CLIENT: "Fully at the Client",
            Scheme.FULLY_SERVER: "Fully at the Server",
            Scheme.FILTER_CLIENT_REFINE_SERVER: "Filtering at Client, Refinement at Server",
            Scheme.FILTER_SERVER_REFINE_CLIENT: "Filtering at Server, Refinement at Client",
        }[self]


@dataclass(frozen=True)
class SchemeConfig:
    """A scheme plus its data-placement variant.

    ``data_at_client`` selects whether the actual segment records are present
    on the client: when True the server ships bare object ids; when False it
    must ship full data items.  Placement is constrained per scheme (see
    :meth:`validate`).
    """

    scheme: Scheme
    data_at_client: bool = True

    def validate(self) -> None:
        """Raise :class:`ValueError` for combinations outside Table 1."""
        if self.scheme is Scheme.FULLY_CLIENT and not self.data_at_client:
            raise ValueError("fully-at-client requires the data at the client")
        if self.scheme is Scheme.FILTER_SERVER_REFINE_CLIENT and not self.data_at_client:
            raise ValueError(
                "filter-at-server/refine-at-client is only studied with the "
                "data already at the client (the other two schemes cover "
                "shipping filtered items from the server)"
            )

    def validate_for(self, query: Query) -> None:
        """Additionally check the scheme applies to this query type."""
        self.validate()
        if query.kind is QueryKind.NEAREST_NEIGHBOR and self.scheme in (
            Scheme.FILTER_CLIENT_REFINE_SERVER,
            Scheme.FILTER_SERVER_REFINE_CLIENT,
        ):
            raise ValueError(
                "the NN query has no separate filtering and refinement "
                "steps, so phase-boundary partitioning does not apply"
            )

    @property
    def index_at_client(self) -> bool:
        """Whether the scheme needs the index resident on the client."""
        return self.scheme in (
            Scheme.FULLY_CLIENT,
            Scheme.FILTER_CLIENT_REFINE_SERVER,
        )

    @property
    def label(self) -> str:
        """Scheme label plus the data-placement variant."""
        suffix = " (data at client)" if self.data_at_client else " (data at server only)"
        if self.scheme is Scheme.FULLY_CLIENT:
            return self.scheme.label
        return self.scheme.label + suffix


def validate_pairs(pairs: Iterable[Tuple[SchemeConfig, Query]]) -> None:
    """``config.validate_for(query)`` for each pair, in order, but once per
    distinct (configuration, query kind): ``validate_for`` reads only the
    query's kind, so the first error is the one the full loop raises."""
    seen = set()
    for config, query in pairs:
        if (config, query.kind) not in seen:
            seen.add((config, query.kind))
            config.validate_for(query)


#: Every adequate-memory configuration the paper evaluates, in Table 1 order.
ADEQUATE_MEMORY_CONFIGS: tuple[SchemeConfig, ...] = (
    SchemeConfig(Scheme.FULLY_CLIENT, data_at_client=True),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=False),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
    SchemeConfig(Scheme.FILTER_CLIENT_REFINE_SERVER, data_at_client=True),
    SchemeConfig(Scheme.FILTER_CLIENT_REFINE_SERVER, data_at_client=False),
    SchemeConfig(Scheme.FILTER_SERVER_REFINE_CLIENT, data_at_client=True),
)


def table1_rows() -> List[dict]:
    """Regenerate Table 1 as structured rows.

    Each row maps the three column headers of the paper's table to strings;
    the Table 1 bench prints them and a test pins the row set.
    """
    rows: List[dict] = []

    def row(scenario: str, computation: str, index: str, data: str) -> dict:
        return {
            "scenario": scenario,
            "computation": computation,
            "index_resides": index,
            "data_resides": data,
        }

    both = "At both Client and Server"
    server = "Only at the Server"
    rows.append(row("Adequate Memory at Client", "Fully at the Client", both, both))
    rows.append(row("Adequate Memory at Client", "Fully at the Server", server, server))
    rows.append(row("Adequate Memory at Client", "Fully at the Server", server, both))
    rows.append(
        row(
            "Adequate Memory at Client",
            "Filtering at Client, Refinement at Server",
            both,
            both,
        )
    )
    rows.append(
        row(
            "Adequate Memory at Client",
            "Filtering at Client, Refinement at Server",
            both,
            server,
        )
    )
    rows.append(
        row(
            "Adequate Memory at Client",
            "Filtering at Server, Refinement at Client",
            server,
            both,
        )
    )
    rows.append(
        row("Insufficient Memory at Client", "Fully at the Server", server, server)
    )
    rows.append(
        row(
            "Insufficient Memory at Client",
            "Fully at the Client",
            "Partly at Client, Fully at Server",
            "Partly at Client, Fully at Server",
        )
    )
    return rows
