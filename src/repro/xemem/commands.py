"""Wire commands of the XEMEM protocol.

Every cross-enclave message is a :class:`~repro.enclave.enclave.KernelMessage`
whose payload carries a routing envelope plus command fields:

=====================  =======================================================
field                  meaning
=====================  =======================================================
``src``                sender's enclave id
``dst``                destination enclave id, or ``None`` = "the name
                       server" (segid-addressed commands are resolved to
                       their owner enclave *at* the name server, §4.2)
``req_id``             correlation token for request/response pairs
``reply_to``           on responses: the request's ``req_id``
``error``              on responses: failure string instead of a result
=====================  =======================================================

Command kinds are grouped into the §3.2 discovery/routing protocol, name
server operations, and the Table 1 segment operations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.enclave.enclave import KernelMessage

# -- discovery / routing (paper §3.2) -------------------------------------------
PING_NS_PATH = "ping_ns_path"
PING_NS_PATH_ACK = "ping_ns_path_ack"
ALLOC_ENCLAVE_ID = "alloc_enclave_id"
ENCLAVE_ID_ASSIGNED = "enclave_id_assigned"

ENCLAVE_DEPART = "enclave_depart"
ENCLAVE_DEPART_ACK = "enclave_depart_ack"

# -- name server operations (paper §3.1, §4.2) ------------------------------------
ALLOC_SEGID = "alloc_segid"
SEGID_ASSIGNED = "segid_assigned"
REMOVE_SEGID = "remove_segid"
REMOVE_SEGID_ACK = "remove_segid_ack"
LOOKUP_NAME = "lookup_name"
LOOKUP_NAME_RESP = "lookup_name_resp"
LIST_NAMES = "list_names"
LIST_NAMES_RESP = "list_names_resp"

# -- failure detection (fault-injection extension) ----------------------------------
ENCLAVE_HEARTBEAT = "enclave_heartbeat"  # one-way liveness beacon to the NS

# -- event notification extension (paper §6.1 future work) ---------------------------
NOTIFY_SUBSCRIBE = "notify_subscribe"
NOTIFY_SUBSCRIBE_ACK = "notify_subscribe_ack"
SIGNAL_REQ = "signal_req"
SIGNAL_ACK = "signal_ack"
SEGID_NOTIFY = "segid_notify"  # one-way fan-out to a subscriber

# -- segment operations (Table 1 flows) ---------------------------------------------
GET_REQ = "get_req"
GET_RESP = "get_resp"
ATTACH_REQ = "attach_req"
ATTACH_RESP = "attach_resp"
RELEASE_REQ = "release_req"
RELEASE_RESP = "release_resp"

#: Kinds the name server re-addresses to a segid's owner enclave.
SEGID_ADDRESSED = {GET_REQ, ATTACH_REQ, RELEASE_REQ, NOTIFY_SUBSCRIBE, SIGNAL_REQ}

#: Kinds with no response at all.
ONE_WAY = {SEGID_NOTIFY, ENCLAVE_HEARTBEAT}

#: Response kind for each request kind.
RESPONSE_KIND = {
    PING_NS_PATH: PING_NS_PATH_ACK,
    ALLOC_ENCLAVE_ID: ENCLAVE_ID_ASSIGNED,
    ENCLAVE_DEPART: ENCLAVE_DEPART_ACK,
    ALLOC_SEGID: SEGID_ASSIGNED,
    REMOVE_SEGID: REMOVE_SEGID_ACK,
    LOOKUP_NAME: LOOKUP_NAME_RESP,
    LIST_NAMES: LIST_NAMES_RESP,
    GET_REQ: GET_RESP,
    ATTACH_REQ: ATTACH_RESP,
    RELEASE_REQ: RELEASE_RESP,
    NOTIFY_SUBSCRIBE: NOTIFY_SUBSCRIBE_ACK,
    SIGNAL_REQ: SIGNAL_ACK,
}

ALL_KINDS = set(RESPONSE_KIND) | set(RESPONSE_KIND.values()) | ONE_WAY


def make_command(kind: str, src: Optional[int], dst: Optional[int],
                 pfns: Optional[np.ndarray] = None, **fields) -> KernelMessage:
    """Build a request/one-way command with the routing envelope."""
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown command kind {kind!r}")
    payload = {"src": src, "dst": dst}
    payload.update(fields)
    return KernelMessage(kind=kind, payload=payload, pfns=pfns)


def make_response(request: KernelMessage, src: Optional[int],
                  pfns: Optional[np.ndarray] = None, **fields) -> KernelMessage:
    """Build the response for ``request``, addressed back to its sender."""
    kind = RESPONSE_KIND.get(request.kind)
    if kind is None:
        raise ValueError(f"{request.kind!r} takes no response")
    payload = {
        "src": src,
        "dst": request.payload["src"],
        "reply_to": request.payload.get("req_id"),
    }
    payload.update(fields)
    return KernelMessage(kind=kind, payload=payload, pfns=pfns)

