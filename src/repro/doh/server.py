"""DoH endpoint (RFC 8484) backed by a recursive resolver.

Accepts ``GET /dns-query?dns=<base64url>`` and ``POST /dns-query`` with
``application/dns-message`` bodies over the simulated TLS channel, runs
the query through the co-located :class:`RecursiveResolver`, and returns
the DNS response with cache-appropriate headers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dns.message import Message
from repro.dns.resolver import RecursiveResolver
from repro.dns.wire import WireFormatError
from repro.doh.encoding import EncodingError, b64url_decode
from repro.doh.http import HttpRequest, HttpResponse
from repro.doh.tls import Certificate, KeyPair, TlsServer
from repro.netsim.address import Endpoint
from repro.netsim.host import Host

DOH_PORT = 443
DOH_PATH = "/dns-query"
DNS_MESSAGE_TYPE = "application/dns-message"
MAX_QUERY_BYTES = 4096


class DoHServer:
    """A DoH front-end on port 443 of a resolver host.

    :param host: machine to run on (shared with the backend resolver).
    :param resolver: backend performing the actual recursion.
    :param certificate: TLS identity (subject must be the provider name).
    :param keypair: static DH keypair matching the certificate.
    """

    def __init__(self, host: Host, resolver: RecursiveResolver,
                 certificate: Certificate, keypair: KeyPair,
                 port: int = DOH_PORT) -> None:
        self._host = host
        self._resolver = resolver
        self._tls = TlsServer(host, port, certificate, keypair,
                              on_data=self._handle_http)
        self._requests_served = 0
        # Bounded-queue capacity during chaos Overload windows; None
        # (the steady state) keeps the historical inline serve path.
        self.capacity: Optional["ServerCapacity"] = None  # noqa: F821

    @property
    def endpoint(self) -> Endpoint:
        return self._tls.endpoint

    @property
    def tls(self) -> TlsServer:
        return self._tls

    @property
    def resolver(self) -> RecursiveResolver:
        return self._resolver

    @property
    def server_name(self) -> str:
        return self._tls.certificate.subject

    @property
    def requests_served(self) -> int:
        return self._requests_served

    # ------------------------------------------------------------------
    # HTTP handling.
    # ------------------------------------------------------------------

    def _handle_http(self, session_id: int, data: bytes,
                     reply: Callable[[bytes], None]) -> None:
        try:
            request = HttpRequest.decode(data)
        except ValueError:
            self._reject(reply, 400)
            return
        if request.path != DOH_PATH:
            self._reject(reply, 404)
            return
        wire = self._extract_query(request, reply)
        if wire is None:
            return
        try:
            query = Message.decode(wire)
        except WireFormatError:
            self._reject(reply, 400)
            return
        if query.is_response or len(query.questions) != 1:
            self._reject(reply, 400)
            return
        capacity = self.capacity
        if capacity is None:
            self._serve(query, reply)
            return
        # Overflow under the servfail policy answers 503 (the HTTP
        # rendering of SERVFAIL); the drop policy leaves the client to
        # its timeout.
        capacity.admit(lambda: self._serve(query, reply),
                       lambda: self._reject(reply, 503))

    def _serve(self, query: Message,
               reply: Callable[[bytes], None]) -> None:
        self._requests_served += 1
        question = query.question

        def respond(outcome) -> None:
            dns_response = RecursiveResolver.outcome_to_response(query, outcome)
            ttl = min((record.ttl for record in dns_response.answers),
                      default=0)
            reply(HttpResponse(
                status=200,
                headers={"Content-Type": DNS_MESSAGE_TYPE,
                         "Cache-Control": f"max-age={ttl}"},
                body=dns_response.encode(),
            ).encode())

        self._resolver.resolve(question.qname, question.qtype, respond)

    def _extract_query(self, request: HttpRequest,
                       reply: Callable[[bytes], None]) -> Optional[bytes]:
        if request.method == "GET":
            encoded = request.query_params.get("dns")
            if not encoded:
                self._reject(reply, 400)
                return None
            if len(encoded) > MAX_QUERY_BYTES:
                self._reject(reply, 413)
                return None
            try:
                return b64url_decode(encoded)
            except EncodingError:
                self._reject(reply, 400)
                return None
        if request.method == "POST":
            if request.header("content-type") != DNS_MESSAGE_TYPE:
                self._reject(reply, 415)
                return None
            if len(request.body) > MAX_QUERY_BYTES:
                self._reject(reply, 413)
                return None
            return request.body
        self._reject(reply, 405)
        return None

    def _reject(self, reply: Callable[[bytes], None], status: int) -> None:
        reply(HttpResponse(status=status).encode())
