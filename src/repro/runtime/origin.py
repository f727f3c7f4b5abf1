"""Web origins and the same-origin policy.

Several Table I CVEs are same-origin-policy bypasses or cross-origin
information leaks, so the runtime needs a real (if small) origin model:
scheme + host + port, URL resolution, and the SOP check that the network
stack and XHR consult.
"""

from __future__ import annotations

from typing import Optional


class Origin:
    """An origin: scheme://host:port."""

    __slots__ = ("scheme", "host", "port", "_serialized")

    def __init__(self, scheme: str, host: str, port: Optional[int] = None):
        self.scheme = scheme
        self.host = host
        self.port = port if port is not None else default_port(scheme)
        # origins are immutable; every window.postMessage serialises one
        if self.port == default_port(scheme):
            self._serialized = f"{scheme}://{host}"
        else:
            self._serialized = f"{scheme}://{host}:{self.port}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Origin)
            and self.scheme == other.scheme
            and self.host == other.host
            and self.port == other.port
        )

    def __hash__(self) -> int:
        return hash((self.scheme, self.host, self.port))

    def __repr__(self) -> str:
        return f"Origin({self.serialize()!r})"

    def serialize(self) -> str:
        """Serialise as ``scheme://host[:port]`` (default ports omitted)."""
        return self._serialized


def default_port(scheme: str) -> int:
    """Default port for a scheme (https→443, http→80, else 0)."""
    return {"https": 443, "http": 80}.get(scheme, 0)


def parse_url(url: str, base: Optional["URL"] = None) -> "URL":
    """Parse an absolute or relative URL (subset sufficient for the sim)."""
    if "://" in url:
        scheme, rest = url.split("://", 1)
        if "/" in rest:
            netloc, path = rest.split("/", 1)
            path = "/" + path
        else:
            netloc, path = rest, "/"
        if ":" in netloc:
            host, port_s = netloc.split(":", 1)
            port = int(port_s)
        else:
            host, port = netloc, None
        return URL(Origin(scheme, host, port), path)
    if base is None:
        raise ValueError(f"relative URL {url!r} without a base")
    if url.startswith("/"):
        return URL(base.origin, url)
    # resolve relative to the base path's directory
    directory = base.path.rsplit("/", 1)[0]
    return URL(base.origin, f"{directory}/{url}")


class URL:
    """A parsed URL: origin + path."""

    __slots__ = ("origin", "path")

    def __init__(self, origin: Origin, path: str = "/"):
        self.origin = origin
        self.path = path

    def __eq__(self, other: object) -> bool:
        return isinstance(other, URL) and self.origin == other.origin and self.path == other.path

    def __hash__(self) -> int:
        return hash((self.origin, self.path))

    def __repr__(self) -> str:
        return f"URL({self.serialize()!r})"

    def serialize(self) -> str:
        """Full URL string."""
        return f"{self.origin.serialize()}{self.path}"


def same_origin(a: Origin, b: Origin) -> bool:
    """The same-origin policy check."""
    return a == b
