"""graph6 and plain edge-list serialization.

graph6 is a vertex-count header followed by `graphs.to_mask` in six-bit
groups, zero-padded at the end, one printable byte (offset 63) per group.
The edge-list format is a vertex count line followed by one "u v" line per
edge, 0-based.  Both round-trip bit-exactly.
"""

from __future__ import annotations

from .graphs import Graph, _check_order, from_edges, from_mask, to_mask


def graph6_encode(g: Graph) -> str:
    n = g.n
    _check_order(n)
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    bits = format(to_mask(g) << pad, f"0{nbits + pad}b")
    body = [int(bits[k : k + 6], 2) + 63 for k in range(0, nbits + pad, 6)]
    return bytes(head + body).decode("ascii")


def graph6_decode(text: str) -> Graph:
    raw = text.strip()
    if not raw:
        raise ValueError("empty graph6 string")
    data = raw.encode("ascii", errors="strict")
    for byte in data:
        if not 63 <= byte <= 126:
            raise ValueError(f"byte {byte} outside the graph6 alphabet")
    if data[0] == 126:
        if len(data) < 4:
            raise ValueError("truncated graph6 header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    _check_order(n)
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(f"graph6 body length {len(body)} wrong for n={n}")
    mask = int("0" + "".join(format(byte - 63, "06b") for byte in body), 2)
    pad = 6 * len(body) - nbits
    if mask & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 body")
    return from_mask(n, mask >> pad)


def edge_list_encode(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def edge_list_decode(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the vertex count, got {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'u v', got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edges(n, edges)


def parse_graph_text(text: str) -> Graph:
    """Sniff the format: a leading integer line means edge list, else graph6.

    Unambiguous because ASCII digits sit below the graph6 alphabet.
    """
    stripped = text.strip()
    first = stripped.splitlines()[0].strip() if stripped else ""
    if first.isdigit():
        return edge_list_decode(text)
    return graph6_decode(stripped)
