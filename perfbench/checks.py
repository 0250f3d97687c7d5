"""Output checks, run outside the timed interval.

`verify` reports are accepted when the JSON says `"status": "pass"`.  A
`gb --graph` basis is checked by code that shares nothing with the walk
search or Buchberger: every binomial must lie in I_G (both sides have the
same vertex image), the basis must be reduced under declaration-order
grevlex, and the Hilbert function of R/in(basis) must equal the program's
`hilbert_enumeration_oracle` in every degree up to |E|.  Every primitive
binomial has degree at most |E|, so in(I_G) is generated in degrees <= |E|;
since in(basis) is contained in in(I_G), agreement up to |E| proves that
in(basis) = in(I_G), i.e. that the basis is the reduced Groebner basis.
"""

from __future__ import annotations

import json


def check_verify(stdout: str) -> str | None:
    """None if a `verify --json` report passed, else the reason it did not."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return "verify output is not JSON"
    if report.get("status") != "pass":
        return f"verify status is {report.get('status')!r}"
    return None


def parse_monomial(text: str, index: dict[str, int]) -> tuple[int, ...]:
    """Exponent vector of a product such as `e1*e3^2` over the named variables."""
    exps = [0] * len(index)
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        exps[index[name]] += int(power) if power else 1
    return tuple(exps)


def grevlex_greater(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """u > v in grevlex with the variables' declaration order as priority."""
    if sum(u) != sum(v):
        return sum(u) > sum(v)
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return a < b
    return False


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def standard_monomial_counts(leads, nvars: int, max_deg: int) -> list[int]:
    """Number of monomials of each degree 0..max_deg that no lead divides.

    Standard monomials are closed under division, so each one of degree
    k+1 is a standard monomial of degree k times a variable at or after its
    last variable; only leads that use that variable can newly divide it.
    """
    by_var = [[m for m in leads if m[i]] for i in range(nvars)]
    level = [((0,) * nvars, 0)]
    counts = [1]
    for _ in range(max_deg):
        nxt = []
        for exps, last in level:
            for i in range(last, nvars):
                m = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                if not any(_divides(lead, m) for lead in by_var[i]):
                    nxt.append((m, i))
        level = nxt
        counts.append(len(level))
    return counts


def check_basis(graph_doc: dict, basis: list[str], hilbert_oracle) -> str | None:
    """None if `basis` is the reduced Groebner basis of I_G, else the reason.

    `graph_doc` is the JSON graph; `hilbert_oracle(max_deg)` returns the
    dimensions of the edge subring in degrees 0..max_deg.
    """
    names = [e["name"] for e in graph_doc["edges"]]
    index = {n: i for i, n in enumerate(names)}
    vindex = {v: i for i, v in enumerate(graph_doc["vertices"])}
    ends = [[vindex[v] for v in e["ends"]] for e in graph_doc["edges"]]

    def image(exps):
        img = [0] * len(vindex)
        for var, e in enumerate(exps):
            for v in ends[var]:
                img[v] += e
        return img

    pairs = []
    for text in basis:
        lhs, sep, rhs = text.partition(" - ")
        if not sep:
            return f"{text!r} is not a binomial"
        u, v = parse_monomial(lhs, index), parse_monomial(rhs, index)
        if image(u) != image(v):
            return f"{text!r} is not in the toric ideal: its sides have different vertex images"
        if not grevlex_greater(u, v):
            return f"{text!r} does not list its leading term first"
        pairs.append((u, v))
    for i, (lead, _) in enumerate(pairs):
        for j, (u, v) in enumerate(pairs):
            if i != j and (_divides(lead, u) or _divides(lead, v)):
                return f"basis is not reduced: the leading term of {basis[i]!r} divides a term of {basis[j]!r}"
    q = len(names)
    got = standard_monomial_counts([u for u, _ in pairs], q, q)
    want = list(hilbert_oracle(q))
    if got != want:
        return f"Hilbert function of R/in(basis) is {got}, the edge subring's is {want}"
    return None


def make_gb_check(graph_text: str):
    """Checker for the `gb --graph FILE --json` output on the graph in graph_text."""
    # Imported here, not at the top: the benchmark imports toricgraphs afresh
    # during each set-up, and must stay importable where src/ is missing.
    from toricgraphs.graphs import parse_graph
    from toricgraphs.invariants import hilbert_enumeration_oracle

    graph_doc = json.loads(graph_text)

    def hilbert_oracle(max_deg):
        return hilbert_enumeration_oracle(parse_graph(graph_text), max_deg)

    def check(stdout: str) -> str | None:
        try:
            basis = json.loads(stdout)["basis"]
        except (ValueError, KeyError, TypeError):
            return "gb output is not a JSON object with a basis"
        return check_basis(graph_doc, basis, hilbert_oracle)

    return check
