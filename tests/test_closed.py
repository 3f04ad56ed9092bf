"""The closed forms of ``grassver.closed`` against one another.

No enumeration: the orbit sizes and the three graph tables must satisfy
identities among themselves, in exact integers, across the paper's
range n > 2k >= 6, 1 < i < k.
"""

import ast
from pathlib import Path

import pytest

from grassver import closed
from grassver.closed import ENTRY_PRODUCTS, ORBIT_ORDER
from grassver.geometry import GeometryContext
from grassver.gf import qint

# prime powers too: the forms are integer functions of q
FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9)


def graph_instances():
    """(q, n, k, i) with q in FIELD_ORDERS, 7 <= n <= 20, n > 2k >= 6
    and 1 < i < k."""
    return [(q, n, k, i) for q in FIELD_ORDERS for n in range(7, 21)
            for k in range(3, (n + 1) // 2) for i in range(2, k)]


def _annihilates(matrix, roots) -> bool:
    """Whether the product of (matrix - θ I) over the roots θ is 0."""
    size = len(matrix)
    prod = [[int(r == c) for c in range(size)] for r in range(size)]
    for theta in roots:
        shifted = [[matrix[r][c] - theta * (r == c) for c in range(size)]
                   for r in range(size)]
        prod = [[sum(prod[r][t] * shifted[t][c] for t in range(size))
                 for c in range(size)] for r in range(size)]
    return not any(map(any, prod))


def identity_failures(q, n, k, i) -> list[str]:
    """The names of the identities among the closed forms that fail at
    (q, n, k, i)."""
    sizes = closed.orbit_sizes(q, n, k, i)
    table = closed.structure_constants(q, n, k, i)
    types = closed.edge_type_table(q, n, k, i)
    entries = closed.entry_table(q, n, k, i)
    bk, bnk = qint(k, q), qint(n - k, q)
    failed = []
    if sum(sizes.values()) != q * bk * bnk:
        failed.append("orbit sizes sum to q[k][n-k]")
    degree = q * (bk + bnk - 1) - 1
    if any(sum(table[o, nn] for nn in ORBIT_ORDER) != degree
           for o in ORBIT_ORDER):
        failed.append("rows sum to q([k]+[n-k]-1)-1")
    cells = [(o, nn) for o in ORBIT_ORDER for nn in ORBIT_ORDER]
    if any(sizes[o] * table[o, nn] != sizes[nn] * table[nn, o]
           for o, nn in cells):
        failed.append("|O| a(O,N) = |N| a(N,O)")
    if any(sizes[o] * types[o, nn][t] != sizes[nn] * types[nn, o][t]
           for o, nn in cells for t in range(3)):
        failed.append("|O| a(O,N) = |N| a(N,O) per edge type")
    roots = (degree, q * (bk - 1) - 1, q * (bnk - 1) - 1, -q - 1, -1)
    matrix = [[table[o, nn] for nn in ORBIT_ORDER] for o in ORBIT_ORDER]
    if not _annihilates(matrix, roots):
        failed.append("the product of (M - θ) is 0")
    # the entry of F_a F_b at an A-class is the type-a count into A_b
    if any(entries[a, b][t] != types[o, "A" + b[1]]["0+-".index(a[1])]
           for a, b in ENTRY_PRODUCTS
           for t, o in enumerate(("A0", "A+", "A-"))):
        failed.append("the entry table re-indexes the edge-type table")
    return failed


def test_the_closed_tables_satisfy_their_identities():
    instances = graph_instances()
    assert len(instances) == 1176
    failures = {inst: identity_failures(*inst) for inst in instances}
    assert {inst: f for inst, f in failures.items() if f} == {}


def test_a_patched_cell_breaks_the_identities(monkeypatch):
    # the identities can fail: one more C -> A0 neighbour breaks the row
    # sum, the handshake and the spectrum at every instance
    table = closed.structure_constants

    def patched(*args):
        cells = table(*args)
        cells["C", "A0"] += 1
        return cells

    monkeypatch.setattr(closed, "structure_constants", patched)
    for inst in graph_instances():
        assert identity_failures(*inst) == [
            "rows sum to q([k]+[n-k]-1)-1", "|O| a(O,N) = |N| a(N,O)",
            "the product of (M - θ) is 0"], inst


@pytest.mark.parametrize("q,n,k,i", [(2, 5, 3, 3), (2, 7, 3, 4),
                                     (2, 7, 3, -1)])
def test_intersection_numbers_refuse_a_distance_off_the_graph(q, n, k, i):
    # the distances of J_q(n,k) are 0..min(k, n-k), the one rule that
    # first_at_distance shares; past the top, [k-i] or [n-k-i] has a
    # negative m
    top = min(k, n - k)
    message = f"need a distance 0 <= i <= min(k, n-k) = {top}, got i={i}"
    for refuse in (lambda: closed.intersection_numbers(q, n, k, i),
                   lambda: GeometryContext(q, n, k, dims=()
                                           ).first_at_distance(i)):
        with pytest.raises(ValueError) as err:
            refuse()
        assert str(err.value) == message
    # at the diameter itself nothing lies further: b vanishes
    assert closed.intersection_numbers(q, n, k, top) == (0, qint(top, q)**2)


def test_no_module_but_closed_calls_qint():
    # every closed form is written in closed: no other module of the
    # package calls the q-integer (gf, which defines it, calls it nowhere)
    def qint_calls(src):
        return [node for node in ast.walk(ast.parse(
                    src.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call) and "qint" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None))]

    for src in Path(closed.__file__).parent.glob("*.py"):
        if src.name == "closed.py":
            # the check finds what it looks for
            assert qint_calls(src), src.name
        else:
            assert qint_calls(src) == [], src.name
