"""The paper's closed forms, each a function of integers only.

Each takes (q, n, k), then i or a stratum (i, j) where it needs one
(``letter_degree``, a bound of the lattice alone, takes (q, n)), and
reads [m] as ``gf.qint(m, q)``; nothing here enumerates.  The ranges
claimed: the stratum sizes and cover counts relative to a k-space y at
every stratum (i, j) with i <= k and j <= n-k; the intersection numbers
of J_q(n,k) at 0 <= i <= min(k, n-k); and the orbit sizes of Γ(x) and
its structure-constant, edge-type and entry tables, for x at distance i
from y, at n > 2k >= 6 and 1 < i < k (``check_graph_range``).
"""

from .gf import gaussian_binomial, qint

# the five classes of Γ(x), by the names the reports print
ORBIT_ORDER = ("B", "C", "A0", "A+", "A-")

# the nine products F_a F_b of the entry table, in report order
ENTRY_PRODUCTS = tuple((a, b) for a in ("F0", "F+", "F-")
                       for b in ("F0", "F+", "F-"))


def stratum_size(q, n, k, i, j) -> int:
    """|P_{i,j}|, the number of subspaces u with dim(u∩y) = i and
    dim(u) = i + j."""
    return (gaussian_binomial(k, i, q) * gaussian_binomial(n - k, j, q)
            * q ** ((k - i) * j))


def cover_counts(q, n, k, i, j) -> tuple[int, int, int, int]:
    """The covers of a u in stratum (i, j): (slash below, backslash
    below, slash above, backslash above)."""
    return (q**j * qint(i, q), qint(j, q), qint(k - i, q),
            q ** (k - i) * qint(n - k - j, q))


def letter_degree(q, n) -> int:
    """D: no letter's column, and no letter's row, has more than D
    entries, so a word of length l has at most D^l paths between two
    subspaces.  A d-space has [d] covers below, [n-d] above and
    q[d][n-d] neighbours of its own dimension."""
    return max(max(qint(d, q), qint(n - d, q),
                   q * qint(d, q) * qint(n - d, q)) for d in range(n + 1))


def check_graph_range(n, k, i=None) -> None:
    """Refuse (n, k), and then i when given, outside the range that the
    orbit sizes and the three tables are claimed on."""
    if not n > 2 * k >= 6:
        raise ValueError(f"need n > 2k >= 6, got n={n}, k={k}")
    if i is not None and not 1 < i < k:
        raise ValueError(f"need 1 < i < k, got i={i}, k={k}")


def intersection_numbers(q, n, k, i) -> tuple[int, int]:
    """(b_i, c_i) of J_q(n,k), at every distance i of the graph."""
    if not 0 <= i <= min(k, n - k):
        raise ValueError(f"distance {i} outside [0, min(k, n-k)] = "
                         f"[0, {min(k, n - k)}]")
    return (q ** (2 * i + 1) * qint(k - i, q) * qint(n - k - i, q),
            qint(i, q) ** 2)


def _graph_terms(q, n, k, i):
    # [i], q^(i+1)[n-k-i] and q^(i+1)[k-i]: the terms the graph forms share
    return (qint(i, q), q ** (i + 1) * qint(n - k - i, q),
            q ** (i + 1) * qint(k - i, q))


def orbit_sizes(q, n, k, i) -> dict[str, int]:
    """The sizes of the five classes of Γ(x), by class."""
    b, c = intersection_numbers(q, n, k, i)
    a, up, down = _graph_terms(q, n, k, i)
    return {"B": b, "C": c, "A0": (q - 1) * a * a, "A+": a * up,
            "A-": a * down}


def structure_constants(q, n, k, i) -> dict:
    """(O, N) -> #{z in N adjacent to a vertex of O}."""
    a, up, down = _graph_terms(q, n, k, i)
    rows = {
        "B": (up + down - q - 1, 0, 0, q * a, q * a),
        "C": (0, 2 * q * qint(i - 1, q), 2 * q**i - q - 1, up, down),
        "A0": (0, 2 * a - 1, 2 * q**i - q - 2, up, down),
        "A+": (down, a, (q - 1) * a, q * qint(n - k, q) - q - 1, 0),
        "A-": (up, a, (q - 1) * a, 0, q * qint(k, q) - q - 1),
    }
    return {(o, nn): rows[o][t] for o in ORBIT_ORDER
            for t, nn in enumerate(ORBIT_ORDER)}


def edge_type_table(q, n, k, i) -> dict:
    """(O, N) -> (type-0, type-+, type--) counts per source vertex."""
    a, up, down = _graph_terms(q, n, k, i)
    g = (q - 1) * a
    table = {(o, nn): (0, 0, 0) for o in ORBIT_ORDER for nn in ORBIT_ORDER}
    table["B", "B"] = (2 * q ** (i + 1) - q - 1,
                       q ** (i + 2) * qint(n - k - i - 1, q),
                       q ** (i + 2) * qint(k - i - 1, q))
    table["C", "C"] = (0, q * qint(i - 1, q), q * qint(i - 1, q))
    table["A0", "A0"] = (2 * q**i - q - 2, 0, 0)
    table["A0", "A+"] = (0, up, 0)
    table["A0", "A-"] = (0, 0, down)
    table["A+", "A0"] = (0, g, 0)
    table["A+", "A+"] = (g, q * qint(n - k, q) - q**i - q, 0)
    table["A-", "A0"] = (0, 0, g)
    table["A-", "A-"] = (g, 0, q * qint(k, q) - q**i - q)
    return table


def entry_table(q, n, k, i) -> dict:
    """(F_a, F_b) -> the (w,x)-entry of F_a F_b at w in A0, A+, A-."""
    a, up, down = _graph_terms(q, n, k, i)
    g = (q - 1) * a
    table = dict.fromkeys(ENTRY_PRODUCTS, (0, 0, 0))
    table["F0", "F0"] = (2 * q**i - q - 2, 0, 0)
    table["F0", "F+"] = table["F+", "F0"] = (0, g, 0)
    table["F0", "F-"] = table["F-", "F0"] = (0, 0, g)
    table["F+", "F+"] = (up, q * qint(n - k, q) - q**i - q, 0)
    table["F-", "F-"] = (down, 0, q * qint(k, q) - q**i - q)
    return table
