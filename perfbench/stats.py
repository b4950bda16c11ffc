"""Statistics for repeated benchmark runs: summaries and ABBA pairing.

Every figure the benchmark records is a median with its spread. The
spread is the distance between the first and third quartiles as Python's
``statistics.quantiles(values, n=4)`` gives them, as a share of the
median.
"""

import statistics


def summarize(values):
    """Median, quartiles, IQR (absolute and as a share of the median),
    min, max and sample count of a list of numbers."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "iqr_share": (q3 - q1) / abs(med) if med else None,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def abba(pairs):
    """Run order for `pairs` A/B pairs: A B, B A, A B, ... so that drift
    in the machine's speed hits both lanes alike."""
    return [("A", "B") if i % 2 == 0 else ("B", "A") for i in range(pairs)]


def wins(a_values, b_values, better):
    """Pairs where lane B beat lane A (ties count for neither), and the
    number of pairs. The lists are paired by index and must be equally
    long. `better` is "lower" or "higher"."""
    if len(a_values) != len(b_values):
        raise ValueError("A and B must hold one value per pair")
    won = 0
    for a, b in zip(a_values, b_values):
        if b != a and (b < a) == (better == "lower"):
            won += 1
    return won, len(a_values)
