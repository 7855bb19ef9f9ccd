"""Independent reference implementations used to check the library.

These deliberately avoid the library's algorithms: the warping oracles
enumerate every monotone path through the cost grid or fill the whole cost
matrix and walk it back, and the correlation oracle is a straight-sum
two-pass loop.  The ablation oracle is the plain per-count loop: a fresh
database and a full identification for every reference count.  The JSONL
oracle builds the record's whole object and hands it to json.dumps, with
each float rounded by the scalar quantize.  The prediction baseline is
ordinary least squares on every metric's mean.  ``DRIVERS`` is the ground
truth of the bundled templates: the metrics whose generator gains carry each
target.  Keep them simple and slow.
"""

import json
import math

import numpy as np

from vmsight.identify import build_fingerprint_db, identify
from vmsight.tracemodel import DISK_READS, NET_RX, STANDARD_METRICS, metric_by_name, quantize

# per bundled template, the metrics that causally carry its performance and,
# for a variable-workload app, its workload level
DRIVERS = {
    "data_serving": {"performance": {DISK_READS}, "workload": {NET_RX}},
    "web_serving": {"performance": {NET_RX}, "workload": {NET_RX}},
    "media_streaming": {"performance": {DISK_READS}, "workload": set()},
    "inmem_analytics": {"performance": {DISK_READS}, "workload": set()},
    "kv_store": {"performance": {DISK_READS}, "workload": set()},
}


def brute_force_dtw_cost(p, q):
    """Minimum accumulated |p_i - q_j| over all monotone paths.

    Recursively explores every path from (0, 0) to (M-1, N-1) with steps
    (1,0), (0,1), (1,1).  Exponential; only for short traces.
    """
    m, n = len(p), len(q)
    best = [math.inf]

    def walk(i, j, acc):
        acc += abs(p[i] - q[j])
        if acc >= best[0]:
            return
        if i == m - 1 and j == n - 1:
            best[0] = acc
            return
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, acc)
        if i + 1 < m:
            walk(i + 1, j, acc)
        if j + 1 < n:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def enumerate_paths(m, n):
    """Yield every monotone path from (0,0) to (m-1,n-1)."""

    def extend(path):
        i, j = path[-1]
        if i == m - 1 and j == n - 1:
            yield list(path)
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < m and nj < n:
                path.append((ni, nj))
                yield from extend(path)
                path.pop()

    yield from extend([(0, 0)])


def brute_force_min_warped_sq(p, q):
    """Smallest sum of squared differences over all MIN-COST (L1) paths."""
    best_cost = brute_force_dtw_cost(p, q)
    best_sq = math.inf
    for path in enumerate_paths(len(p), len(q)):
        cost = sum(abs(p[i] - q[j]) for i, j in path)
        if abs(cost - best_cost) < 1e-9:
            sq = sum((p[i] - q[j]) ** 2 for i, j in path)
            best_sq = min(best_sq, sq)
    return best_sq


def traceback_dtw(p, q):
    """Full-matrix DTW: (L1 cost, Euclidean distance along the traceback path).

    Fills the whole accumulated-cost matrix, then walks back from the last
    cell to (0, 0), preferring on ties the diagonal, then the step back in p,
    then the step back in q.
    """
    m, n = len(p), len(q)
    d = [[math.inf] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if i == j == 0:
                d[i][j] = abs(p[0] - q[0])
                continue
            prev = min(
                d[i - 1][j - 1] if i and j else math.inf,
                d[i - 1][j] if i else math.inf,
                d[i][j - 1] if j else math.inf,
            )
            d[i][j] = abs(p[i] - q[j]) + prev
    i, j = m - 1, n - 1
    sq = (p[i] - q[j]) ** 2
    while i or j:
        moves = [(a, b) for a, b in ((i - 1, j - 1), (i - 1, j), (i, j - 1)) if a >= 0 and b >= 0]
        i, j = min(moves, key=lambda ab: d[ab[0]][ab[1]])  # first minimum wins ties
        sq += (p[i] - q[j]) ** 2
    return d[m - 1][n - 1], math.sqrt(sq)


def two_pass_pearson(a, b):
    """Straight-sum Pearson with population standard deviations."""
    k = len(a)
    mu_a = sum(a) / k
    mu_b = sum(b) / k
    var_a = sum((x - mu_a) ** 2 for x in a) / k
    var_b = sum((x - mu_b) ** 2 for x in b) / k
    sd_a = math.sqrt(var_a)
    sd_b = math.sqrt(var_b)
    acc = 0.0
    for x, y in zip(a, b):
        acc += ((x - mu_a) / sd_a) * ((y - mu_b) / sd_b)
    return acc / k


def ablation_per_count(corpus, counts, metrics=("cpu_util_pct",)):
    """Accuracy per count and alignment, held out as run_ablation_dtw does,
    identifying every held-out session against each count's own database."""
    kinds = [metric_by_name(n) for n in metrics]
    labeled = [r for r in corpus if r.app_label is not None]
    counts = sorted(set(counts))
    reserved = set(build_fingerprint_db(labeled, kinds, counts[-1]).source_session_ids)
    held = [r for r in labeled if r.session_id not in reserved]
    acc = {"dtw": [], "truncate": []}
    for count in counts:
        db = build_fingerprint_db(labeled, kinds, count)
        for align in acc:
            correct = sum(identify(r.traces, db, align=align).label == r.app_label for r in held)
            acc[align].append(correct / len(held))
    return acc


def jsonl_line(record):
    """The JSONL line for ``record``: one dict, key-sorted by json.dumps.
    Missing optional fields serialize as explicit nulls, never omitted keys."""
    levels = ("workload_level", "performance", "interference_level")
    obj = {
        "session_id": record.session_id,
        "period_s": quantize(record.period_s),
        "app_label": record.app_label,
        **{k: None if getattr(record, k) is None else quantize(getattr(record, k)) for k in levels},
        "traces": {
            kind.name: [quantize(v) for v in trace.samples]
            for kind, trace in sorted(record.traces.items(), key=lambda kv: kv[0].name)
        },
    }
    return json.dumps(obj, sort_keys=True)


def least_squares_max_error_pct(records, fit_ids, test_ids):
    """The worst relative error (%) over ``test_ids`` of a least-squares fit of
    performance on all standard metrics' trace means plus an intercept, fit
    on ``fit_ids``: the linear baseline a prediction net is held against."""
    by_id = {r.session_id: r for r in records}

    def design(ids):
        rows = [by_id[i] for i in ids]
        x = [[np.mean(r.traces[k].samples) for k in STANDARD_METRICS.values()] for r in rows]
        return np.column_stack([x, np.ones(len(rows))]), np.array([r.performance for r in rows])

    coef = np.linalg.lstsq(*design(fit_ids), rcond=None)[0]
    x, y = design(test_ids)
    return float(np.max(np.abs(x @ coef - y) / np.abs(y)) * 100.0)
