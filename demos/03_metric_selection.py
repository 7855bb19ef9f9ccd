#!/usr/bin/env python3
"""Rank hardware metrics by how well they track performance and workload.

Not every counter carries signal: the selection stage correlates each
metric's per-session summary with the prediction target and keeps the
strongly correlated ones as regression inputs.
"""

from vmsight import Purpose, ScenarioConfig, default_templates, generate, rank_metrics
from vmsight.select import render_report

templates = default_templates()
corpus = generate(ScenarioConfig(session_duration_s=120.0, rng_seed=5), templates, 400)

for app in ("web_serving", "kv_store"):
    print(f"=== {app}: performance target ===")
    report = rank_metrics(corpus, app, Purpose.PERFORMANCE, threshold=0.3)
    print(render_report(report))
    print(f"selected inputs: {[k.name for k in report.selected]}\n")

print("=== web_serving: workload target ===")
report = rank_metrics(corpus, "web_serving", Purpose.WORKLOAD, threshold=0.3)
print(render_report(report))
print(f"selected inputs: {[k.name for k in report.selected]}")
