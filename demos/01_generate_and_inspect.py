#!/usr/bin/env python3
"""Generate a synthetic colocated-VM corpus and look inside it.

Five applications run inside concurrently scheduled VMs.  Each scheduling
round rolls a random operation mode per VM (idle, or one of the five apps),
so every session records both its own activity and the resource pressure of
its co-residents.
"""

from vmsight import ScenarioConfig, default_templates, generate, save_corpus

templates = default_templates()
cfg = ScenarioConfig(session_duration_s=120.0, rng_seed=7)

print("operation modes:")
for mode, action in enumerate(["idle", *sorted(templates)]):
    print(f"  mode {mode}: {action}")

corpus = generate(cfg, templates, 60)
print(f"\ngenerated {len(corpus)} sessions")

by_app = {}
for record in corpus:
    by_app.setdefault(record.app_label, []).append(record)

print(f"\n{'app':<18} {'n':>3} {'interference':>16} {'performance':>22}")
for app in sorted(by_app):
    sessions = by_app[app]
    levels = [r.interference_level for r in sessions]
    perfs = [r.performance for r in sessions]
    print(
        f"{app:<18} {len(sessions):>3} "
        f"{min(levels):>7.2f}..{max(levels):<7.2f} "
        f"{min(perfs):>10.1f}..{max(perfs):<10.1f}"
    )

# a quick look at one CPU trace: ASCII strip chart
record = by_app["data_serving"][0]
trace = record.trace("cpu_util_pct").samples
print(f"\nCPU trace of {record.session_id} (data_serving), first 60 samples:")
for i in range(0, 60, 3):
    level = trace[i]
    print(f"  t={i:>3}s {level:>6.1f}% |" + "#" * int(level / 4))

save_corpus(corpus, "vmsight_demo_corpus.jsonl")
print("\nsaved to vmsight_demo_corpus.jsonl in the working directory")
