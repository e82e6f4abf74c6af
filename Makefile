# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-full chaos chaos-service chaos-service-smoke chaos-sharded chaos-sharded-smoke chaos-net chaos-net-smoke perf-smoke mcheck mcheck-tier1 mcheck-dpor-tier1 fuzz fuzz-smoke repro-smoke analyze examples clean loc

all: build test

build:
	dune build @all

test:
	dune runtest

# Regenerate every table and figure (quick scale, ~1 minute).  Also
# writes the machine-readable baseline results/bench.json (tables as
# data + Bechamel micro-benchmarks + telemetry overhead bound; schema
# renaming.bench/1, see docs/observability.md).
bench:
	dune exec bench/main.exe

# The EXPERIMENTS.md configuration (~15 minutes); JSON lands in
# results/full_scale.json.
bench-full:
	RENAMING_SCALE=full dune exec bench/main.exe

# Deterministic fault-injection campaign: every algorithm under crash,
# crash-recovery and transient faults, every run checked by the safety
# monitor (executor discipline) and the centralized spec it carries
# (name uniqueness, range and ownership).  Exits nonzero on any safety
# violation or livelock; JSON lands in results/chaos.json.
chaos:
	dune exec bin/main.exe -- chaos

# The service chaos campaign: one churn driver (Net_churn) under one of
# three presets, with a fresh refinement checker (the centralized spec)
# on every run.  Every preset exits nonzero on any audit, cross-shard or
# refinement violation, livelock, wrongly fenced live lease, successful
# ghost operation or double grant, and on any coverage floor the preset
# declares; JSON lands in results/chaos-<preset>.json.
#
# service: the lease service alone (the smallest router, a perfect
# network, no node faults) — crash-restart clients, reclamation,
# admission control, >= 10^6 sessions over four regimes; the floors are
# reclaims, sheds and every stale op rejected.
chaos-service:
	dune exec bin/main.exe -- chaos --backend service

# Reduced-run CI configuration of the same campaign (~10^5 sessions).
chaos-service-smoke:
	dune exec bin/main.exe -- chaos --backend service --sessions 12500 --seeds 2 --out results/chaos-service-smoke.json

# sharded: the sharded router on a perfect network — Zipf-skewed
# rebalancing, silent shard crashes, forced handoffs crashed
# mid-transit and stall routing; the floors are handoffs, mid-transit
# crashes, adoptions and shard crashes.
chaos-sharded:
	dune exec bin/main.exe -- chaos --backend sharded

# Reduced-run CI configuration of the same campaign.
chaos-sharded-smoke:
	dune exec bin/main.exe -- chaos --backend sharded --sessions 15000 --seeds 2 --out results/chaos-sharded-smoke.json

# net: the same router over the unreliable transport (drops, duplicates,
# reordering, bounded delay, directional partitions) with per-slice
# at-most-once dedup, client timeout/retry and heartbeat failure
# detection; the floors are the 15 fault channels.
chaos-net:
	dune exec bin/main.exe -- chaos --backend net

# CI-sized slice of the same campaign (all four cells, fewer sessions).
chaos-net-smoke:
	dune exec bin/main.exe -- chaos --backend net --sessions 2000 --seeds 2 --out results/chaos-net-smoke.json

# The deterministic allocation and structure gates: one 5-second run of
# each benchmark workload (seed 1), each failing unless the run is
# correct and within its bounds.  Allocated words per operation repeat
# exactly for a seed, so unlike wall-clock throughput the bounds hold
# on any machine.
#   net-faulty:       at most 3000 words per session.
#   lease-saturated:  at most 439 words per session (418.2 measured,
#                     plus 5%): the saturated lease path, where most
#                     pumps find nothing to do and must allocate nothing.
#   oneshot-adaptive: at most 274 words per name (261.1 measured,
#                     plus 5%): continuation-style process steps, a
#                     device cycle that reuses its buffers and a stream
#                     fork that allocates only its state; and steps_max
#                     (the paper's step complexity over the pinned
#                     episodes, read from the figures line) exactly
#                     86.  That is
#                     Tight's n=256 maximum, which is structurally fixed
#                     while every block is saturated (the same for every
#                     seed and adversary, see the ROADMAP probe table),
#                     so it guards Tight's structure; it does not pin
#                     the adaptive adversary's schedule.
PERF_SMOKE_MAX_WORDS = 3000
PERF_SMOKE_LEASE_MAX_WORDS = 439
PERF_SMOKE_ONESHOT_MAX_WORDS = 274
PERF_SMOKE_ONESHOT_STEPS_MAX = 86

perf-smoke:
	python3 perfbench/run.py --workload net-faulty --seed 1 --seconds 5 --trace 0 \
	  | python3 -c 'import json, sys; \
	    r = json.loads(sys.stdin.read().strip().splitlines()[-1]); \
	    w = r["metrics"]["alloc_words_per_op"]["value"]; \
	    print("perf-smoke net-faulty: correct=%s alloc_words_per_op=%.1f (bound %d)" % (r["correct"], w, $(PERF_SMOKE_MAX_WORDS))); \
	    sys.exit(0 if r["correct"] and w <= $(PERF_SMOKE_MAX_WORDS) else 1)'
	python3 perfbench/run.py --workload lease-saturated --seed 1 --seconds 5 --trace 0 \
	  | python3 -c 'import json, sys; \
	    r = json.loads(sys.stdin.read().strip().splitlines()[-1]); \
	    w = r["metrics"]["alloc_words_per_op"]["value"]; \
	    print("perf-smoke lease-saturated: correct=%s alloc_words_per_op=%.1f (bound %d)" % (r["correct"], w, $(PERF_SMOKE_LEASE_MAX_WORDS))); \
	    sys.exit(0 if r["correct"] and w <= $(PERF_SMOKE_LEASE_MAX_WORDS) else 1)'
	python3 perfbench/run.py --workload oneshot-adaptive --seed 1 --seconds 5 --trace 0 \
	  | python3 -c 'import json, sys; \
	    lines = sys.stdin.read().strip().splitlines(); \
	    r = json.loads(lines[-1]); \
	    f = [json.loads(l) for l in lines if l.startswith("{\"workload_figures\"")][0]["workload_figures"]; \
	    w = r["metrics"]["alloc_words_per_op"]["value"]; \
	    s = f["steps_max"]["value"]; \
	    print("perf-smoke oneshot-adaptive: correct=%s alloc_words_per_op=%.1f (bound %d) steps_max=%d (pinned %d)" % (r["correct"], w, $(PERF_SMOKE_ONESHOT_MAX_WORDS), s, $(PERF_SMOKE_ONESHOT_STEPS_MAX))); \
	    sys.exit(0 if r["correct"] and w <= $(PERF_SMOKE_ONESHOT_MAX_WORDS) and s == $(PERF_SMOKE_ONESHOT_STEPS_MAX) else 1)'

# Bounded model checking: exhaustively explore every schedule of the
# small roster instances with source-DPOR (wakeup trees over the audited
# independence relation, preemption-bounded) and the safety monitor plus
# the centralized spec on every interleaving.  Violations are
# auto-shrunk to minimal repros under results/repros/mcheck/; exits
# nonzero on any violation; JSON lands in
# results/mcheck.json (schema renaming.mcheck/2).  `--legacy-dfs`
# switches back to the pre-DPOR sleep-set engine for differential runs.
mcheck:
	dune exec bin/main.exe -- mcheck

# The fast subset that also runs inside `dune runtest`.  Both tier-1
# targets write results/mcheck-tier1.json (gitignored), so they never
# overwrite the committed full-roster results/mcheck.json.
mcheck-tier1:
	dune exec bin/main.exe -- mcheck --tier1 --out results/mcheck-tier1.json

# The CI step: the enlarged tier-1 roster (n4 handoff entries plus
# shard-handoff-n5) checked exhaustively under DPOR, with a wall-clock
# budget assertion so reduction regressions fail loudly.
mcheck-dpor-tier1:
	dune exec bin/main.exe -- mcheck --tier1 --budget-seconds 60 --out results/mcheck-tier1.json

# Coverage-guided schedule fuzzing: PCT adversaries plus mutation of an
# interleaving-coverage corpus over the fuzz roster (clean algorithms
# that must stay clean + seeded mutants that must be found).  Every run
# is checked against the centralized spec, which owns name safety, under
# the executor-discipline monitor.  Violations are ddmin-shrunk to
# replayable repros under results/repros/<stem of --out>/ (here
# results/repros/fuzz/); exits nonzero on a missed mutant or a violation
# on a clean target; JSON lands in results/fuzz.json.
fuzz:
	dune exec bin/main.exe -- fuzz

# The fixed-seed, small-budget CI configuration: seeded mutants only,
# every one caught by the spec alone (including the post-reclaim regrant,
# caught as refine:grant-without-invoke) and shrunk; repros land in
# results/repros/fuzz-smoke/, apart from the full campaign's.
fuzz-smoke:
	dune exec bin/main.exe -- fuzz --mutants-only --seed 1 --iterations 200 --out results/fuzz-smoke.json

# Replay gate: `renaming shrink` every committed repro artifact and fail
# unless the failure it reproduces has the kind its `kind:` header
# records (or if there is no artifact at all).  `shrink` writes a
# minimised <file>.min beside each artifact; .gitignore covers those.
repro-smoke:
	@dune build bin/main.exe
	@n=0; for f in $$(find results/repros -name '*.repro' | sort); do \
	  want=$$(sed -n 's/^kind: //p' "$$f"); \
	  out=$$(./_build/default/bin/main.exe shrink "$$f") || { echo "repro-smoke: $$f does not replay"; exit 1; }; \
	  got=$$(printf '%s\n' "$$out" | head -n 1 | sed 's/^[^:]*: //'); \
	  if [ "$$got" != "$$want" ]; then echo "repro-smoke: $$f replays to $$got, header says $$want"; exit 1; fi; \
	  echo "repro-smoke: $$f -> $$got"; n=$$((n + 1)); \
	done; \
	if [ $$n -eq 0 ]; then echo "repro-smoke: no artifacts under results/repros"; exit 1; fi; \
	echo "repro-smoke: $$n artifacts replay to their recorded kind"

# Static analysis: the commutation-audited independence oracle (the
# footprint table mcheck's DPOR race detection prunes with,
# machine-checked against Memory.apply, plus a soundness audit of the
# race relation itself) and the source-level concurrency lint over
# lib/.  Exits nonzero on any failure; JSON lands in results/analyze.json.
analyze:
	dune exec bin/main.exe -- analyze

examples:
	dune exec examples/quickstart.exe
	dune exec examples/device_demo.exe
	dune exec examples/coordination.exe
	dune exec examples/adversary_showdown.exe
	dune exec examples/namespace_tradeoff.exe
	dune exec examples/replay_debugging.exe
	dune exec examples/multicore_names.exe

clean:
	dune clean

loc:
	@find lib bin bench test examples \( -name '*.ml' -o -name '*.mli' \) | xargs wc -l | tail -1
