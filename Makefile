# Convenience entry points; all commands assume the repo root as cwd.

PY := PYTHONPATH=src python

.PHONY: test perf bench bench-smoke bench-compare ab loc

# Tier-1 verify: unit + figure-reproduction suites (perf guards skipped).
test:
	$(PY) -m pytest -x -q

# The three telemetry budgets (tracing cost, attribution, telemetry
# off), asserted on full-scale bench records; not tier-1.
perf:
	$(PY) -m pytest -m perf tests/test_perf_guards.py -q

# The repo benchmark (BENCHMARK.json + bench/): every workload at full
# scale, one fresh process each.
bench:
	python3 -m bench --all

# Every workload at smoke scale — what CI runs per PR.
bench-smoke:
	python3 -m bench --all --scale smoke

# A fresh full-scale run of every workload, judged against the
# committed baseline (bench/out/ is gitignored).
bench-compare:
	mkdir -p bench/out
	python3 -m bench --all --out bench/out/fresh.json
	python3 -m bench compare bench/baseline.json bench/out/fresh.json

# Paired A/B of one workload: REF's committed tree (a scratch git
# worktree) against this tree, N alternating pairs; prints medians,
# q1-q3, pair wins, the exact counts and each pair's two-process ratio.
REF ?= HEAD
W ?= pagerank_chromatic
N ?= 10
ab:
	python3 tools/bench_ab.py $(REF) --workload $(W) --pairs $(N)

# Line counts: the totals under src/repro and tests/, then every
# src/repro module over 700 lines, largest first.
loc:
	@printf '%s src/repro\n' "$$(find src/repro -name '*.py' -exec cat {} + | wc -l)"
	@printf '%s tests\n' "$$(find tests -name '*.py' -exec cat {} + | wc -l)"
	@find src/repro -name '*.py' -exec wc -l {} + | awk '$$2 != "total" && $$1 > 700' | sort -rn
