# Convenience entry points; all commands assume the repo root as cwd.

PY := PYTHONPATH=src python

.PHONY: test perf bench bench-smoke bench-compare

# Tier-1 verify: unit + figure-reproduction suites (perf tests skipped).
test:
	$(PY) -m pytest -x -q

# Hot-path perf checks (non-tier-1, selected by the perf marker).
perf:
	$(PY) -m pytest -m perf benchmarks/perf -q

# Record core throughput to BENCH_core.json. Refuses to overwrite an
# existing file from a dirty working tree so the perf trajectory stays
# reproducible from committed states (pass FORCE=1 to override).
bench:
	$(PY) -m benchmarks.perf.bench_core $(if $(FORCE),--force,)

# The repo benchmark (BENCHMARK.json + bench/): every workload at smoke
# scale — what CI runs per PR.
bench-smoke:
	python3 -m bench --all --scale smoke

# A fresh full-scale run of every workload, judged against the
# committed baseline (bench/out/ is gitignored).
bench-compare:
	mkdir -p bench/out
	python3 -m bench --all --out bench/out/fresh.json
	python3 -m bench compare bench/baseline.json bench/out/fresh.json
