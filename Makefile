# Developer entry points. `make check` is the gate every change must pass.

CARGO ?= cargo
OFFLINE ?= --offline

.PHONY: check build doc loc test benchmark-test golden bless clippy fmt-check lint model audit chaos serve-smoke loadtest-smoke compare bench-smoke bench bench-core bench-sweep bench-compare bless-bench clean

# Full gate: build everything, lint with warnings denied, build the
# docs with warnings denied, enforce formatting, run the suite (which includes the golden-report
# snapshots), the mcr-lint static
# passes (source lint + timing/mode-table/region checks), the exhaustive
# protocol model check + wake-soundness certification, then a seeded
# fault-injection chaos campaign, the service loopback smoke test, the
# fault-injected loadtest smoke, the cross-backend compare smoke, and
# the event-wheel, persistent-store and per-backend wall-clock gates.
check: build clippy doc fmt-check test benchmark-test golden lint model chaos serve-smoke loadtest-smoke compare bench-core bench-sweep bench-compare

build:
	$(CARGO) build $(OFFLINE) --workspace --all-targets

# API docs with rustdoc warnings (broken or private intra-doc links)
# denied.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc $(OFFLINE) --workspace --no-deps

# Workspace Rust line count, the size metric ROADMAP.md tracks.
loc:
	@find crates tests examples -name '*.rs' | xargs cat | wc -l

# The benchmark (benchmark/, a workspace of its own) builds the
# simulator crates as path dependencies; the workspace suite never
# compiles it, so run its tests here.
benchmark-test:
	$(CARGO) test $(OFFLINE) --manifest-path benchmark/Cargo.toml -q

# Golden-report snapshots (tests/goldens/): byte-exact scalar outcomes of
# the Table-3 modes. Runs as part of `make test` too; this target gives
# the suite a fast standalone entry point.
golden:
	$(CARGO) test $(OFFLINE) -p mcr-dram --test golden_reports -q

# Regenerate the golden snapshots after an intentional behaviour change,
# then review the diff like any other code change.
bless:
	MCR_BLESS=1 $(CARGO) test $(OFFLINE) -p mcr-dram --test golden_reports -q

clippy:
	$(CARGO) clippy $(OFFLINE) --workspace --all-targets -- -D warnings

test:
	$(CARGO) test $(OFFLINE) --workspace -q

fmt-check:
	$(CARGO) fmt --all --check

# Static analysis: source lint over crates/*/src plus the timing-set /
# mode-table / region-map invariant checks (Tables 3-4, Fig. 9).
lint:
	$(CARGO) run $(OFFLINE) -q -p mcr-lint -- src config

# Exhaustive protocol model check + event-wheel wake-soundness
# certification (DESIGN.md §5i): enumerates every reachable abstract
# state, proves the wheel's edges never overshoot, replays the shipped
# counterexamples and writes BENCH_model.json at the repo root. Fails
# past MCR_MODEL_BUDGET_MS (default 120000) of wall clock.
model:
	$(CARGO) run $(OFFLINE) --release -q -p mcr-lint -- model

# Protocol audit: Fig. 9 refresh-schedule replays plus a full-system
# command-stream audit of the fig9/fig11-style configuration suite, with
# the online auditor compiled in (release build + protocol-audit feature).
audit:
	$(CARGO) run $(OFFLINE) --release -p mcr-lint --features protocol-audit -- audit

# Seeded retention-fault chaos campaign (DESIGN.md §5f): a clean control
# run, then escalating fault rates; fails on any retention escape or any
# lost read. CHAOS_SEED replays a specific campaign.
CHAOS_SEED ?= 2015
chaos:
	$(CARGO) run $(OFFLINE) -q -p mcr-serve --bin mcr_sim -- \
		--workload libq --mode 2/4x/100 --len 8000 \
		--chaos --fault-seed $(CHAOS_SEED)

# Loopback end-to-end smoke of the simulation service (DESIGN.md §5g):
# binds an ephemeral port, drives sweeps / deadlines / load shedding /
# campaigns over real sockets, and exercises the serve+submit CLI.
serve-smoke:
	$(CARGO) test $(OFFLINE) -p mcr-serve --test serve_smoke -q

# Seeded loadtest against a self-hosted loopback server (DESIGN.md §5k):
# a clean phase, then the same volume through a NetChaos proxy injecting
# faults at 10%; --check fails the target unless the shed/served/retried
# accounting balances exactly and no submission is lost. Writes
# BENCH_serve.json at the repo root.
loadtest-smoke:
	$(CARGO) run $(OFFLINE) -q -p mcr-serve --bin mcr_sim -- \
		loadtest --loopback --submissions 16 --concurrency 4 \
		--len 1200 --seed 7 --chaos-rate 0.1 --check --out BENCH_serve.json

# Head-to-head smoke of the pluggable-backend campaign (DESIGN.md §5l):
# the same trace under every registered architecture, printed as the
# comparison table.
compare:
	$(CARGO) run $(OFFLINE) -q -p mcr-serve --bin mcr_sim -- \
		compare --workload libq --len 4000 \
		--backends baseline,mcr,tldram,clrdram

# Quick pass over the figure benches at reduced trace lengths — shape
# checks, not statistics (a few seconds instead of minutes).
bench-smoke:
	MCR_BENCH_LEN=6000 MCR_BENCH_LEN_MULTI=1500 $(CARGO) bench $(OFFLINE) -q \
		--bench fig9_refresh_skip \
		--bench fig11_single_ratio \
		--bench fig14_multi_ratio \
		--bench fig17_mechanisms

bench:
	$(CARGO) bench $(OFFLINE) --workspace

# Event-wheel vs dense-drive wall clock (DESIGN.md §5h): writes
# BENCH_core.json at the repo root and fails when any case's speedup
# drops below 85% of the committed BENCH_baseline.json.
bench-core:
	MCR_BENCH_GATE=1 $(CARGO) bench $(OFFLINE) -q --bench wallclock_core

# Cold vs warm sweep through the persistent result store (DESIGN.md
# §5j): writes BENCH_sweep.json at the repo root and fails when the
# warm-over-cold speedup drops below 5x.
bench-sweep:
	MCR_BENCH_GATE=1 $(CARGO) bench $(OFFLINE) -q --bench wallclock_sweep

# Per-backend simulation throughput of the compare campaign (DESIGN.md
# §5l): writes BENCH_compare.json at the repo root and fails unless
# every registered backend is timed.
bench-compare:
	MCR_BENCH_GATE=1 $(CARGO) bench $(OFFLINE) -q --bench wallclock_compare

# Re-bless the wall-clock baseline after an intentional perf change,
# then review the BENCH_baseline.json diff like any other code change.
bless-bench:
	MCR_BLESS_BENCH=1 $(CARGO) bench $(OFFLINE) -q --bench wallclock_core

clean:
	$(CARGO) clean
