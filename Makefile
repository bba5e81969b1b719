# Developer entry points. `make check` is the gate every change must pass.

CARGO ?= cargo
OFFLINE ?= --offline

.PHONY: check build doc loc test test-release benchmark-test benchmark-gate golden bless clippy fmt-check lint model audit serve-smoke compare claims bench bench-wallclock bless-bench clean

# Full gate: build everything, lint with warnings denied, build the
# docs with warnings denied, enforce formatting, run the suite (which
# includes the golden-report snapshots and the escalating fault-rate
# check in tests/reliability.rs) and its wheel-vs-dense and golden tests
# again on a release build, the mcr-lint static passes (source lint +
# timing/mode-table/region checks), the bounded (state-capped) protocol
# model check + wake-soundness certification, the command-stream audit
# on the release build, the service loopback smoke test, the
# cross-backend compare smoke, the benchmark's digest gate at full trace
# length, and the wall-clock gate (event wheel, persistent store,
# per-backend throughput).
check: build clippy doc fmt-check test test-release benchmark-test benchmark-gate golden lint model audit serve-smoke compare bench-wallclock

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
# compiles it, so run its tests here. `--locked` (here and in
# benchmark-gate) fails instead of silently rewriting
# benchmark/Cargo.lock when a simulator crate gains a dependency.
benchmark-test:
	$(CARGO) test $(OFFLINE) --locked --manifest-path benchmark/Cargo.toml -q

# The benchmark at full trace length for half a second per workload: its
# seed-2015 reports must match the pinned digests and the dense drive's
# reports. Exits 1 on any mismatch (benchmark-test cuts traces 100-fold,
# so only this target checks the pinned digests). A second seed, which
# has no pinned digest, repeats the wheel-vs-dense check on other traces.
benchmark-gate:
	$(CARGO) run --release $(OFFLINE) --locked -q --manifest-path benchmark/Cargo.toml -- --workload all --seconds 0.5
	$(CARGO) run --release $(OFFLINE) --locked -q --manifest-path benchmark/Cargo.toml -- --workload all --seconds 0.5 --seed 7

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

# The wheel-vs-dense equivalence suite, the goldens, the random-trace
# net of the event loop, the JSON reader and store codec suites, and the
# check that the audit front end arms the auditor itself, on a release
# build: the benchmark, every timed run, every warm store hit and `make
# audit` drive release builds, where `debug_assert!`s are compiled out,
# overflow wraps and no channel arms its auditor by default.
test-release:
	$(CARGO) test --release $(OFFLINE) -q -p mcr-dram --test event_wheel_equivalence --test golden_reports
	$(CARGO) test --release $(OFFLINE) -q -p mcr-dram --lib random_traces_match_the_dense_drive
	$(CARGO) test --release $(OFFLINE) -q -p sim-json -p mcr-store
	$(CARGO) test --release $(OFFLINE) -q -p mcr-lint --test fault_injection audit_system_point_arms_the_auditor_in_any_build

fmt-check:
	$(CARGO) fmt --all --check

# Static analysis: source lint over crates/*/src plus the timing-set /
# mode-table / region-map invariant checks (Tables 3-4, Fig. 9).
lint:
	$(CARGO) run $(OFFLINE) -q -p mcr-lint -- src config

# Bounded (state-capped) protocol model check + event-wheel wake-soundness
# certification (DESIGN.md §5i): enumerates reachable abstract states
# breadth-first up to `ModelSpec::max_states` (200,000, with a
# `model/state-cap` warning when it stops there), proves the wheel's
# edges never overshoot, replays the shipped
# counterexamples and writes BENCH_model.json at the repo root. Fails
# past MCR_MODEL_BUDGET_MS (default 120000) of wall clock.
model:
	$(CARGO) run $(OFFLINE) --release -q -p mcr-lint -- model

# Protocol audit: Fig. 9 refresh-schedule replays plus a full-system
# command-stream audit of the fig9/fig11-style configuration suite. The
# audit arms the online auditor on every run itself, so it runs on the
# same release build as `model`.
audit:
	$(CARGO) run $(OFFLINE) --release -q -p mcr-lint -- audit

# Loopback end-to-end smoke of the simulation service (DESIGN.md §5g):
# binds an ephemeral port, drives sweeps / deadlines / load shedding /
# drains and the connection guards (read deadline, line cap,
# malformed lines) over real sockets, and exercises the serve+submit CLI.
serve-smoke:
	$(CARGO) test $(OFFLINE) -p mcr-serve --test serve_smoke -q

# Head-to-head smoke of the pluggable-backend campaign (DESIGN.md §5l):
# the same trace under every registered architecture, printed as the
# comparison table.
compare:
	$(CARGO) run $(OFFLINE) -q -p mcr-serve --bin mcr_sim -- \
		compare --workload libq --len 4000 \
		--backends baseline,mcr,tldram,clrdram

# The paper-claims ledger (crates/bench/src/claims.rs) at FULL scale:
# every row over five seeds, through a disk store in target/claims-store
# so a rerun simulates nothing new. Prints min/median/max per row,
# rewrites EXPERIMENTS.md's generated tables, and fails when a row holds
# at fewer seeds than its stated share. (`make test` runs the CHECK rows.)
claims:
	$(CARGO) bench $(OFFLINE) -q --bench claims

bench:
	$(CARGO) bench $(OFFLINE) --workspace

# Wall clock of the simulator (DESIGN.md §5h, §5j, §5l): event wheel vs
# dense drive, cold vs warm sweep through the result store, and
# per-backend throughput. Writes BENCH_wallclock.json at the repo root
# and fails when a core speedup drops below 85% of the committed
# BENCH_baseline.json (or the baseline is missing), a warm sweep is
# under 5x faster than a cold one, or a registered backend is untimed.
bench-wallclock:
	MCR_BENCH_GATE=1 $(CARGO) bench $(OFFLINE) -q --bench wallclock

# Re-bless the wall-clock baseline after an intentional perf change,
# then review the BENCH_baseline.json diff like any other code change.
bless-bench:
	MCR_BLESS_BENCH=1 $(CARGO) bench $(OFFLINE) -q --bench wallclock

clean:
	$(CARGO) clean
