#!/bin/sh
# Offline preflight: release build (workspace and the benchmark package),
# clippy over every target, every test in the workspace (unit, property
# and e2e suites, the chaos suite under the pinned fault-injection seed),
# then the bench gates; the full tier adds the benchmark package's own
# tests, a seed matrix over the determinism scenario and a build with
# instrumentation compiled out. Everything runs with --offline (the
# workspace vendors its dependencies as in-tree shims), so this works
# with no network at all.
#
# Tiers:
#   sh scripts/check.sh          full preflight (default)
#   sh scripts/check.sh --quick  build, clippy, every test, and the
#                                tenant/trigger/heal bench gates
#
# Override the chaos seed to reproduce a specific run:
#   COLZA_CHAOS_SEED=7 sh scripts/check.sh
set -e
cd "$(dirname "$0")/.."

COLZA_CHAOS_SEED="${COLZA_CHAOS_SEED:-42}"
export COLZA_CHAOS_SEED

cargo build --release --offline --workspace
# The benchmark package (BENCHMARK.json) is its own workspace compiled
# against crates/: build it here so an API move that breaks it fails the
# gate, not the benchmark driver.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo clippy -q --offline --workspace --all-targets -- -D warnings
cargo test -q --offline --workspace

if [ "$1" = "--quick" ]; then
    # Tenant-isolation gate: the noisy neighbor is throttled while the
    # well-behaved tenant meets its latency bound, deterministically.
    cargo run -q --release --offline -p colza-bench --bin bench_tenant -- \
        --smoke --assert --out /tmp/colza_bench_tenant_smoke.json
    # Trigger gate: skips cost ~zero, savings are real, same-seed
    # decision traces replay byte-for-byte.
    cargo run -q --release --offline -p colza-bench --bin bench_trigger -- \
        --smoke --assert --out /tmp/colza_bench_trigger_smoke.json
    # Self-healing gate: crash->healthy with the supervisor.
    cargo run -q --release --offline -p colza-bench --bin bench_heal -- \
        --smoke --assert --out /tmp/colza_bench_heal_smoke.json
    echo "CHECK_OK quick (chaos seed $COLZA_CHAOS_SEED)"
    exit 0
fi

cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Determinism must hold for more than the pinned seed: replay the
# virtual-time-trace scenario across a small seed matrix.
for seed in 42 7 1337; do
    COLZA_CHAOS_SEED="$seed" cargo test -q --offline --test chaos_e2e \
        same_seed_reproduces_the_exact_virtual_time_trace
done

# Collective engine smoke: the size-adaptive algorithms must beat the
# naive whole-payload ones above the pipeline switchover, and Table II
# must keep the paper's shape (Cray fastest, OpenMPI collapse, MoNA
# within a small factor of Cray).
cargo run -q --release --offline -p colza-bench --bin bench_coll -- \
    --smoke --assert --out /tmp/colza_bench_coll_smoke.json
cargo run -q --release --offline -p colza-bench --bin table2_reduce -- --check-shape > /dev/null

# Codec smoke: the delta codec must cut Gray–Scott wire bytes by >= 1.5x
# (lossless roundtrips and the lossy bound are asserted inside the bench).
cargo run -q --release --offline -p colza-bench --bin bench_codec -- \
    --smoke --assert --out /tmp/colza_bench_codec_smoke.json

# Tenant QoS smoke: with enforcement on, noisy tenants must be refused
# at their staged-byte quotas and throttled at the execute gate while
# the well-behaved tenant's worst iteration stays within the bound.
cargo run -q --release --offline -p colza-bench --bin bench_tenant -- \
    --smoke --assert --out /tmp/colza_bench_tenant_smoke.json

# Trigger smoke: skipped iterations must cost ~zero virtual time, the
# savings must be a measurable share of the always-on execute budget,
# and the same-seed decision trace must replay exactly.
cargo run -q --release --offline -p colza-bench --bin bench_trigger -- \
    --smoke --assert --out /tmp/colza_bench_trigger_smoke.json

# Self-healing (DESIGN.md §10): the heal bench gate (crash->healthy
# bounded with scrub on, persistent under-replication with it off).
cargo run -q --release --offline -p colza-bench --bin bench_heal -- \
    --smoke --assert --out /tmp/colza_bench_heal_smoke.json

# The trace feature must compile away cleanly: every instrumented crate
# has to build with instrumentation disabled.
for crate in hpcsim na mona minimpi margo ssg store colza colza-bench catalyst; do
    cargo build -q --offline -p "$crate" --no-default-features
done

echo "CHECK_OK (chaos seed $COLZA_CHAOS_SEED)"
