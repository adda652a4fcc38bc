#!/bin/sh
# Offline preflight: release build (workspace and the benchmark package),
# clippy over every target, every test in the workspace (unit, property
# and e2e suites, the chaos suite under the pinned fault-injection seed),
# then the bench gates — the heal, tenant, trigger, collective-engine and
# Table II shapes, which are tests too (crates/bench/tests/gates.rs,
# release only). The full tier adds the benchmark package's own tests, a
# seed matrix over the determinism scenario and a build with
# instrumentation compiled out. Everything runs with --offline (the
# workspace vendors its dependencies as in-tree shims), so this works
# with no network at all.
#
# Tiers:
#   sh scripts/check.sh          full preflight (default)
#   sh scripts/check.sh --quick  build, clippy, every test, the gates
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
# The bench gates, one at a time: the trigger gate reads CPU spans and
# gossip convergence polls in real time, so they do not share the cores.
cargo test -q --release --offline -p colza-bench --test gates -- --test-threads=1

if [ "$1" = "--quick" ]; then
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

# The trace feature must compile away cleanly: every instrumented crate
# has to build with instrumentation disabled.
for crate in hpcsim na mona minimpi margo ssg store colza colza-bench catalyst; do
    cargo build -q --offline -p "$crate" --no-default-features
done

echo "CHECK_OK (chaos seed $COLZA_CHAOS_SEED)"
