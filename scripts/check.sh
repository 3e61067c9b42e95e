#!/usr/bin/env bash
# Pre-merge gate: formatting, lints and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo doc (broken intra-doc links are errors) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps -q

echo "== perfbench gate tests (a workspace of its own) =="
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== cargo bench --no-run (benches must compile) =="
cargo bench --workspace --no-run

echo "== shootdown batched/eager equivalence =="
cargo test -q -p cache-kernel --test prop_shootdown

echo "== chaos pinned seeds (deterministic crash containment) =="
cargo test -q -p vpp --test prop_chaos pinned_seed

echo "== overload pinned seeds (reservations, backpressure, thrash) =="
cargo test -q -p vpp --test prop_overload pinned_seed
cargo test -q -p vpp --test prop_chaos pinned_seed_overload

echo "== crash recovery example builds =="
cargo build -q -p vpp --example crash_recovery

echo "== partition pinned seeds (membership, fencing, replay) =="
cargo test -q -p vpp --test prop_partition pinned_partition
cargo test -q -p vpp --test prop_partition fault_free_run_is_inert

echo "== report rejects an unknown section =="
# Not `! cmd`: `set -e` ignores a negated command, and a failed build
# must not pass for a rejected section.
status=0
cargo run -q --release -p bench --bin report -- no-such-section 2> /dev/null || status=$?
if [[ "$status" -ne 2 ]]; then
  echo "report -- no-such-section exited $status, expected 2" >&2
  exit 1
fi

echo "== partition report smoke =="
cargo run -q --release -p bench --bin report -- partition > /dev/null

echo "== partition example end-to-end (cut, heal, node-down, quiesced directories) =="
cargo run -q --release -p vpp --example partition > /dev/null

echo "== threaded/lockstep pinned seeds (sharded executives) =="
cargo test -q -p vpp --test prop_threaded pinned_threaded_seed
cargo test -q -p vpp --test prop_threaded pinned_lockstep_replay

echo "== throughput report smoke =="
cargo run -q --release -p bench --bin report -- throughput > /dev/null

echo "== signal batched/eager equivalence pinned seeds =="
cargo test -q -p vpp --test prop_signal_batch pinned_signal_batch

echo "== fan-out ring drain (lockstep + threaded + panic) =="
cargo test -q -p workloads fanout::
cargo test -q -p cache-kernel shard::tests::panicked_shard_drains_fanout_ring

echo "== adversarial pinned seeds (capability containment) =="
cargo test -q -p vpp --test prop_chaos pinned_seed_adversarial
cargo test -q -p vpp --test prop_chaos adversarial_caps_off_is_inert
cargo test -q -p vpp --test integration_recovery restart_under_reduced_grant

echo "== caps report smoke =="
cargo run -q --release -p bench --bin report -- caps --json > /dev/null

echo "== messaging report smoke =="
cargo run -q --release -p bench --bin report -- msg > /dev/null

echo "== serving-under-chaos pinned gates (cut smoke, replay, inertness, budget drain) =="
cargo test -q -p vpp --test integration_serve serve_smoke_cut_midrun
cargo test -q -p vpp --test integration_serve serve_replay_is_byte_identical
cargo test -q -p vpp --test integration_serve serve_knobs_off_is_inert
cargo test -q -p vpp --test prop_overload pinned_budget_drain_replays

echo "== serve sweep report smoke =="
cargo run -q --release -p bench --bin report -- serve > /dev/null

echo "== gray-failure pinned gates (no false epochs, dead detection, inertness, hedge ledger, replay) =="
cargo test -q -p vpp --test prop_gray pure_delay_schedule_never_mints_an_epoch
cargo test -q -p vpp --test prop_gray dead_node_is_still_detected_within_the_legacy_budget
cargo test -q -p vpp --test prop_gray all_knobs_off_leaves_gray_counters_inert
cargo test -q -p vpp --test prop_gray hedges_fire_win_and_balance_the_budget_ledger
cargo test -q -p vpp --test prop_gray delayed_hedged_run_replays_byte_identically

echo "== gray composition gates (delay × partition, delay × chaos) =="
cargo test -q -p vpp --test prop_partition pinned_partition_composes_with_delay_schedule
cargo test -q -p vpp --test prop_chaos adversarial_chaos_composes_with_delay_schedules

echo "== gray sweep report smoke (asserts the p99 cut and per-node ledgers) =="
cargo run -q --release -p bench --bin report -- gray > /dev/null

echo "== messaging bench smoke (criterion baselines) =="
cargo bench -q -p bench --bench signal_latency -- --save-baseline msg-gate > /dev/null
cargo bench -q -p bench --bench ipc_channel -- --save-baseline msg-gate > /dev/null

if [[ "${TSAN:-0}" == "1" ]]; then
  # Opt-in ThreadSanitizer pass over the cross-thread paths (the SPSC
  # rings and the free-running shard workers). Needs a nightly
  # toolchain with the rust-src component:
  #   rustup toolchain install nightly --component rust-src
  #   TSAN=1 scripts/check.sh
  echo "== ThreadSanitizer (nightly) =="
  host="$(rustc -vV | sed -n 's/^host: //p')"
  tsan() {
    RUSTFLAGS="-Z sanitizer=thread" \
      cargo +nightly test -Z build-std --target "$host" -q "$@"
  }
  tsan -p hw ring::
  tsan -p workloads throughput::
  tsan -p vpp --test prop_threaded pinned_threaded_seed
fi

echo "All checks passed."
