//! The experiment suite: one function per entry of DESIGN.md's index.
//!
//! Each function is self-contained (builds its own cluster, prints its
//! own tables); [`EXPERIMENTS`] names them for the `exp` binary and
//! [`run_all`].

mod costs;
mod forwarding;
mod phases;
mod policy;
mod recovery;
mod search;

pub use costs::{e12_pending_queue, e1_state_sizes, e2_admin_cost, e3_cost_vs_size};
pub use forwarding::{
    e13_dtk_during_migration, e4_forwarding_overhead, e5_link_update, e7_chain,
    e8_ablation_nondelivery,
};
pub use phases::{e16_phase_costs, E16_DUMP_PATH};
pub use policy::{e10_affinity, e11_sinking_ship, e6_server_migration, e9_load_balance};
pub use recovery::e14_recovery_latency;
pub use search::e17_coverage_search;

/// Every experiment in index order: the name `exp <name>` takes and the
/// function it runs. Adding an experiment is adding a row.
pub const EXPERIMENTS: [(&str, fn()); 16] = [
    ("state_sizes", e1_state_sizes),
    ("admin_cost", e2_admin_cost),
    ("cost_vs_size", e3_cost_vs_size),
    ("forwarding_overhead", e4_forwarding_overhead),
    ("link_update", e5_link_update),
    ("server_migration", e6_server_migration),
    ("chain", e7_chain),
    ("ablation_nondelivery", e8_ablation_nondelivery),
    ("load_balance", e9_load_balance),
    ("affinity", e10_affinity),
    ("sinking_ship", e11_sinking_ship),
    ("pending_queue", e12_pending_queue),
    ("dtk_during_migration", e13_dtk_during_migration),
    ("recovery_latency", e14_recovery_latency),
    ("phase_costs", e16_phase_costs),
    ("coverage_search", e17_coverage_search),
];

/// Run every experiment in order.
pub fn run_all() {
    for (_, run) in EXPERIMENTS {
        run();
    }
}
