//! The weighted-fair acceptance test (ISSUE 6): two tenants with
//! delay constraints share one stream; bursting tenant A's input 4×
//! must not degrade tenant B's accuracy or delay.
//!
//! The run is a deterministic discrete simulation of the server's
//! admission path: arrivals ask the stream's [`FairController`] for a
//! verdict, kept tuples enter a simulated bounded queue drained at a
//! fixed service rate, and every window closes through the real
//! [`QueryRegistry`] fan-out — kept rows exactly, shed rows through
//! the shared dropped synopsis — so tenant B's RMS error is measured
//! on genuine merged (exact + estimate) results.

use std::sync::Arc;

use dt_obs::MetricsRegistry;
use dt_query::Catalog;
use dt_registry::{QueryRegistry, QuerySpec, RegistryConfig, WindowInputs};
use dt_synopsis::SynopsisConfig;
use dt_triage::{
    DelayConstraint, FairController, QueryClose, SharedController, ShedDecision, ShedMode, SynPair,
    WindowPayload,
};
use dt_types::{DataType, Row, Schema, VDuration, WindowSpec};

/// Tuples tenant B offers per round, every round, in both runs.
const B_RATE: usize = 4;
/// Tenant A's quiet rate; the burst multiplies this by 4.
const A_RATE: usize = 4;
/// Tuples the simulated worker drains per round.
const SERVICE: usize = 8;
/// Rounds per window and windows per run.
const ROUNDS: usize = 25;
const WINDOWS: usize = 6;
/// Measured per-tuple main-path cost: 1 ms, so a queue depth of N
/// means an estimated delay of N ms against the 200 ms constraint.
/// The wide band matters: the controller's ramp spans ~50 tuples of
/// depth, so epoch-to-epoch depth wobble stays inside the ramp
/// instead of slamming into the shed-everything override.
const MAIN_US: f64 = 1_000.0;
const DELAY_MS: u64 = 200;

/// Non-uniform value patterns (A in 0..5, B in 10..15), so the
/// cell-width-5 synopsis' uniform smear is measurably wrong for shed
/// tuples — shedding a tenant's tuples *does* cost that tenant
/// accuracy.
const A_VALS: [i64; 8] = [0, 0, 0, 1, 1, 2, 3, 4];
const B_VALS: [i64; 8] = [10, 10, 10, 11, 11, 12, 13, 14];

struct Outcome {
    /// Tenant B's RMS count error per window (warmup window excluded).
    b_rms: f64,
    /// B tuples admitted while the estimated queueing delay exceeded
    /// the 20 ms constraint.
    b_deadline_misses: u64,
    /// Shed totals per tenant over the measured windows.
    a_shed: u64,
    b_shed: u64,
    a_offered: u64,
}

fn registry() -> QueryRegistry {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    QueryRegistry::new(
        RegistryConfig {
            catalog,
            mode: ShedMode::DataTriage,
            spec: WindowSpec::new(VDuration::from_secs(1)).unwrap(),
            override_windows: false,
        },
        MetricsRegistry::disabled(),
    )
    .unwrap()
}

fn b_groups(close: &QueryClose) -> [f64; 5] {
    let mut out = [0.0; 5];
    if let WindowPayload::Groups(g) = &close.payload {
        for (row, aggs) in g {
            let v = row.values()[0].as_i64().unwrap();
            if (10..15).contains(&v) {
                out[(v - 10) as usize] = aggs[0];
            }
        }
    }
    out
}

/// One full run. `a_rate` is tenant A's per-round arrival count;
/// `fair` selects the weighted-fair lane controller versus a
/// tenant-blind flat controller at the same constraint.
fn run(a_rate: usize, fair_lanes: bool) -> Outcome {
    let reg = registry();
    let d = DelayConstraint::from_millis(DELAY_MS).unwrap();
    reg.register(
        QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a")
            .tenant("alpha")
            .delay(d),
    )
    .unwrap();
    let qb = reg
        .register(
            QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a")
                .tenant("beta")
                .delay(d)
                .weight(2.0),
        )
        .unwrap();

    let base = Arc::new(SharedController::with_constraint(Some(d), MAIN_US, 0.0));
    let ctl = FairController::new(Arc::clone(&base), Some(d));
    if fair_lanes {
        ctl.set_lanes(&reg.lanes_for_stream(0)).unwrap();
    }

    let syn = SynopsisConfig::Sparse { cell_width: 5 };
    let mut depth: usize = 0;
    let mut credit: f64 = 0.0;
    let mut out = Outcome {
        b_rms: 0.0,
        b_deadline_misses: 0,
        a_shed: 0,
        b_shed: 0,
        a_offered: 0,
    };
    let mut measured = 0usize;

    for w in 0..WINDOWS as u64 {
        let mut kept_rows: Vec<Row> = Vec::new();
        let mut pair = SynPair {
            kept: syn.build(1).unwrap(),
            dropped: syn.build(1).unwrap(),
        };
        let mut truth = [0u64; 5]; // B's groups 10..14
        let (mut a_shed, mut b_shed, mut kept, mut dropped) = (0u64, 0u64, 0u64, 0u64);
        let warm = w == 0;
        for r in 0..ROUNDS {
            // Interleave: B's tuples spread evenly through A's
            // (rates are chosen so `total` divides evenly by B_RATE).
            let total = a_rate + B_RATE;
            let stride = total / B_RATE;
            let mut sent_a = 0usize;
            let mut sent_b = 0usize;
            for i in 0..total {
                let is_b = i % stride == 0 && sent_b < B_RATE;
                let (tenant, v) = if is_b {
                    sent_b += 1;
                    ("beta", B_VALS[(r * B_RATE + sent_b - 1) % 8])
                } else {
                    sent_a += 1;
                    if !warm {
                        out.a_offered += 1;
                    }
                    ("alpha", A_VALS[(r * a_rate + sent_a - 1) % 8])
                };
                if is_b {
                    truth[(v - 10) as usize] += 1;
                }
                match ctl.decide(Some(tenant)) {
                    ShedDecision::Keep => {
                        base.on_enqueue();
                        depth += 1;
                        kept += 1;
                        kept_rows.push(Row::from_ints(&[v]));
                        pair.kept.insert(&[v]).unwrap();
                        if is_b && depth as u64 * 1_000 > DELAY_MS * 1_000 {
                            out.b_deadline_misses += 1;
                        }
                    }
                    ShedDecision::Shed => {
                        dropped += 1;
                        pair.dropped.insert(&[v]).unwrap();
                        if is_b {
                            b_shed += 1;
                        } else {
                            a_shed += 1;
                        }
                    }
                }
                // Smooth service: the worker drains SERVICE tuples per
                // round, interleaved with arrivals.
                credit += SERVICE as f64 / total as f64;
                while credit >= 1.0 && depth > 0 {
                    credit -= 1.0;
                    depth -= 1;
                    base.on_dequeue(1);
                }
            }
        }
        pair.kept.seal();
        pair.dropped.seal();
        let rows = vec![kept_rows];
        let pairs = vec![pair];
        let counts = vec![(kept, dropped)];
        let closes = reg
            .close_window(
                w,
                WindowInputs {
                    rows: &rows,
                    pairs: Some(&pairs),
                    counts: &counts,
                },
            )
            .unwrap();
        if warm {
            continue; // ramp-up transient: not measured
        }
        let close_b = &closes.iter().find(|(id, _)| *id == qb).unwrap().1;
        let est = b_groups(close_b);
        let se: f64 = (0..5).map(|i| (est[i] - truth[i] as f64).powi(2)).sum();
        out.b_rms += (se / 5.0).sqrt();
        measured += 1;
        out.a_shed += a_shed;
        out.b_shed += b_shed;
    }
    out.b_rms /= measured as f64;
    out
}

#[test]
fn burst_by_one_tenant_does_not_starve_the_other() {
    // Baseline: both tenants at their quiet rates, arrivals == service.
    let base = run(A_RATE, true);
    assert_eq!(base.b_deadline_misses, 0, "no misses in the quiet run");

    // Tenant A bursts 4×. Weighted-fair water-filling makes A absorb
    // the shedding its own burst causes.
    let burst = run(A_RATE * 4, true);
    assert!(
        burst.a_shed * 2 > burst.a_offered,
        "the burst must overload the stream: A shed {} of {}",
        burst.a_shed,
        burst.a_offered
    );
    assert_eq!(
        burst.b_deadline_misses, 0,
        "B's admitted tuples stay inside the delay constraint"
    );
    // The acceptance bound: B's RMS error grows at most 10% over the
    // no-burst run (epsilon absorbs a zero baseline).
    assert!(
        burst.b_rms <= base.b_rms * 1.10 + 1e-9,
        "B's RMS error {} must stay within 10% of the baseline {}",
        burst.b_rms,
        base.b_rms
    );

    // Contrast: a tenant-blind controller at the same constraint sheds
    // B's tuples along with A's, and B's accuracy pays for A's burst —
    // the insulation above is the lanes' doing, not slack in the test.
    let flat = run(A_RATE * 4, false);
    assert!(
        flat.b_shed > 0,
        "flat controller sheds the quiet tenant too (shed {})",
        flat.b_shed
    );
    assert!(
        flat.b_rms > burst.b_rms + 1e-9,
        "tenant-blind RMS {} must exceed weighted-fair RMS {}",
        flat.b_rms,
        burst.b_rms
    );
}
