//! The adaptive load controller (paper §4–5): delay-constrained
//! triage thresholds from measured costs.
//!
//! The paper's headline claim is that Data Triage is *adaptive*: the
//! user states a maximum tolerable result delay, and the system works
//! out — from measured per-tuple costs — how deep the triage queue may
//! grow before tuples must be diverted to the synopsis path so the
//! window still seals on time. This module implements that control
//! loop once, as [`SharedController`], and both runtimes drive it:
//!
//! * the simulation's [`crate::SharedPipeline`] owns one per physical
//!   stream and feeds each the *total* backlog of every triage queue,
//!   because its one virtual engine drains them all;
//! * `dt-server` shares one per stream between its ingest threads,
//!   worker group, and merger watchdog, fed that stream's own queue
//!   depth.
//!
//! [`FairController`] wraps a stream's controller to apportion its
//! shedding across tenant lanes.
//!
//! # Threshold derivation
//!
//! Let `D` be the delay constraint, `Ĉ_main` the estimated cost of
//! processing one tuple on the main path (engine service plus, in
//! Data Triage mode, the kept-synopsis insert), and `Ĉ_triage` the
//! estimated cost of summarizing one shed tuple. A queue of depth `n`
//! takes about `n · Ĉ_main` to drain, so the largest depth that still
//! meets the deadline — reserving one slot for the tuple already in
//! service — is
//!
//! ```text
//! T = max(1, floor((D − Ĉ_triage) / Ĉ_main) − 1)
//! ```
//!
//! Both costs are online EWMA estimates (`est ← est + α·(x − est)`,
//! α = [`DEFAULT_ALPHA`]), seeded from the static
//! [`dt_engine::CostModel`] ([`SharedController::from_cost_model`]) so
//! the controller is sensible from the first tuple and converges to
//! measured reality as samples arrive.
//!
//! # The headroom band
//!
//! Shedding everything above `T` and nothing below it makes the
//! system toggle between lossless and lossy at a single queue depth.
//! Instead, a *headroom band* covering the top [`DEFAULT_HEADROOM`]
//! fraction of the threshold ramps the shed fraction linearly from
//! near 0 (at the band's floor) to 1 (at `T`). The ramp is realized
//! with a per-mille error-diffusion accumulator rather than a random
//! draw, so a fraction `f` sheds `f` (rounded to 1/1000) of offered
//! tuples in steady state and every decision is deterministic —
//! reproducibility is a workspace-wide invariant (DESIGN.md §11).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use dt_engine::CostModel;
use dt_types::{DtError, DtResult, VDuration};

use crate::obs::ControllerGauges;
use crate::shed::ShedMode;

/// Smoothing factor for the cost EWMAs: each new sample moves the
/// estimate 10 % of the way to the observation, so the estimate
/// reflects roughly the last ~20 samples.
pub const DEFAULT_ALPHA: f64 = 0.1;

/// Fraction of the threshold covered by the shedding ramp.
pub const DEFAULT_HEADROOM: f64 = 0.25;

/// A per-query maximum tolerable result delay (paper §4): the longest
/// a window's result may trail the window's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DelayConstraint(VDuration);

impl DelayConstraint {
    /// A constraint of `d`; must be positive.
    pub fn new(d: VDuration) -> DtResult<Self> {
        if d.is_zero() {
            return Err(DtError::config("delay constraint must be positive"));
        }
        Ok(DelayConstraint(d))
    }

    /// A constraint of `ms` milliseconds.
    pub fn from_millis(ms: u64) -> DtResult<Self> {
        Self::new(VDuration::from_millis(ms))
    }

    /// A constraint of `us` microseconds.
    pub fn from_micros(us: u64) -> DtResult<Self> {
        Self::new(VDuration::from_micros(us))
    }

    /// The constraint as a duration.
    pub fn duration(self) -> VDuration {
        self.0
    }

    /// The constraint in microseconds.
    pub fn micros(self) -> u64 {
        self.0.micros()
    }
}

impl std::fmt::Display for DelayConstraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// The controller's verdict for one arriving tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedDecision {
    /// Admit the tuple to the triage queue (the main path).
    Keep,
    /// Divert the tuple (or a policy-chosen victim) to the synopsis
    /// path so the window can still seal within the delay constraint.
    Shed,
}

/// A frozen view of the controller, for `/stats` and gauges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerState {
    /// The current dynamic triage threshold (tuples).
    pub threshold: u64,
    /// Estimated drain delay of the queue at its last observed depth.
    pub estimated_delay: VDuration,
    /// Shed fraction applied at the last decision (0 outside the
    /// headroom band, ramping to 1 at the threshold).
    pub shed_fraction: f64,
    /// Current main-path cost estimate, µs/tuple.
    pub main_cost_us: f64,
    /// Current triage-path cost estimate, µs/tuple.
    pub triage_cost_us: f64,
}

/// `T = max(1, floor((D − Ĉ_triage) / Ĉ_main) − 1)`; a cold main-cost
/// estimate (`≤ 0`) disables shedding entirely (`u64::MAX`).
fn threshold_for(constraint_us: f64, main_us: f64, triage_us: f64) -> u64 {
    if main_us <= 0.0 {
        return u64::MAX;
    }
    let t = ((constraint_us - triage_us) / main_us).floor() - 1.0;
    if t >= u64::MAX as f64 {
        u64::MAX
    } else {
        (t.max(1.0)) as u64
    }
}

/// The shed fraction at queue depth `depth` under threshold
/// `threshold`: 0 below the headroom band, 1 at or above the
/// threshold, linear in between.
fn ramp_fraction(depth: u64, threshold: u64, headroom: f64) -> f64 {
    if threshold == u64::MAX {
        return 0.0;
    }
    if depth >= threshold {
        return 1.0;
    }
    let band = ((threshold as f64 * headroom).ceil() as u64).max(1);
    let floor = threshold.saturating_sub(band);
    if depth < floor {
        return 0.0;
    }
    (depth - floor + 1) as f64 / (threshold - floor + 1) as f64
}

/// A fraction in `[0, 1]` as per-mille units (0–1000).
fn per_mille(f: f64) -> u64 {
    (f * 1000.0).round() as u64
}

/// One error-diffusion step: add the per-mille fraction `fm` to `acc`
/// and shed on every whole-unit (1000) crossing, so a steady `fm`
/// sheds exactly `fm` of every 1000 decisions — deterministically.
/// `u64` wrapping keeps it lock-free.
fn diffuse(acc: &AtomicU64, fm: u64) -> ShedDecision {
    let prev = acc.fetch_add(fm, Ordering::Relaxed);
    if (prev % 1000) + fm >= 1000 {
        ShedDecision::Shed
    } else {
        ShedDecision::Keep
    }
}

/// The adaptive controller of one stream, for both runtimes (see the
/// module docs). In `dt-server` it is shared lock-free between the
/// ingest connections (decide), the worker group (cost observations,
/// dequeue accounting), and the merger watchdog
/// ([`SharedController::penalize`]); the simulator owns one per
/// physical stream and drives it from its one thread.
///
/// The depth the ramp reads is whatever the owner reports through
/// [`SharedController::on_enqueue`] / [`SharedController::on_dequeue`].
///
/// Cost estimates live as `f64` bit patterns in atomics; the EWMA
/// update is a read-modify-write without a CAS loop, so two racing
/// observations may lose one sample — harmless for a smoothed
/// estimator fed thousands of samples, and it keeps the hot path to
/// two relaxed atomic ops.
#[derive(Debug)]
pub struct SharedController {
    /// Delay constraint in µs as `f64` bits; `f64::INFINITY` means
    /// unconstrained (the threshold saturates and nothing is shed).
    /// Atomic because a query registry retightens it at runtime as
    /// tenants with their own constraints come and go.
    constraint_us_bits: AtomicU64,
    headroom: f64,
    main_us_bits: AtomicU64,
    triage_us_bits: AtomicU64,
    /// The backlog a new arrival waits behind, as reported through
    /// `on_enqueue` / `on_dequeue`.
    depth: AtomicI64,
    /// How many workers drain this backlog concurrently (DESIGN.md
    /// §15). A sharded stream's group shares one controller, so
    /// `depth` is the *group* backlog — but it drains `drains`×
    /// faster than a single worker would, and the threshold and
    /// delay estimate divide the per-tuple main cost accordingly.
    drains: AtomicU64,
    /// Error-diffusion accumulator in millifraction units (see
    /// [`diffuse`]).
    acc_milli: AtomicU64,
    last_fraction_milli: AtomicU64,
    gauges: ControllerGauges,
}

impl SharedController {
    /// A controller primed with cost estimates (µs/tuple) and an
    /// optional constraint. `None` never sheds on its own (the bounded
    /// queue is the only backstop) until
    /// [`SharedController::set_constraint`] tightens it; a zero
    /// `main_us` never sheds until a main-path cost is observed.
    pub fn with_constraint(
        constraint: Option<DelayConstraint>,
        main_us: f64,
        triage_us: f64,
    ) -> Self {
        let us = constraint.map_or(f64::INFINITY, |c| c.micros() as f64);
        SharedController {
            constraint_us_bits: AtomicU64::new(us.to_bits()),
            headroom: DEFAULT_HEADROOM,
            main_us_bits: AtomicU64::new(main_us.to_bits()),
            triage_us_bits: AtomicU64::new(triage_us.to_bits()),
            depth: AtomicI64::new(0),
            drains: AtomicU64::new(1),
            acc_milli: AtomicU64::new(0),
            last_fraction_milli: AtomicU64::new(0),
            gauges: ControllerGauges::default(),
        }
    }

    /// A controller primed from the static cost model for `mode`: the
    /// main path costs engine service plus, in Data Triage mode, the
    /// kept-synopsis insert; a shed tuple costs the dropped-synopsis
    /// insert whenever the mode keeps synopses. Both runtimes seed
    /// their controllers here.
    pub fn from_cost_model(
        constraint: Option<DelayConstraint>,
        cost: &CostModel,
        mode: ShedMode,
    ) -> Self {
        let syn_us = cost.synopsis_insert_time.micros() as f64;
        let main_us = cost.service_time.micros() as f64
            + if mode == ShedMode::DataTriage {
                syn_us
            } else {
                0.0
            };
        let triage_us = if mode.uses_synopses() { syn_us } else { 0.0 };
        Self::with_constraint(constraint, main_us, triage_us)
    }

    /// Attach gauges; the current state is published immediately (so
    /// an idle scrape already shows the seeded threshold) and again on
    /// every decision.
    pub fn with_gauges(mut self, gauges: ControllerGauges) -> Self {
        self.gauges = gauges;
        self.gauges.publish(&self.state());
        self
    }

    /// Replace the delay constraint at runtime; `None` disables
    /// constraint-driven shedding. Takes effect on the next decision.
    pub fn set_constraint(&self, constraint: Option<DelayConstraint>) {
        let us = constraint.map_or(f64::INFINITY, |c| c.micros() as f64);
        self.constraint_us_bits
            .store(us.to_bits(), Ordering::Relaxed);
    }

    /// The current delay constraint, if any.
    pub fn constraint(&self) -> Option<DelayConstraint> {
        let us = self.constraint_us();
        if us.is_finite() {
            DelayConstraint::from_micros(us.round().max(1.0) as u64).ok()
        } else {
            None
        }
    }

    fn constraint_us(&self) -> f64 {
        f64::from_bits(self.constraint_us_bits.load(Ordering::Relaxed))
    }

    fn main_us(&self) -> f64 {
        f64::from_bits(self.main_us_bits.load(Ordering::Relaxed))
    }

    /// The effective per-tuple drain cost: the main-path estimate
    /// divided by the number of concurrent drainers. With `drains`
    /// = 1 (the default) this is exactly the main-path estimate.
    fn drain_us(&self) -> f64 {
        self.main_us() / self.drains.load(Ordering::Relaxed).max(1) as f64
    }

    /// Declare how many workers drain this backlog concurrently
    /// (clamped to ≥ 1). Called once at startup when a stream's
    /// worker group is sized; see DESIGN.md §15.
    pub fn set_drains(&self, n: usize) {
        self.drains.store(n.max(1) as u64, Ordering::Relaxed);
    }

    /// The declared number of concurrent drainers.
    pub fn drains(&self) -> usize {
        self.drains.load(Ordering::Relaxed).max(1) as usize
    }

    fn triage_us(&self) -> f64 {
        f64::from_bits(self.triage_us_bits.load(Ordering::Relaxed))
    }

    fn ewma_fold(bits: &AtomicU64, sample: f64) {
        let old = f64::from_bits(bits.load(Ordering::Relaxed));
        let new = old + DEFAULT_ALPHA * (sample - old);
        bits.store(new.to_bits(), Ordering::Relaxed);
    }

    /// Fold one measured main-path cost (µs for one tuple).
    pub fn observe_main(&self, us: f64) {
        Self::ewma_fold(&self.main_us_bits, us);
    }

    /// Fold one measured triage-path cost (µs for one shed tuple).
    pub fn observe_triage(&self, us: f64) {
        Self::ewma_fold(&self.triage_us_bits, us);
    }

    /// A tuple joined the backlog this controller watches.
    pub fn on_enqueue(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` tuples left the backlog this controller watches.
    pub fn on_dequeue(&self, n: usize) {
        self.depth.fetch_sub(n as i64, Ordering::Relaxed);
    }

    /// The merger watchdog force-sealed past a stalled worker: the
    /// main-path cost estimate was evidently optimistic. Double it
    /// (halving the threshold) so the controller sheds harder until
    /// fresh measurements earn the trust back.
    pub fn penalize(&self) {
        let old = self.main_us();
        if old > 0.0 {
            self.main_us_bits
                .store((old * 2.0).to_bits(), Ordering::Relaxed);
        }
    }

    /// The current dynamic triage threshold (tuples). With a worker
    /// group attached ([`SharedController::set_drains`]) the backlog
    /// drains that many times faster, so the threshold scales up
    /// proportionally.
    pub fn threshold(&self) -> u64 {
        threshold_for(self.constraint_us(), self.drain_us(), self.triage_us())
    }

    /// The shed fraction the ramp dictates at the current depth —
    /// pure (no error diffusion, no gauge publication). This is the
    /// budget a [`FairController`] apportions across tenant lanes.
    pub fn fraction(&self) -> f64 {
        let depth = self.depth.load(Ordering::Relaxed).max(0) as u64;
        ramp_fraction(depth, self.threshold(), self.headroom)
    }

    /// Record `f` as the last applied fraction and publish the state
    /// to any attached gauges (what `decide` does internally; exposed
    /// for wrappers that make their own decisions).
    pub fn record_fraction(&self, f: f64) {
        self.last_fraction_milli
            .store(per_mille(f), Ordering::Relaxed);
        self.gauges.publish(&self.state());
    }

    /// Decide one arriving tuple's fate from the current depth, and
    /// publish the state to any attached gauges.
    pub fn decide(&self) -> ShedDecision {
        let f = self.fraction();
        let fm = per_mille(f);
        self.last_fraction_milli.store(fm, Ordering::Relaxed);
        let decision = if f >= 1.0 {
            ShedDecision::Shed
        } else if f <= 0.0 {
            ShedDecision::Keep
        } else {
            diffuse(&self.acc_milli, fm)
        };
        let state = self.state();
        self.gauges.publish(&state);
        decision
    }

    /// The controller's current state.
    pub fn state(&self) -> ControllerState {
        let depth = self.depth.load(Ordering::Relaxed).max(0) as u64;
        let main = self.main_us();
        ControllerState {
            threshold: self.threshold(),
            estimated_delay: VDuration::from_micros((depth as f64 * self.drain_us()).round() as u64),
            shed_fraction: self.last_fraction_milli.load(Ordering::Relaxed) as f64 / 1000.0,
            main_cost_us: main,
            triage_cost_us: self.triage_us(),
        }
    }
}

/// Decisions between two water-filling recomputes of the per-lane
/// shed fractions. Small enough that lane fractions track load shifts
/// within a few dozen tuples; large enough that the recompute (a sort
/// over a handful of lanes) stays off the per-tuple hot path.
pub const FAIR_EPOCH: u64 = 32;

/// Smoothing factor for per-lane arrival-rate EWMAs (per epoch).
const RATE_ALPHA: f64 = 0.3;

/// One tenant lane's configuration for [`FairController::set_lanes`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSpec {
    /// Tenant name (the tag carried by ingest frames).
    pub name: String,
    /// Fair-share weight; must be positive.
    pub weight: f64,
    /// The tenant's own delay constraint, if any. The stream's
    /// effective constraint is the minimum over the server's and
    /// every lane's.
    pub constraint: Option<DelayConstraint>,
}

/// A frozen view of one tenant lane, for `/stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneState {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: f64,
    /// The tenant's own delay constraint, if any.
    pub constraint: Option<DelayConstraint>,
    /// EWMA'd arrivals per epoch (0 while cold).
    pub rate: f64,
    /// The lane's current shed fraction.
    pub shed_fraction: f64,
    /// Tuples this lane kept since it was created.
    pub kept: u64,
    /// Tuples this lane shed since it was created.
    pub shed: u64,
}

/// One tenant's lane: weight, optional constraint, and the lock-free
/// rate / fraction / diffusion state the epoch recompute maintains.
#[derive(Debug)]
struct TenantLane {
    name: String,
    weight: f64,
    constraint: Option<DelayConstraint>,
    /// Arrivals since the last epoch recompute.
    epoch_arrived: AtomicU64,
    /// EWMA'd arrivals per epoch (`f64` bits; 0 while cold).
    rate_bits: AtomicU64,
    /// This lane's shed fraction, per-mille (0–1000).
    shed_milli: AtomicU64,
    /// Per-lane error-diffusion accumulator (millifraction units).
    acc_milli: AtomicU64,
    /// Lifetime kept/shed counters for `/stats`.
    kept: AtomicU64,
    shed: AtomicU64,
}

impl TenantLane {
    fn new(spec: &LaneSpec) -> Self {
        TenantLane {
            name: spec.name.clone(),
            weight: spec.weight,
            constraint: spec.constraint,
            epoch_arrived: AtomicU64::new(0),
            rate_bits: AtomicU64::new(0f64.to_bits()),
            shed_milli: AtomicU64::new(0),
            acc_milli: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    fn rate(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }
}

/// Weighted-fair multi-tenant admission over one stream's
/// [`SharedController`].
///
/// The base controller answers *how much* to shed — the ramp fraction
/// `f` derived from the stream's effective delay constraint and
/// measured costs. This wrapper answers *whose tuples*: the keep
/// budget `(1 − f) · R` (where `R` is the total arrival rate) is
/// apportioned across tenant lanes by **water-filling** on their
/// weights — every lane demanding less than its weighted fair share
/// keeps everything, and the surplus flows to the heavier lanes. A
/// tenant bursting 4× therefore absorbs the shedding its own burst
/// caused; lanes under their fair share shed nothing, so a quiet
/// tenant's accuracy is insulated from a noisy neighbor.
///
/// Per-lane shed fractions are recomputed every [`FAIR_EPOCH`]
/// decisions from per-epoch arrival-rate EWMAs; between recomputes
/// each lane sheds by its own error-diffusion accumulator, so the
/// realized per-lane fractions are deterministic for a given arrival
/// sequence. Two hard overrides bypass the (up to one epoch stale)
/// lane fractions: a fresh global fraction of 1 sheds everything
/// (deadline protection) and a fresh fraction of 0 keeps everything.
///
/// Tuples with no tenant tag, or a tag matching no lane, land in the
/// first lane — registries should order a catch-all default first.
/// With no lanes at all, `decide` degrades to the base controller.
#[derive(Debug)]
pub struct FairController {
    base: std::sync::Arc<SharedController>,
    /// The constraint configured at server startup, if any; lane
    /// constraints only ever tighten it.
    server_constraint: Option<DelayConstraint>,
    lanes: std::sync::RwLock<Vec<TenantLane>>,
    /// Decisions since the last water-filling recompute.
    epoch_tick: AtomicU64,
}

impl FairController {
    /// Wrap `base` (whose constraint should equal `server_constraint`
    /// until lanes arrive).
    pub fn new(
        base: std::sync::Arc<SharedController>,
        server_constraint: Option<DelayConstraint>,
    ) -> Self {
        FairController {
            base,
            server_constraint,
            lanes: std::sync::RwLock::new(Vec::new()),
            epoch_tick: AtomicU64::new(0),
        }
    }

    /// The wrapped per-stream controller (for cost observations,
    /// dequeue accounting, and the watchdog penalty).
    pub fn base(&self) -> &std::sync::Arc<SharedController> {
        &self.base
    }

    /// Replace the lane set atomically (the registry calls this on
    /// every register/unregister with the full current tenant list).
    /// Rate EWMAs and lifetime counters carry over for lanes whose
    /// names persist. Also retightens the base constraint to the
    /// minimum over the server's and every lane's.
    pub fn set_lanes(&self, specs: &[LaneSpec]) -> DtResult<()> {
        let mut seen: Vec<&str> = Vec::with_capacity(specs.len());
        for s in specs {
            if !(s.weight > 0.0 && s.weight.is_finite()) {
                return Err(DtError::config(format!(
                    "tenant '{}' weight must be positive and finite, got {}",
                    s.name, s.weight
                )));
            }
            if seen.contains(&s.name.as_str()) {
                return Err(DtError::config(format!(
                    "duplicate tenant lane '{}'",
                    s.name
                )));
            }
            seen.push(&s.name);
        }
        let mut lanes = self.lanes.write().expect("lane lock poisoned");
        let next: Vec<TenantLane> = specs
            .iter()
            .map(|spec| {
                let lane = TenantLane::new(spec);
                if let Some(old) = lanes.iter().find(|l| l.name == spec.name) {
                    lane.rate_bits
                        .store(old.rate_bits.load(Ordering::Relaxed), Ordering::Relaxed);
                    lane.kept
                        .store(old.kept.load(Ordering::Relaxed), Ordering::Relaxed);
                    lane.shed
                        .store(old.shed.load(Ordering::Relaxed), Ordering::Relaxed);
                }
                lane
            })
            .collect();
        *lanes = next;
        let effective = lanes
            .iter()
            .filter_map(|l| l.constraint)
            .chain(self.server_constraint)
            .min();
        self.base.set_constraint(effective);
        Ok(())
    }

    /// Decide one arriving tuple's fate. `tenant` is the frame's tag.
    pub fn decide(&self, tenant: Option<&str>) -> ShedDecision {
        let lanes = self.lanes.read().expect("lane lock poisoned");
        if lanes.is_empty() {
            drop(lanes);
            return self.base.decide();
        }
        let li = tenant
            .and_then(|t| lanes.iter().position(|l| l.name == t))
            .unwrap_or(0);
        lanes[li].epoch_arrived.fetch_add(1, Ordering::Relaxed);
        let tick = self.epoch_tick.fetch_add(1, Ordering::Relaxed) + 1;
        if tick.is_multiple_of(FAIR_EPOCH) {
            self.recompute(&lanes);
        }
        // Hard overrides on the *fresh* global fraction; the lane
        // fractions in between may be up to one epoch stale.
        let f = self.base.fraction();
        let decision = if f >= 1.0 {
            ShedDecision::Shed
        } else if f <= 0.0 {
            ShedDecision::Keep
        } else {
            // A lane fraction of 0 or 1000 leaves the accumulator's
            // phase unchanged, so it keeps or sheds outright.
            let fm = lanes[li].shed_milli.load(Ordering::Relaxed);
            diffuse(&lanes[li].acc_milli, fm)
        };
        match decision {
            ShedDecision::Keep => lanes[li].kept.fetch_add(1, Ordering::Relaxed),
            ShedDecision::Shed => lanes[li].shed.fetch_add(1, Ordering::Relaxed),
        };
        decision
    }

    /// Water-fill the keep budget across lanes. Called under the read
    /// lock — it mutates only lane atomics.
    fn recompute(&self, lanes: &[TenantLane]) {
        let mut rates = Vec::with_capacity(lanes.len());
        for l in lanes {
            let sample = l.epoch_arrived.swap(0, Ordering::Relaxed) as f64;
            let old = l.rate();
            let new = if old <= 0.0 {
                sample
            } else {
                old + RATE_ALPHA * (sample - old)
            };
            l.rate_bits.store(new.to_bits(), Ordering::Relaxed);
            rates.push(new);
        }
        let f = self.base.fraction();
        self.base.record_fraction(f);
        let total: f64 = rates.iter().sum();
        if total <= 0.0 {
            // No arrival history yet: apply the global fraction flat.
            let fm = per_mille(f);
            for l in lanes {
                l.shed_milli.store(fm, Ordering::Relaxed);
            }
            return;
        }
        // Keep budget (1 − f)·R, apportioned by weight: serve lanes
        // in increasing demand-per-weight order so underloaded lanes
        // keep everything and their surplus flows to heavier ones.
        let mut keep_budget = (1.0 - f) * total;
        let mut order: Vec<usize> = (0..lanes.len()).collect();
        order.sort_by(|&a, &b| {
            let da = rates[a] / lanes[a].weight;
            let db = rates[b] / lanes[b].weight;
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut weight_left: f64 = lanes.iter().map(|l| l.weight).sum();
        for &i in &order {
            let fair = if weight_left > 0.0 {
                keep_budget * lanes[i].weight / weight_left
            } else {
                0.0
            };
            let keep = rates[i].min(fair);
            keep_budget -= keep;
            weight_left -= lanes[i].weight;
            let shed = if rates[i] <= 0.0 {
                0.0
            } else {
                1.0 - keep / rates[i]
            };
            lanes[i]
                .shed_milli
                .store(per_mille(shed.clamp(0.0, 1.0)), Ordering::Relaxed);
        }
    }

    /// Frozen per-lane views, in lane order.
    pub fn lane_states(&self) -> Vec<LaneState> {
        self.lanes
            .read()
            .expect("lane lock poisoned")
            .iter()
            .map(|l| LaneState {
                name: l.name.clone(),
                weight: l.weight,
                constraint: l.constraint,
                rate: l.rate(),
                shed_fraction: l.shed_milli.load(Ordering::Relaxed) as f64 / 1000.0,
                kept: l.kept.load(Ordering::Relaxed),
                shed: l.shed.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// True once any lane is configured.
    pub fn has_lanes(&self) -> bool {
        !self.lanes.read().expect("lane lock poisoned").is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d_ms(ms: u64) -> DelayConstraint {
        DelayConstraint::from_millis(ms).unwrap()
    }

    #[test]
    fn constraint_must_be_positive() {
        assert!(DelayConstraint::from_millis(0).is_err());
        assert!(DelayConstraint::from_micros(1).is_ok());
        assert_eq!(d_ms(20).micros(), 20_000);
    }

    /// A controller under `D = ms` milliseconds with the given seeds.
    fn ctl(ms: u64, main_us: f64, triage_us: f64) -> SharedController {
        SharedController::with_constraint(Some(d_ms(ms)), main_us, triage_us)
    }

    /// Report `n` more tuples of backlog.
    fn fill(c: &SharedController, n: u64) {
        for _ in 0..n {
            c.on_enqueue();
        }
    }

    #[test]
    fn drains_scale_the_threshold_and_delay_estimate() {
        let c = ctl(10, 100.0, 5.0);
        let solo_threshold = c.threshold();
        let solo_state = c.state();
        assert_eq!(c.drains(), 1);

        // Declaring 4 drainers quarters the effective per-tuple cost:
        // the threshold roughly quadruples and, at a fixed depth, the
        // delay estimate quarters.
        fill(&c, 40);
        let at_one = c.state().estimated_delay;
        c.set_drains(4);
        assert_eq!(c.drains(), 4);
        assert!(c.threshold() >= solo_threshold * 3, "{}", c.threshold());
        let at_four = c.state().estimated_delay;
        assert_eq!(at_four.micros() * 4, at_one.micros());

        // drains = 1 restores the single-worker numbers exactly.
        c.set_drains(1);
        c.on_dequeue(40);
        assert_eq!(c.threshold(), solo_threshold);
        assert_eq!(c.state(), solo_state);
        // Degenerate input clamps rather than disabling the model.
        c.set_drains(0);
        assert_eq!(c.drains(), 1);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let c = ctl(20, 100.0, 100.0);
        for _ in 0..250 {
            c.observe_main(10.0);
            c.observe_triage(10.0);
        }
        let s = c.state();
        assert!((s.main_cost_us - 10.0).abs() < 1e-6, "{s:?}");
        assert!((s.triage_cost_us - 10.0).abs() < 1e-6, "{s:?}");
    }

    #[test]
    fn ewma_step_response_is_geometric() {
        // After a step from 0 to 1, the residual error after k samples
        // is (1 - alpha)^k exactly.
        let c = ctl(20, 0.0, 0.0);
        for k in 1..=20 {
            c.observe_main(1.0);
            let expected = 1.0 - (1.0 - DEFAULT_ALPHA).powi(k);
            let got = c.state().main_cost_us;
            assert!((got - expected).abs() < 1e-12, "k={k}: {got} vs {expected}");
        }
    }

    #[test]
    fn cost_model_seeds_follow_the_mode() {
        let cost = CostModel::default();
        let service = cost.service_time.micros() as f64;
        let syn = cost.synopsis_insert_time.micros() as f64;
        for (mode, main, triage) in [
            (ShedMode::DataTriage, service + syn, syn),
            (ShedMode::DropOnly, service, 0.0),
            (ShedMode::SummarizeOnly, service, syn),
        ] {
            let s = SharedController::from_cost_model(Some(d_ms(20)), &cost, mode).state();
            assert_eq!(
                (s.main_cost_us, s.triage_cost_us),
                (main, triage),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn threshold_math_matches_derivation() {
        // D = 20 ms, main = 1 ms, triage = 0: floor(20) - 1 = 19.
        assert_eq!(threshold_for(20_000.0, 1_000.0, 0.0), 19);
        // Triage cost eats into the budget.
        assert_eq!(threshold_for(20_000.0, 1_000.0, 2_000.0), 17);
        // Never below 1, never panics on tight constraints.
        assert_eq!(threshold_for(500.0, 1_000.0, 0.0), 1);
        // Cold estimate disables shedding.
        assert_eq!(threshold_for(20_000.0, 0.0, 0.0), u64::MAX);
    }

    #[test]
    fn ramp_is_monotone_and_bounded() {
        let t = 20;
        let mut last = 0.0;
        for depth in 0..=t + 5 {
            let f = ramp_fraction(depth, t, DEFAULT_HEADROOM);
            assert!((0.0..=1.0).contains(&f), "depth {depth}: {f}");
            assert!(f >= last, "ramp must be monotone in depth");
            last = f;
        }
        assert_eq!(ramp_fraction(0, t, DEFAULT_HEADROOM), 0.0);
        assert_eq!(ramp_fraction(t, t, DEFAULT_HEADROOM), 1.0);
        // An unbounded threshold never sheds.
        assert_eq!(ramp_fraction(1 << 40, u64::MAX, DEFAULT_HEADROOM), 0.0);
    }

    #[test]
    fn cold_controller_keeps_everything() {
        // A zero main-cost estimate leaves the threshold unbounded.
        let c = ctl(10, 0.0, 0.0);
        let mut depth = 0;
        for next in [0, 10, 1000, 1_000_000] {
            fill(&c, next - depth);
            depth = next;
            assert_eq!(c.decide(), ShedDecision::Keep);
        }
        assert_eq!(c.threshold(), u64::MAX);
    }

    #[test]
    fn seeded_controller_sheds_above_threshold() {
        // D = 20 ms at 1 ms/tuple: threshold 19.
        let c = ctl(20, 1_000.0, 0.0);
        assert_eq!(c.threshold(), 19);
        assert_eq!(c.decide(), ShedDecision::Keep);
        fill(&c, 19);
        assert_eq!(c.decide(), ShedDecision::Shed);
        fill(&c, 81);
        assert_eq!(c.decide(), ShedDecision::Shed);
    }

    #[test]
    fn ramp_sheds_proportionally_inside_band() {
        let c = ctl(100, 1_000.0, 0.0);
        let t = c.threshold(); // 98
        let floor = t - (t as f64 * DEFAULT_HEADROOM).ceil() as u64;
        fill(&c, floor);
        let n = 1000usize;
        // Every depth inside the band sheds its ramp fraction, rounded
        // to 1/1000, to within one decision (error diffusion).
        for depth in floor..t {
            let f = ramp_fraction(depth, t, DEFAULT_HEADROOM);
            assert!(f > 0.0 && f < 1.0, "depth {depth}: {f}");
            let shed = (0..n).filter(|_| c.decide() == ShedDecision::Shed).count();
            let realized = shed as f64 / n as f64;
            assert!(
                (realized - f).abs() < 2.0 / n as f64 + 1e-3,
                "depth {depth}: realized {realized} vs fraction {f}"
            );
            c.on_enqueue();
        }
    }

    #[test]
    fn tighter_constraints_give_lower_thresholds() {
        let mut last = u64::MAX;
        for ms in [500, 100, 50, 20, 10, 5, 2] {
            let t = ctl(ms, 1_000.0, 20.0).threshold();
            assert!(t <= last, "D={ms}ms: threshold {t} > previous {last}");
            last = t;
        }
    }

    #[test]
    fn observations_move_the_threshold() {
        let c = ctl(20, 1_000.0, 0.0);
        assert_eq!(c.threshold(), 19);
        // The engine turns out to be 2x slower than the model claimed.
        for _ in 0..500 {
            c.observe_main(2_000.0);
        }
        assert_eq!(c.threshold(), 9);
        // Triage costs now measured as nonzero.
        for _ in 0..500 {
            c.observe_triage(2_000.0);
        }
        assert_eq!(c.threshold(), 8);
    }

    #[test]
    fn state_reports_consistent_numbers() {
        let c = ctl(20, 1_000.0, 50.0);
        fill(&c, 10);
        c.decide();
        let s = c.state();
        // floor((20000 - 50) / 1000) - 1 = 18.
        assert_eq!(s.threshold, 18);
        assert_eq!(s.estimated_delay, VDuration::from_millis(10));
        assert_eq!(s.shed_fraction, 0.0);
        assert!((s.main_cost_us - 1_000.0).abs() < 1e-9);
        assert!((s.triage_cost_us - 50.0).abs() < 1e-9);
    }

    #[test]
    fn shared_controller_matches_single_threaded_math() {
        let c = ctl(20, 1_000.0, 0.0);
        assert_eq!(c.threshold(), 19);
        // Depth below the band: keep.
        assert_eq!(c.decide(), ShedDecision::Keep);
        // Fill the backlog past the threshold.
        fill(&c, 25);
        assert_eq!(c.decide(), ShedDecision::Shed);
        c.on_dequeue(25);
        assert_eq!(c.decide(), ShedDecision::Keep);
    }

    #[test]
    fn shared_controller_ewma_and_penalty() {
        let c = ctl(20, 1_000.0, 0.0);
        for _ in 0..500 {
            c.observe_main(2_000.0);
        }
        assert_eq!(c.threshold(), 9);
        c.penalize();
        assert_eq!(c.threshold(), 4);
        let s = c.state();
        assert!((s.main_cost_us - 4_000.0).abs() < 1.0);
    }

    #[test]
    fn shared_constraint_is_dynamic() {
        let c = SharedController::with_constraint(None, 1_000.0, 0.0);
        assert_eq!(c.threshold(), u64::MAX);
        assert_eq!(c.constraint(), None);
        fill(&c, 1_000_000);
        assert_eq!(c.decide(), ShedDecision::Keep, "unconstrained never sheds");
        c.set_constraint(Some(d_ms(20)));
        assert_eq!(c.threshold(), 19);
        assert_eq!(c.constraint(), Some(d_ms(20)));
        assert_eq!(c.decide(), ShedDecision::Shed);
        c.set_constraint(None);
        assert_eq!(c.decide(), ShedDecision::Keep);
    }

    fn fair(server_ms: Option<u64>) -> FairController {
        let base = std::sync::Arc::new(SharedController::with_constraint(
            server_ms.map(d_ms),
            1_000.0,
            0.0,
        ));
        FairController::new(base, server_ms.map(d_ms))
    }

    #[test]
    fn fair_without_lanes_degrades_to_base() {
        let c = fair(Some(20));
        assert_eq!(c.decide(None), ShedDecision::Keep);
        for _ in 0..25 {
            c.base().on_enqueue();
        }
        assert_eq!(c.decide(Some("a")), ShedDecision::Shed);
        assert!(!c.has_lanes());
    }

    #[test]
    fn lane_constraints_tighten_and_release_the_base() {
        let c = fair(Some(100));
        assert_eq!(c.base().constraint(), Some(d_ms(100)));
        c.set_lanes(&[
            LaneSpec {
                name: "a".into(),
                weight: 1.0,
                constraint: Some(d_ms(20)),
            },
            LaneSpec {
                name: "b".into(),
                weight: 1.0,
                constraint: None,
            },
        ])
        .unwrap();
        assert_eq!(c.base().constraint(), Some(d_ms(20)), "min wins");
        // Dropping the tight tenant releases back to the server's.
        c.set_lanes(&[LaneSpec {
            name: "b".into(),
            weight: 1.0,
            constraint: None,
        }])
        .unwrap();
        assert_eq!(c.base().constraint(), Some(d_ms(100)));
    }

    #[test]
    fn set_lanes_validates() {
        let c = fair(None);
        assert!(c
            .set_lanes(&[LaneSpec {
                name: "a".into(),
                weight: 0.0,
                constraint: None,
            }])
            .is_err());
        assert!(c
            .set_lanes(&[
                LaneSpec {
                    name: "a".into(),
                    weight: 1.0,
                    constraint: None,
                },
                LaneSpec {
                    name: "a".into(),
                    weight: 2.0,
                    constraint: None,
                },
            ])
            .is_err());
    }

    /// Drive `n` decisions for each lane in an interleaved,
    /// deterministic pattern (`burst` copies of `a` per one of `b`),
    /// at fixed queue depth, returning each lane's shed counts.
    fn drive(c: &FairController, rounds: usize, burst: usize) -> (u64, u64, u64, u64) {
        for _ in 0..rounds {
            for _ in 0..burst {
                c.decide(Some("a"));
            }
            c.decide(Some("b"));
        }
        let states = c.lane_states();
        let a = states.iter().find(|l| l.name == "a").unwrap();
        let b = states.iter().find(|l| l.name == "b").unwrap();
        (a.kept, a.shed, b.kept, b.shed)
    }

    #[test]
    fn bursting_tenant_absorbs_its_own_shedding() {
        let c = fair(Some(100));
        c.set_lanes(&[
            LaneSpec {
                name: "a".into(),
                weight: 1.0,
                constraint: None,
            },
            LaneSpec {
                name: "b".into(),
                weight: 1.0,
                constraint: None,
            },
        ])
        .unwrap();
        // Park the queue inside the headroom band: threshold 98,
        // depth 90 → global fraction strictly between 0 and 1.
        let t = c.base().threshold();
        for _ in 0..t - 8 {
            c.base().on_enqueue();
        }
        assert!(c.base().fraction() > 0.0 && c.base().fraction() < 1.0);
        // Tenant a offers 7× tenant b's rate with equal weights: all
        // shedding should land on a once rates are learned.
        let (_, a_shed, b_kept, b_shed) = drive(&c, 2_000, 7);
        assert!(a_shed > 100, "the bursting lane sheds (got {a_shed})");
        assert_eq!(
            b_shed, 0,
            "the under-fair-share lane never sheds (kept {b_kept})"
        );
    }

    #[test]
    fn fair_shedding_matches_global_fraction() {
        // With lanes in play the *total* realized shed fraction must
        // still track the base ramp — fairness redistributes, it does
        // not change how much is shed.
        let c = fair(Some(100));
        c.set_lanes(&[
            LaneSpec {
                name: "a".into(),
                weight: 1.0,
                constraint: None,
            },
            LaneSpec {
                name: "b".into(),
                weight: 1.0,
                constraint: None,
            },
        ])
        .unwrap();
        let t = c.base().threshold();
        for _ in 0..t - 8 {
            c.base().on_enqueue();
        }
        let f = c.base().fraction();
        let (a_kept, a_shed, b_kept, b_shed) = drive(&c, 4_000, 3);
        let total = (a_kept + a_shed + b_kept + b_shed) as f64;
        let realized = (a_shed + b_shed) as f64 / total;
        assert!(
            (realized - f).abs() < 0.05,
            "realized {realized} vs global fraction {f}"
        );
    }

    #[test]
    fn weights_skew_the_fair_share() {
        // Equal offered rates, 3:1 weights, a global fraction around
        // one half: the light lane sheds much more than the heavy one
        // (keep budget 0.5·R splits 3:1, so a sheds ~25% of its rate
        // while b sheds ~75%).
        let c = fair(Some(100));
        c.set_lanes(&[
            LaneSpec {
                name: "a".into(),
                weight: 3.0,
                constraint: None,
            },
            LaneSpec {
                name: "b".into(),
                weight: 1.0,
                constraint: None,
            },
        ])
        .unwrap();
        let t = c.base().threshold();
        for _ in 0..t - 13 {
            c.base().on_enqueue();
        }
        let (_, a_shed, _, b_shed) = drive(&c, 4_000, 1);
        assert!(
            b_shed > a_shed * 2,
            "light lane sheds more (a={a_shed}, b={b_shed})"
        );
    }

    #[test]
    fn untagged_tuples_land_in_the_first_lane() {
        let c = fair(Some(100));
        c.set_lanes(&[
            LaneSpec {
                name: "default".into(),
                weight: 1.0,
                constraint: None,
            },
            LaneSpec {
                name: "b".into(),
                weight: 1.0,
                constraint: None,
            },
        ])
        .unwrap();
        c.decide(None);
        c.decide(Some("nobody"));
        c.decide(Some("b"));
        let states = c.lane_states();
        assert_eq!(states[0].kept + states[0].shed, 2);
        assert_eq!(states[1].kept + states[1].shed, 1);
    }

    #[test]
    fn lane_counters_survive_set_lanes() {
        let c = fair(None);
        let spec_a = LaneSpec {
            name: "a".into(),
            weight: 1.0,
            constraint: None,
        };
        c.set_lanes(std::slice::from_ref(&spec_a)).unwrap();
        for _ in 0..5 {
            c.decide(Some("a"));
        }
        c.set_lanes(&[
            spec_a,
            LaneSpec {
                name: "b".into(),
                weight: 1.0,
                constraint: None,
            },
        ])
        .unwrap();
        assert_eq!(c.lane_states()[0].kept, 5, "a's counters carried over");
    }

    #[test]
    fn shared_ramp_error_diffusion_tracks_fraction() {
        let c = ctl(100, 1_000.0, 0.0);
        let t = c.threshold();
        fill(&c, t - 1);
        let f = ramp_fraction(t - 1, t, DEFAULT_HEADROOM);
        assert!(f > 0.0 && f < 1.0);
        let n = 1000usize;
        let shed = (0..n).filter(|_| c.decide() == ShedDecision::Shed).count();
        let realized = shed as f64 / n as f64;
        assert!(
            (realized - f).abs() < 2.0 / n as f64 + 1e-3,
            "realized {realized} vs fraction {f}"
        );
    }
}
