//! Explicit CSSG construction: enumerate stable states and validate every
//! input pattern with the k-bounded settling analysis.
//!
//! One loop builds the graph: a depth-first walk from the reset state
//! that settles each state's candidate patterns in ascending order and
//! interns successors as it meets them.  [`build_cssg`] runs it on one
//! thread; [`build_cssg_sharded`] gives it a thread budget, and past a
//! fixed amount of settling work helper threads (each with its own
//! [`Settler`]) precompute verdicts the loop consumes in serial order,
//! so the result is **bit-identical** to the serial build for any
//! budget (see `crates/core/DESIGN.md`).

use crate::cssg::Cssg;
use crate::error::CoreError;
use crate::Result;
use satpg_netlist::{pattern_count, Bits, Circuit, Pattern};
use satpg_sim::{CapPolicy, Injection, Settle, SettleStats, Settler, SettlerConfig};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Configuration for [`build_cssg`].
#[derive(Clone, Copy, Debug)]
pub struct CssgConfig {
    /// Transition bound `k`; `None` picks `4·gates + 4` (§4.1's test-cycle
    /// estimation with a generous constant).
    pub k: Option<usize>,
    /// Cap on the number of CSSG stable states.
    pub max_states: usize,
    /// Cap policy for the interleaving set tracked per settling analysis
    /// (the old fixed `max_settle_states = 2^15` is
    /// `CapPolicy::Fixed(1 << 15)`; the default scales with circuit
    /// size).
    pub settle_cap: CapPolicy,
    /// Partial-order reduction over commuting gate switchings inside
    /// every settling analysis.  Sound — the built graph is bit-identical
    /// to the naive walk wherever the naive walk completes — and it is
    /// what keeps the deep generated families (muller ≥ 19) from
    /// truncating.
    pub por: bool,
    /// Accept ternary-definite settles without the exhaustive analysis.
    pub ternary_fast_path: bool,
    /// Cap on the number of input patterns *tried* per stable state
    /// (ascending pattern order; the state's own pattern never counts).
    /// `None` enumerates all `2^inputs − 1` candidates — exhaustive, the
    /// historical behaviour, and mandatory below 64 inputs to keep every
    /// existing graph bit-identical.  Past 63 inputs exhaustive
    /// enumeration is impossible and a budget is required
    /// ([`CoreError::PatternBudgetRequired`]); candidates beyond the
    /// budget are counted in [`Cssg::patterns_skipped`], never silently
    /// dropped.
    pub pattern_budget: Option<u64>,
}

impl Default for CssgConfig {
    fn default() -> Self {
        CssgConfig {
            k: None,
            max_states: 1 << 14,
            settle_cap: CapPolicy::default_scaled(),
            por: true,
            ternary_fast_path: true,
            pattern_budget: None,
        }
    }
}

impl CssgConfig {
    /// The settling-engine configuration this CSSG config induces.
    pub fn settler(&self, ckt: &Circuit) -> SettlerConfig {
        SettlerConfig {
            k: self.k.unwrap_or(4 * ckt.num_gates() + 4),
            cap: self.settle_cap,
            por: self.por,
            ternary_fast_path: self.ternary_fast_path,
        }
    }
}

/// Candidate patterns per state: every pattern but the state's own.
/// Saturating: past 63 inputs the count does not fit a word.
fn all_candidates(num_inputs: usize) -> u64 {
    pattern_count(num_inputs).map_or(u64::MAX, |t| t - 1)
}

/// Settling work (analyses plus expansions, [`SettleStats`]) a build
/// does alone before helpers join it.  Every bundled benchmark builds
/// within 62 units and every seq and dme build within 60, so they never
/// pay thread start-up; muller-4 (272 units) and arbiter-3 (498) are
/// the smallest generated circuits that get helpers.
const HELPERS_AFTER: u64 = 256;

/// Builds the CSSG of `ckt` from its reset state by forward exploration:
/// every input pattern is tried in every discovered stable state, and
/// kept only when the settling analysis proves confluence within `k`
/// transitions.
///
/// Patterns equal to the state's current inputs are skipped (the paper's
/// `R_I` requires at least one input to change).
///
/// # Errors
///
/// [`CoreError::NoStableReset`] if the reset state is unstable,
/// [`CoreError::PatternBudgetRequired`] for more than 63 inputs without
/// a pattern budget, or [`CoreError::CssgOverflow`] when the state
/// budget is exceeded.
pub fn build_cssg(ckt: &Circuit, cfg: &CssgConfig) -> Result<Cssg> {
    build(ckt, cfg, 1, HELPERS_AFTER)
}

/// [`build_cssg`] on at most `shards` threads: once the loop has done
/// [`HELPERS_AFTER`] units of settling work alone, `shards − 1` helpers
/// precompute verdicts it consumes in serial order.  The result is
/// bit-identical to [`build_cssg`]'s for every shard count, and whether
/// helpers join ([`Cssg::build_threads`]) depends only on the circuit
/// and the configuration.
///
/// # Errors
///
/// Exactly the conditions of [`build_cssg`].
pub fn build_cssg_sharded(ckt: &Circuit, cfg: &CssgConfig, shards: usize) -> Result<Cssg> {
    build(ckt, cfg, shards, HELPERS_AFTER)
}

/// The one build loop: a depth-first walk from the reset state that
/// settles every candidate pattern of a state in ascending order and
/// interns new successors as it meets them.  With `threads > 1`, helpers
/// join once the loop's own work reaches `helpers_after`.
fn build(ckt: &Circuit, cfg: &CssgConfig, threads: usize, helpers_after: u64) -> Result<Cssg> {
    if ckt.num_inputs() > 63 && cfg.pattern_budget.is_none() {
        return Err(CoreError::PatternBudgetRequired(ckt.num_inputs()));
    }
    if ckt.outputs().len() > 64 {
        return Err(CoreError::TooManyOutputs(ckt.outputs().len()));
    }
    if !ckt.is_stable(ckt.initial_state()) {
        return Err(CoreError::NoStableReset);
    }
    let scfg = cfg.settler(ckt);
    let mut span = satpg_trace::span!(
        "cssg.build",
        circuit = ckt.name(),
        gates = ckt.num_gates(),
        k = scfg.k
    );
    let mut walk = Walk::new(ckt, cfg, &scfg);
    let join_at = if threads > 1 { helpers_after } else { u64::MAX };
    if !walk.run(None, join_at)? {
        let claims = &Claims::new(&walk);
        let (scfg, parent) = (&scfg, span.id());
        let helped = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads)
                .map(|h| scope.spawn(move || claims.help(ckt, scfg, h, parent)))
                .collect();
            let walked = walk.run(Some(claims), u64::MAX);
            claims.close();
            let stats: Vec<SettleStats> = helpers
                .into_iter()
                .map(|h| h.join().expect("CSSG helper panicked"))
                .collect();
            walked.map(|_| stats)
        })?;
        for stats in &helped {
            walk.cssg.note_settle_stats(stats);
        }
        walk.cssg.note_build_threads(threads);
    }
    span.record("threads", walk.cssg.build_threads());
    Ok(walk.finish())
}

/// Candidate `i` of a state whose own pattern is `own`: the `i`-th
/// pattern in ascending order, skipping `own` (the paper's `R_I`
/// requires an input change).
fn candidate(own: &Pattern, i: u64) -> Pattern {
    let mut p = Pattern::from_u64(own.len(), i);
    if p >= *own {
        p.increment();
    }
    p
}

/// The build loop's state between candidates.
struct Walk<'a> {
    ckt: &'a Circuit,
    cfg: &'a CssgConfig,
    settler: Settler<'a>,
    cssg: Cssg,
    /// Candidates per state: all `2^inputs − 1`, or the pattern budget.
    candidates: u64,
    /// Interned states not walked yet.  New states are pushed in intern
    /// order, so the stack ascends and the next pop is the newest.
    work: Vec<usize>,
    /// The state being walked, its own pattern and its next candidate.
    current: Option<(usize, Pattern, u64)>,
}

impl<'a> Walk<'a> {
    fn new(ckt: &'a Circuit, cfg: &'a CssgConfig, scfg: &SettlerConfig) -> Self {
        let mut cssg = Cssg::new(ckt.num_inputs(), scfg.k);
        let root = cssg.intern(ckt.initial_state().clone());
        Walk {
            ckt,
            cfg,
            settler: Settler::new(ckt, &Injection::none(), scfg),
            cssg,
            candidates: all_candidates(ckt.num_inputs())
                .min(cfg.pattern_budget.unwrap_or(u64::MAX)),
            work: vec![root],
            current: None,
        }
    }

    /// Walks until every state is done (`Ok(true)`) or, without
    /// `claims`, until the loop's own settling work reaches `join_at`
    /// (`Ok(false)`, paused before the next candidate).  With `claims`,
    /// each verdict comes from the loop's own settle or from the helper
    /// that claimed the candidate.
    fn run(&mut self, claims: Option<&Claims>, join_at: u64) -> Result<bool> {
        loop {
            let Some((si, own, at)) = self.current.as_mut().filter(|c| c.2 < self.candidates)
            else {
                let Some(si) = self.work.pop() else {
                    return Ok(true);
                };
                let own = self.ckt.input_pattern(&self.cssg.states()[si]);
                self.current = Some((si, own, 0));
                continue;
            };
            let (si, i, pattern) = (*si, *at, candidate(own, *at));
            let verdict = match claims {
                None => {
                    let done = self.settler.stats();
                    if done.settles + done.states_explored >= join_at {
                        return Ok(false);
                    }
                    None
                }
                Some(claims) => claims.take(si, i, &mut self.settler),
            };
            *at += 1;
            let verdict =
                verdict.unwrap_or_else(|| self.settler.settle(&self.cssg.states()[si], &pattern));
            match verdict {
                Settle::Confluent(next) => {
                    let fresh = self.cssg.num_states();
                    let ni = self.cssg.intern(next);
                    if ni == fresh {
                        if self.cssg.num_states() > self.cfg.max_states {
                            return Err(CoreError::CssgOverflow(self.cfg.max_states));
                        }
                        self.work.push(ni);
                        if let Some(claims) = claims {
                            claims.open(self.ckt, &self.cssg.states()[ni]);
                        }
                    }
                    self.cssg.add_edge(si, pattern, ni);
                }
                Settle::NonConfluent(_) => self.cssg.note_nonconfluent_n(1),
                Settle::Unstable(_) => self.cssg.note_unstable_n(1),
                // The interleaving set blew its cap: the pair is dropped
                // without a verdict — a truncation, not a proof.
                Settle::Truncated => self.cssg.note_truncated_n(1),
            }
        }
    }

    fn finish(mut self) -> Cssg {
        self.cssg.note_settle_stats(self.settler.stats());
        // The candidates a pattern budget leaves untried, per state.
        let skip = all_candidates(self.ckt.num_inputs()) - self.candidates;
        let states = self.cssg.num_states() as u64;
        self.cssg.note_patterns_skipped(skip.saturating_mul(states));
        self.cssg.sort_edges();
        note_build_metrics(&self.cssg);
        self.cssg
    }
}

/// Feeds one completed build's telemetry into the process metrics
/// registry (`cssg.*`, `settler.*`).  Write-only: nothing here is ever
/// read back into a build.
fn note_build_metrics(cssg: &Cssg) {
    let m = satpg_trace::metrics();
    m.counter("cssg.builds").inc();
    m.counter("cssg.patterns_skipped")
        .add(cssg.patterns_skipped());
    m.gauge("cssg.last_patterns_skipped")
        .set(cssg.patterns_skipped().min(i64::MAX as u64) as i64);
    m.histogram("cssg.states").record(cssg.num_states() as u64);
    m.histogram("cssg.edges").record(cssg.num_edges() as u64);
    m.histogram("cssg.build_threads")
        .record(cssg.build_threads() as u64);
    cssg.settle_stats().flush_metrics();
}

/// What the loop shares with its helpers once they join: one row of
/// candidates per interned state.  The loop claims a row from the bottom
/// in serial order; helpers claim from the top and land their verdicts,
/// which the loop takes when it gets there.  Every candidate is claimed
/// exactly once, so every pair is settled exactly once, and only the
/// loop interns.
struct Claims {
    table: Mutex<Table>,
    /// Signalled when a helper lands a verdict, a row opens or the build
    /// ends.
    changed: Condvar,
}

struct Table {
    rows: Vec<Row>,
    /// Rows that may still hold unclaimed candidates, ascending: the
    /// loop's row and its work stack, so the top is the newest state.
    open: Vec<usize>,
    candidates: u64,
    /// Helper verdicts the loop has not taken yet, by (row, candidate).
    landed: HashMap<(usize, u64), Settle>,
    /// Threads waiting on `changed`: a notify is a system call even with
    /// nobody waiting.
    waiting: usize,
    closed: bool,
}

/// A state, its own pattern and its unclaimed candidates `lo..hi`.
struct Row {
    state: Arc<Bits>,
    own: Pattern,
    lo: u64,
    hi: u64,
}

fn row(ckt: &Circuit, state: &Bits, lo: u64, hi: u64) -> Row {
    let (state, own) = (Arc::new(state.clone()), ckt.input_pattern(state));
    Row { state, own, lo, hi }
}

type Guard<'t> = MutexGuard<'t, Table>;

impl Claims {
    /// The table of a walk paused before its current candidate: walked
    /// rows are claimed out, the current row is open from that candidate
    /// up, and the rows on the work stack are whole.
    fn new(walk: &Walk) -> Self {
        let c = walk.candidates;
        let (current, next) =
            (walk.current.as_ref().map(|c| (c.0, c.2))).expect("paused at a candidate");
        let mut open = walk.work.clone();
        open.push(current);
        open.sort_unstable();
        let rows = (walk.cssg.states().iter().enumerate())
            .map(|(si, state)| match si {
                _ if si == current => row(walk.ckt, state, next, c),
                _ if open.binary_search(&si).is_ok() => row(walk.ckt, state, 0, c),
                _ => row(walk.ckt, state, c, c),
            })
            .collect();
        let table = Table {
            rows,
            open,
            candidates: c,
            landed: HashMap::new(),
            waiting: 0,
            closed: false,
        };
        Claims {
            table: Mutex::new(table),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> Guard<'_> {
        self.table.lock().expect("claim table lock")
    }

    fn wait<'t>(&self, mut t: Guard<'t>) -> Guard<'t> {
        t.waiting += 1;
        let mut t = self.changed.wait(t).expect("claim table lock");
        t.waiting -= 1;
        t
    }

    fn notify(&self, t: &Table) {
        if t.waiting > 0 {
            self.changed.notify_all();
        }
    }

    /// Opens the row of a newly interned state.
    fn open(&self, ckt: &Circuit, state: &Bits) {
        let mut t = self.lock();
        let (id, c) = (t.rows.len(), t.candidates);
        t.rows.push(row(ckt, state, 0, c));
        t.open.push(id);
        self.notify(&t);
    }

    /// The loop's claim on candidate `i` of row `si`: `None` when the
    /// loop settles it itself, else the verdict a helper landed.  While
    /// that verdict is in flight the loop settles another row's top
    /// candidate rather than sleep.
    fn take(&self, si: usize, i: u64, settler: &mut Settler) -> Option<Settle> {
        let mut t = self.lock();
        let row = &mut t.rows[si];
        if i < row.hi {
            row.lo = i + 1;
            return None;
        }
        loop {
            if let Some(verdict) = t.landed.remove(&(si, i)) {
                return Some(verdict);
            }
            t = self.settle_one(t, settler).unwrap_or_else(|t| self.wait(t));
        }
    }

    /// One helper: settles claimed candidates until the build ends.  Its
    /// span parents under the build span on the spawning thread.
    fn help(&self, ckt: &Circuit, scfg: &SettlerConfig, helper: usize, parent: u64) -> SettleStats {
        let _span = satpg_trace::Span::enter_with_parent(
            "cssg.shard",
            parent,
            vec![("helper", satpg_trace::ArgValue::from(helper))],
        );
        let mut settler = Settler::new(ckt, &Injection::none(), scfg);
        let mut t = self.lock();
        while !t.closed {
            t = match self.settle_one(t, &mut settler) {
                Ok(t) => {
                    self.notify(&t);
                    t
                }
                Err(t) => self.wait(t),
            };
        }
        settler.take_stats()
    }

    /// Claims the top candidate of the newest open row, settles it
    /// outside the lock and lands the verdict; `Err` when no row has an
    /// unclaimed candidate.
    fn settle_one<'t>(
        &'t self,
        mut t: Guard<'t>,
        settler: &mut Settler,
    ) -> std::result::Result<Guard<'t>, Guard<'t>> {
        let si = loop {
            let Some(&top) = t.open.last() else {
                return Err(t);
            };
            if t.rows[top].lo < t.rows[top].hi {
                break top;
            }
            t.open.pop();
        };
        let row = &mut t.rows[si];
        row.hi -= 1;
        let (i, state, pattern) = (row.hi, row.state.clone(), candidate(&row.own, row.hi));
        drop(t);
        // The loop needs a verdict's kind and a confluent state only:
        // free the other payloads on the thread that allocated them.
        let verdict = match settler.settle(&state, &pattern) {
            Settle::NonConfluent(_) => Settle::NonConfluent(Vec::new()),
            Settle::Unstable(_) => Settle::Unstable(Vec::new()),
            verdict => verdict,
        };
        let mut t = self.lock();
        t.landed.insert((si, i), verdict);
        Ok(t)
    }

    /// Ends the build: idle helpers wake and return.
    fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satpg_netlist::{families, library};

    #[test]
    fn c_element_cssg_is_complete() {
        let ckt = library::c_element();
        let g = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        // Stable states: y=0 with any inputs not both 1; y=1 with any
        // inputs not both 0 — 3 + 3 = 6... but only those reachable from
        // reset (A=B=y=0).
        assert!(g.num_states() >= 4, "got {}", g.num_states());
        // From reset every pattern change is confluent: raising one or
        // both inputs of a low C-element cannot race.
        assert_eq!(g.edges(0).len(), 3);
        // But elsewhere simultaneous opposite input changes race against
        // the held state (e.g. AB: 10 → 01 with y=1), so pruning happens.
        assert!(g.pruned_nonconfluent() > 0);
    }

    #[test]
    fn figure1a_prunes_racy_pattern() {
        let ckt = library::figure1a();
        let g = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        // From the reset state (A=0, B=1) the pattern AB=10 races; it must
        // be pruned while other patterns stay.
        let reset = g.initial();
        assert!(g.successor(reset, 0b01).is_none(), "racing vector pruned");
        assert!(g.pruned_nonconfluent() > 0);
    }

    #[test]
    fn figure1b_prunes_oscillating_pattern() {
        let ckt = library::figure1b();
        let g = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        let reset = g.initial();
        // Raising A (pattern bit 0) oscillates.
        assert!(g.successor(reset, 0b01).is_none());
        assert!(g.successor(reset, 0b11).is_none());
        assert!(g.pruned_unstable() > 0);
        // Raising B alone is harmless.
        assert!(g.successor(reset, 0b10).is_some());
    }

    #[test]
    fn edges_form_closed_graph() {
        for ckt in library::all() {
            let g = build_cssg(&ckt, &CssgConfig::default()).unwrap();
            for s in 0..g.num_states() {
                assert!(ckt.is_stable(&g.states()[s]), "{}: state {s}", ckt.name());
                for (p, t) in g.edges(s) {
                    assert!(*t < g.num_states());
                    assert_eq!(
                        &ckt.input_pattern(&g.states()[*t]),
                        p,
                        "{}: successor holds the applied pattern",
                        ckt.name()
                    );
                }
            }
        }
    }

    #[test]
    fn unstable_reset_is_rejected() {
        use satpg_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("osc");
        let a = b.input("A", "a");
        let fb = b.signal("x");
        b.gate("y", GateKind::Nand, vec![a, fb]);
        let y = b.signal("y");
        b.gate("x", GateKind::Buf, vec![y]);
        b.init("A", true);
        b.init("a", true);
        b.init("y", true);
        // x=0 but buf(y)=1: excited at reset.
        let ckt = b.finish();
        // The builder itself rejects unstable initial states, so this
        // construction cannot even produce a circuit — which is the same
        // guarantee CssgConfig relies on.
        assert!(ckt.is_err());
    }

    #[test]
    fn self_pattern_is_skipped() {
        let ckt = library::c_element();
        let g = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        for s in 0..g.num_states() {
            let cur = ckt.input_pattern(&g.states()[s]);
            assert!(g.successor(s, cur).is_none(), "no self-pattern edges");
        }
    }

    /// Field-by-field bit identity of two CSSGs (states in order, edge
    /// lists in order, every counter).  Work counters too: every pair is
    /// analysed exactly once by a deterministic engine, so even the POR
    /// ledger matches.
    fn assert_identical(a: &Cssg, b: &Cssg, ctx: &str) {
        let counts = |g: &Cssg| {
            [
                g.pruned_nonconfluent(),
                g.pruned_unstable(),
                g.pruned_truncated(),
            ]
        };
        assert_eq!(counts(a), counts(b), "{ctx}: pruning counters");
        assert_eq!((a.k(), a.num_inputs()), (b.k(), b.num_inputs()), "{ctx}");
        assert_eq!(a.patterns_skipped(), b.patterns_skipped(), "{ctx}: skips");
        assert_eq!(a.settle_stats(), b.settle_stats(), "{ctx}: settle stats");
        assert_eq!(a.states(), b.states(), "{ctx}: state vector");
        for s in 0..a.num_states() {
            assert_eq!(a.edges(s), b.edges(s), "{ctx}: edges of state {s}");
        }
    }

    /// The build loop with helpers joining after `helpers_after` units
    /// of work, against the serial build.
    fn assert_helped_build_identical(ckt: &Circuit, cfg: &CssgConfig, helpers_after: u64) {
        let serial = build_cssg(ckt, cfg).unwrap();
        assert_eq!(serial.build_threads(), 1);
        for threads in 2..=4 {
            let helped = build(ckt, cfg, threads, helpers_after).unwrap();
            let ctx = format!("{} @ {threads} threads after {helpers_after}", ckt.name());
            assert_eq!(helped.build_threads(), threads, "{ctx}: helpers joined");
            assert_identical(&serial, &helped, &ctx);
        }
    }

    #[test]
    fn sharded_build_is_bit_identical_on_library() {
        for ckt in library::all() {
            assert_helped_build_identical(&ckt, &CssgConfig::default(), 0);
            for shards in 1..=4 {
                let sharded = build_cssg_sharded(&ckt, &CssgConfig::default(), shards).unwrap();
                assert_eq!(sharded.build_threads(), 1, "below the threshold");
            }
        }
    }

    #[test]
    fn sharded_build_matches_under_exact_semantics() {
        // The exact (no ternary fast path) semantics exercises the
        // interleaving-set tracking on every pattern.
        let cfg = CssgConfig {
            ternary_fast_path: false,
            ..CssgConfig::default()
        };
        for ckt in library::all() {
            assert_helped_build_identical(&ckt, &cfg, 0);
        }
        // Helpers joining mid-row and mid-walk, and a row of a pattern
        // budget past 64 inputs.
        let arbiter = families::arbiter_tree(3);
        for after in [1, 64] {
            assert_helped_build_identical(&arbiter, &cfg, after);
        }
        let wide = CssgConfig {
            pattern_budget: Some(8),
            ..cfg
        };
        assert_helped_build_identical(&families::arbiter_tree(65), &wide, 0);
    }

    #[test]
    fn sharded_build_reports_overflow_like_serial() {
        let ckt = library::muller_pipeline2();
        let cfg = CssgConfig {
            max_states: 2,
            ..CssgConfig::default()
        };
        assert!(matches!(
            build_cssg(&ckt, &cfg),
            Err(CoreError::CssgOverflow(2))
        ));
        for threads in [1, 4] {
            assert!(
                matches!(
                    build(&ckt, &cfg, threads, 0),
                    Err(CoreError::CssgOverflow(2))
                ),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn small_k_prunes_slow_settles() {
        let ckt = library::muller_pipeline2();
        let strict = CssgConfig {
            k: Some(2),
            ternary_fast_path: false,
            ..CssgConfig::default()
        };
        let loose = CssgConfig::default();
        let gs = build_cssg(&ckt, &strict).unwrap();
        let gl = build_cssg(&ckt, &loose).unwrap();
        assert!(gs.num_edges() < gl.num_edges(), "k gates the edge set");
    }
}
