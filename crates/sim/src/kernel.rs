//! The compiled settle kernel: every gate of a (circuit, injection) pair
//! as word masks over packed states.
//!
//! [`crate::Settler`] runs the whole §4.1 analysis on `u64` state words:
//! the ternary fast path (algorithms A and B on dual-rail words), the
//! excitation masks the frontier carries, and the POR ample check.  The
//! table is built once per settler; forced pins fold to constants and a
//! forced output becomes a constant gate, so no evaluation consults the
//! injection again.
//!
//! Two evaluations read one table.  Binary evaluation equals
//! [`crate::eval_gate_inj`]; dual-rail evaluation equals
//! [`crate::eval_gate_ternary`] with its Kleene semantics exactly.  The
//! dual rails are two words per state word, "may be 0" and "may be 1":
//! a definite signal sets one of its two bits, Φ sets both.  In that
//! encoding Kleene ∧, ∨ and ¬ and the information-order lub are plain
//! bitwise operations, so the ternary passes run without a branch per
//! value.  Two traps keep the semantics exact: a cube holding both `x`
//! and `¬x` is *not* folded to 0 (Φ ∧ ¬Φ = Φ), and a parity gate goes Φ
//! on any Φ pin even when the pin cancels out of its parity mask
//! (`Xor(x, x)`).

use crate::inject::Injection;
use crate::ternary::{Trit, TritVec};
use satpg_netlist::{Circuit, GateId, GateKind, Literal, Pattern};

/// One state word of a product term: the pins that must read 1 (`pos`)
/// and 0 (`neg`) in word `w`.  For a parity gate `pos` is the parity
/// mask (pins XOR-accumulated) and `neg` the any-pin mask (OR-accumulated).
#[derive(Clone, Copy, Debug)]
struct Lits {
    w: u32,
    pos: u64,
    neg: u64,
}

/// A half-open range into one of the kernel's tables.
type Span = (u32, u32);

/// A compiled gate function.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A constant: a forced output, a `Const` gate, or a function the
    /// forced pins decide.
    Const(bool),
    /// `inv ⊕ cube`, the cube inside state word `w`.
    Cube1 {
        w: u32,
        pos: u64,
        neg: u64,
        inv: bool,
    },
    /// `inv ⊕ ∨ cubes`: a span of `cubes`, each a span of `lits`.
    Sop { cubes: Span, inv: bool },
    /// `konst ⊕ parity(pins)`, the pins a span of `lits`.
    Parity { lits: Span, konst: bool },
    /// A C-element with no forced pin and every pin in word `w`.
    C1 { w: u32, pins: u64 },
    /// A C-element, `ones ∨ (out ∧ ¬zeros)` over its all-ones and
    /// all-zeros cubes; `None` is a cube a forced pin made constant 0.
    C {
        ones: Option<Span>,
        zeros: Option<Span>,
    },
}

/// A compiled gate: its function and its output's word and bit.
#[derive(Clone, Copy, Debug)]
struct Cell {
    op: Op,
    w: u32,
    bit: u64,
}

/// A ternary value as (may be 0, may be 1): 0 is `(1, 0)`, 1 is
/// `(0, 1)`, Φ is `(1, 1)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Tv {
    may0: bool,
    may1: bool,
}

impl Tv {
    const ZERO: Tv = Tv {
        may0: true,
        may1: false,
    };

    #[inline]
    fn definite(v: bool) -> Tv {
        Tv { may0: !v, may1: v }
    }

    /// Kleene conjunction.
    #[inline]
    fn and(self, o: Tv) -> Tv {
        Tv {
            may0: self.may0 | o.may0,
            may1: self.may1 & o.may1,
        }
    }

    /// Kleene disjunction.
    #[inline]
    fn or(self, o: Tv) -> Tv {
        Tv {
            may0: self.may0 & o.may0,
            may1: self.may1 | o.may1,
        }
    }

    /// Negation when `inv`.
    #[inline]
    fn invert(self, inv: bool) -> Tv {
        if inv {
            Tv {
                may0: self.may1,
                may1: self.may0,
            }
        } else {
            self
        }
    }

    /// Least upper bound in the information order.
    #[inline]
    fn lub(self, o: Tv) -> Tv {
        Tv {
            may0: self.may0 | o.may0,
            may1: self.may1 | o.may1,
        }
    }

    fn trit(self) -> Trit {
        match (self.may0, self.may1) {
            (true, false) => Trit::Zero,
            (false, true) => Trit::One,
            _ => Trit::X,
        }
    }
}

/// The dual-rail scratch of the ternary passes, plus the ample check's
/// worklist.  Bit `i` of `may0`/`may1` says signal `i` may be 0/1.
pub(crate) struct DualRail {
    may0: Vec<u64>,
    may1: Vec<u64>,
    work: Vec<u32>,
}

impl DualRail {
    pub(crate) fn new(words: usize) -> Self {
        DualRail {
            may0: vec![0; words],
            may1: vec![0; words],
            work: Vec::new(),
        }
    }

    /// Loads the definite state `s`.
    fn load(&mut self, s: &[u64]) {
        self.may1.copy_from_slice(s);
        for (z, &w) in self.may0.iter_mut().zip(s) {
            *z = !w;
        }
    }

    /// The state, when no signal is Φ.
    pub(crate) fn definite(&self) -> Option<&[u64]> {
        let phi = self.may0.iter().zip(&self.may1).any(|(z, o)| z & o != 0);
        (!phi).then_some(&self.may1[..])
    }

    #[inline]
    fn get(&self, w: usize, bit: u64) -> Tv {
        Tv {
            may0: self.may0[w] & bit != 0,
            may1: self.may1[w] & bit != 0,
        }
    }

    #[inline]
    fn set(&mut self, w: usize, bit: u64, t: Tv) {
        self.may0[w] = (self.may0[w] & !bit) | (bit * u64::from(t.may0));
        self.may1[w] = (self.may1[w] & !bit) | (bit * u64::from(t.may1));
    }

    #[inline]
    fn is_phi(&self, w: usize, bit: u64) -> bool {
        self.may0[w] & self.may1[w] & bit != 0
    }
}

/// Kleene value of the product of one word's literals over dual-rail
/// words `z` (may be 0) and `o` (may be 1): the pins in `pos` must read
/// one and those in `neg` zero.  The product may be 1 when every literal
/// may hold, and may be 0 when some literal may fail.
#[inline]
fn lits_tv(pos: u64, neg: u64, z: u64, o: u64) -> Tv {
    Tv {
        may0: (z & pos) | (o & neg) != 0,
        may1: (o & pos == pos) & (z & neg == neg),
    }
}

#[inline]
fn range((a, b): Span) -> std::ops::Range<usize> {
    a as usize..b as usize
}

/// The compiled gate table of one (circuit, injection) pair.
pub(crate) struct Kernel {
    /// Primary inputs `m` (signal `m + g` is gate `g`'s output).
    m: usize,
    /// State bits.
    n: usize,
    cells: Vec<Cell>,
    lits: Vec<Lits>,
    cubes: Vec<Span>,
    /// Readers of signal `s`: `readers[rstart[s]..rstart[s + 1]]`, the
    /// gates whose evaluation reads `s` under the injection.
    rstart: Vec<u32>,
    readers: Vec<u32>,
    /// Per gate, one mask per state word: the signals the ample check
    /// needs definite — the gate's support plus the outputs of the other
    /// gates reading its output.
    watch: Vec<u64>,
    /// Per state word, the primary-input bits.
    inputs: Vec<u64>,
}

impl Kernel {
    /// Compiles `ckt` under `inj`.
    pub(crate) fn new(ckt: &Circuit, inj: &Injection) -> Self {
        let (m, n, ng) = (ckt.num_inputs(), ckt.num_state_bits(), ckt.num_gates());
        let words = n.div_ceil(64);
        // The readers table, counted then filled.
        let mut rstart = vec![0u32; n + 1];
        for g in 0..ng {
            deps(ckt, GateId(g as u32), inj, |s| rstart[s + 1] += 1);
        }
        for s in 0..n {
            rstart[s + 1] += rstart[s];
        }
        let mut fill = rstart.clone();
        let mut readers = vec![0u32; rstart[n] as usize];
        for g in 0..ng {
            deps(ckt, GateId(g as u32), inj, |s| {
                readers[fill[s] as usize] = g as u32;
                fill[s] += 1;
            });
        }
        let mut watch = vec![0u64; ng * words];
        for g in 0..ng {
            let mask = &mut watch[g * words..(g + 1) * words];
            let mut set = |s: usize| mask[s / 64] |= 1 << (s % 64);
            deps(ckt, GateId(g as u32), inj, &mut set);
            let out = m + g;
            for &h in &readers[rstart[out] as usize..rstart[out + 1] as usize] {
                if h as usize != g {
                    set(m + h as usize);
                }
            }
        }
        let mut k = Kernel {
            m,
            n,
            cells: Vec::with_capacity(ng),
            lits: Vec::with_capacity(ng),
            cubes: Vec::new(),
            rstart,
            readers,
            watch,
            inputs: (0..m.div_ceil(64))
                .map(|w| match m - 64 * w {
                    r if r >= 64 => u64::MAX,
                    r => (1u64 << r) - 1,
                })
                .collect(),
        };
        for i in 0..ng {
            let g = GateId(i as u32);
            let op = k.compile(ckt, g, inj);
            let o = ckt.gate_output(g).index();
            k.cells.push(Cell {
                op,
                w: (o / 64) as u32,
                bit: 1 << (o % 64),
            });
        }
        k
    }

    /// Words per state.
    pub(crate) fn words(&self) -> usize {
        self.n.div_ceil(64)
    }

    /// State bits.
    pub(crate) fn num_bits(&self) -> usize {
        self.n
    }

    /// The word and bit of gate `g`'s output.
    #[inline]
    pub(crate) fn output(&self, g: usize) -> (usize, u64) {
        (self.cells[g].w as usize, self.cells[g].bit)
    }

    /// Overwrites the primary-input bits of `s` with `pattern`.
    pub(crate) fn apply(&self, s: &mut [u64], pattern: &Pattern) {
        for (w, &mask) in self.inputs.iter().enumerate() {
            s[w] = (s[w] & !mask) | (pattern.word(w) & mask);
        }
    }

    /// Compiles gate `g`'s function under the injection.
    fn compile(&mut self, ckt: &Circuit, g: GateId, inj: &Injection) -> Op {
        if let Some(v) = inj.output_force(g) {
            return Op::Const(v);
        }
        let gate = ckt.gate(g);
        let pins = |positive| (0..gate.inputs.len()).map(move |pin| Literal { pin, positive });
        let start = self.cubes.len();
        let (cube, inv) = match &gate.kind {
            GateKind::Const(v) => return Op::Const(*v),
            GateKind::Input | GateKind::Buf => (self.cube(ckt, g, inj, pins(true)), false),
            GateKind::Not => (self.cube(ckt, g, inj, pins(false)), false),
            GateKind::And => (self.cube(ckt, g, inj, pins(true)), false),
            GateKind::Nand => (self.cube(ckt, g, inj, pins(true)), true),
            // Kleene logic keeps De Morgan: ∨ x = ¬∧ ¬x.
            GateKind::Or => (self.cube(ckt, g, inj, pins(false)), true),
            GateKind::Nor => (self.cube(ckt, g, inj, pins(false)), false),
            GateKind::Sop(s) => {
                for c in &s.cubes {
                    if let Some(span) = self.cube(ckt, g, inj, c.0.iter().copied()) {
                        self.cubes.push(span);
                    }
                }
                return self.sum(start, false);
            }
            GateKind::Xor | GateKind::Xnor => {
                let start = self.lits.len();
                let mut konst = gate.kind == GateKind::Xnor;
                for (p, s) in gate.inputs.iter().enumerate() {
                    match inj.pin_force(g, p) {
                        Some(v) => konst ^= v,
                        None => {
                            let (l, bit) = self.word_of(start, s.index());
                            l.pos ^= bit;
                            l.neg |= bit;
                        }
                    }
                }
                return match self.lits.len() {
                    end if end == start => Op::Const(konst),
                    end => Op::Parity {
                        lits: (start as u32, end as u32),
                        konst,
                    },
                };
            }
            GateKind::C => {
                let ones = self.cube(ckt, g, inj, pins(true));
                let zeros = self.cube(ckt, g, inj, pins(false));
                return match ones {
                    Some((a, b)) if b == a + 1 && !inj.touches(g) => {
                        let l = self.lits[a as usize];
                        Op::C1 {
                            w: l.w,
                            pins: l.pos,
                        }
                    }
                    _ => Op::C { ones, zeros },
                };
            }
        };
        self.cubes.extend(cube);
        self.sum(start, inv)
    }

    /// `inv ⊕` the sum of the cubes `cubes[start..]`, the ones a forced
    /// pin falsified already dropped: a cube a forced pin made constant
    /// 1 decides the sum, and a single one-word cube gets `Cube1`.
    fn sum(&mut self, start: usize, inv: bool) -> Op {
        let live = &self.cubes[start..];
        let op = if live.iter().any(|&(a, b)| a == b) {
            Op::Const(!inv)
        } else {
            match *live {
                [] => Op::Const(inv),
                [(a, b)] if b == a + 1 => {
                    let l = self.lits[a as usize];
                    Op::Cube1 {
                        w: l.w,
                        pos: l.pos,
                        neg: l.neg,
                        inv,
                    }
                }
                _ => {
                    return Op::Sop {
                        cubes: (start as u32, self.cubes.len() as u32),
                        inv,
                    }
                }
            }
        };
        self.cubes.truncate(start);
        op
    }

    /// The product of `lits` over gate `g`'s pins, forced pins folded:
    /// `None` when a forced pin falsifies it.  A pin read in both
    /// polarities keeps both bits (the cube is 0 on definite values but
    /// Φ under Φ).
    fn cube(
        &mut self,
        ckt: &Circuit,
        g: GateId,
        inj: &Injection,
        lits: impl Iterator<Item = Literal>,
    ) -> Option<Span> {
        let start = self.lits.len();
        for l in lits {
            match inj.pin_force(g, l.pin) {
                Some(v) if v != l.positive => {
                    self.lits.truncate(start);
                    return None;
                }
                Some(_) => {}
                None => {
                    let (e, bit) = self.word_of(start, ckt.gate(g).inputs[l.pin].index());
                    if l.positive {
                        e.pos |= bit;
                    } else {
                        e.neg |= bit;
                    }
                }
            }
        }
        Some((start as u32, self.lits.len() as u32))
    }

    /// The entry of `lits[start..]` for signal `s`'s word (appended if
    /// missing), and `s`'s bit.
    fn word_of(&mut self, start: usize, s: usize) -> (&mut Lits, u64) {
        let w = (s / 64) as u32;
        let i = match self.lits[start..].iter().position(|l| l.w == w) {
            Some(i) => start + i,
            None => {
                self.lits.push(Lits { w, pos: 0, neg: 0 });
                self.lits.len() - 1
            }
        };
        (&mut self.lits[i], 1 << (s % 64))
    }

    #[inline]
    fn cube_holds(&self, c: Span, s: &[u64]) -> bool {
        self.lits[range(c)].iter().all(|l| {
            let x = s[l.w as usize];
            x & l.pos == l.pos && x & l.neg == 0
        })
    }

    #[inline]
    fn cube_tv(&self, c: Span, d: &DualRail) -> Tv {
        self.lits[range(c)].iter().fold(Tv::definite(true), |t, l| {
            let w = l.w as usize;
            t.and(lits_tv(l.pos, l.neg, d.may0[w], d.may1[w]))
        })
    }

    /// Gate `g`'s function in binary state `s`.
    #[inline]
    pub(crate) fn eval(&self, g: usize, s: &[u64]) -> bool {
        let cell = &self.cells[g];
        let out = || s[cell.w as usize] & cell.bit != 0;
        match cell.op {
            Op::Const(v) => v,
            Op::Cube1 { w, pos, neg, inv } => {
                let x = s[w as usize];
                inv ^ (x & pos == pos && x & neg == 0)
            }
            Op::Sop { cubes, inv } => {
                inv ^ self.cubes[range(cubes)]
                    .iter()
                    .any(|&c| self.cube_holds(c, s))
            }
            Op::Parity { lits, konst } => {
                let ones: u32 = self.lits[range(lits)]
                    .iter()
                    .map(|l| (s[l.w as usize] & l.pos).count_ones())
                    .sum();
                konst ^ (ones % 2 == 1)
            }
            Op::C1 { w, pins } => {
                let x = s[w as usize] & pins;
                x == pins || (x != 0 && out())
            }
            Op::C { ones, zeros } => {
                ones.is_some_and(|c| self.cube_holds(c, s))
                    || (out() && !zeros.is_some_and(|c| self.cube_holds(c, s)))
            }
        }
    }

    /// Gate `g`'s function in the dual-rail state `d` (Kleene semantics).
    #[cfg(test)]
    fn eval_trit(&self, g: usize, d: &DualRail) -> Trit {
        self.eval_tv(g, d).trit()
    }

    #[inline]
    fn eval_tv(&self, g: usize, d: &DualRail) -> Tv {
        let cell = &self.cells[g];
        let out = || d.get(cell.w as usize, cell.bit);
        match cell.op {
            Op::Const(v) => Tv::definite(v),
            Op::Cube1 { w, pos, neg, inv } => {
                let w = w as usize;
                lits_tv(pos, neg, d.may0[w], d.may1[w]).invert(inv)
            }
            Op::Sop { cubes, inv } => self.cubes[range(cubes)]
                .iter()
                .fold(Tv::ZERO, |t, &c| t.or(self.cube_tv(c, d)))
                .invert(inv),
            Op::Parity { lits, konst } => {
                let lits = &self.lits[range(lits)];
                let phi = lits.iter().any(|l| {
                    let w = l.w as usize;
                    d.may0[w] & d.may1[w] & l.neg != 0
                });
                let ones: u32 = lits
                    .iter()
                    .map(|l| (d.may1[l.w as usize] & l.pos).count_ones())
                    .sum();
                let v = konst ^ (ones % 2 == 1);
                Tv {
                    may0: phi | !v,
                    may1: phi | v,
                }
            }
            Op::C1 { w, pins } => {
                let (z, o) = (d.may0[w as usize], d.may1[w as usize]);
                let zeros = lits_tv(0, pins, z, o);
                lits_tv(pins, 0, z, o).or(out().and(zeros.invert(true)))
            }
            Op::C { ones, zeros } => {
                let ones = ones.map_or(Tv::ZERO, |c| self.cube_tv(c, d));
                let zeros = zeros.map_or(Tv::ZERO, |c| self.cube_tv(c, d));
                ones.or(out().and(zeros.invert(true)))
            }
        }
    }

    /// Sets or clears gate `h`'s bit in the excitation mask `e` (bit
    /// `out(h)` set iff `h` is excited in `s`).
    #[inline]
    fn mark(&self, h: usize, s: &[u64], e: &mut [u64]) {
        let Cell { w, bit, .. } = self.cells[h];
        let w = w as usize;
        if self.eval(h, s) != (s[w] & bit != 0) {
            e[w] |= bit;
        } else {
            e[w] &= !bit;
        }
    }

    /// The excitation mask of `s`, computed over every gate.
    pub(crate) fn excitation(&self, s: &[u64], e: &mut [u64]) {
        e.fill(0);
        for h in 0..self.cells.len() {
            self.mark(h, s, e);
        }
    }

    /// Brings `e`, the excitation mask of the state gate `g` just fired
    /// from, up to date for the successor `t`.  Firing `g` changes only
    /// `out(g)`, so only `g` and the readers of `out(g)` can change.
    pub(crate) fn refire(&self, g: usize, t: &[u64], e: &mut [u64]) {
        self.mark(g, t, e);
        for &h in self.readers_of(self.m + g) {
            self.mark(h as usize, t, e);
        }
    }

    #[inline]
    fn readers_of(&self, s: usize) -> &[u32] {
        &self.readers[self.rstart[s] as usize..self.rstart[s + 1] as usize]
    }

    /// Calls `f` with each gate whose output bit is set in `e`, in gate
    /// order, while `f` returns `true`; returns whether it always did.
    #[inline]
    pub(crate) fn each_gate(&self, e: &[u64], mut f: impl FnMut(usize) -> bool) -> bool {
        for (w, &word) in e.iter().enumerate() {
            let mut b = word;
            while b != 0 {
                if !f(64 * w + b.trailing_zeros() as usize - self.m) {
                    return false;
                }
                b &= b - 1;
            }
        }
        true
    }

    /// Eichelberger's algorithms A then B on `start`, in place on `d`,
    /// with `ternary_settle`'s gate order and sweep bound.  The outcome
    /// is definite when [`DualRail::definite`] then returns a state.
    pub(crate) fn ternary_settle(&self, d: &mut DualRail, start: &[u64]) {
        d.load(start);
        self.sweep(d, true);
        self.sweep(d, false);
    }

    /// Gauss–Seidel sweeps of `out := lub(out, eval)` (algorithm A) or
    /// `out := eval` (B) until one changes nothing.
    fn sweep(&self, d: &mut DualRail, lub: bool) {
        for _ in 0..2 * self.n + 2 {
            let mut changed = false;
            for (g, cell) in self.cells.iter().enumerate() {
                let w = cell.w as usize;
                let cur = d.get(w, cell.bit);
                let e = self.eval_tv(g, d);
                let next = if lub { cur.lub(e) } else { e };
                if next != cur {
                    d.set(w, cell.bit, next);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
        unreachable!("ternary fixpoint did not converge within bound");
    }

    /// Persistent-singleton selection in state `s` with excitation `e`:
    /// the first excited gate (in id order, for determinism) whose firing
    /// provably commutes with every transition that could precede it.
    ///
    /// Candidate `g` qualifies when the ternary reachability fixpoint
    /// from `s` **with `g` frozen** (an over-approximation of every run
    /// that does not fire `g`) shows that
    ///
    /// 1. no signal in `g`'s support can change — `g` stays excited with
    ///    the same target value until it fires, and everything fireable
    ///    before it leaves `g` alone; and
    /// 2. no gate reading `g`'s output can fire — firing `g` first does
    ///    not change what any of those runs do.
    ///
    /// Together these make `{g}` a persistent set in `s`: every maximal
    /// interleaving permutes to one firing `g` first, preserving run
    /// lengths and the reachable settled states exactly
    /// (`crates/sim/DESIGN.md`).  Both conditions read one mask per
    /// gate (`watch`): nothing it covers may be Φ.
    pub(crate) fn ample(&self, d: &mut DualRail, s: &[u64], e: &[u64]) -> Option<usize> {
        let words = self.words();
        let mut found = None;
        self.each_gate(e, |g| {
            d.load(s);
            self.frozen_reach(d, e, g);
            let watch = &self.watch[g * words..(g + 1) * words];
            let phi = d.may0.iter().zip(&d.may1).map(|(z, o)| z & o);
            if watch.iter().zip(phi).all(|(m, x)| m & x == 0) {
                found = Some(g);
                return false;
            }
            true
        });
        found
    }

    /// Algorithm A (monotone lub fixpoint) with `frozen`'s output pinned,
    /// on `d` (which holds a definite state `s` with excitation `e` on
    /// entry): the Φ positions over-approximate every signal that can
    /// differ from `s` in any run that never fires `frozen`.
    ///
    /// Event-driven: only a gate excited in `s` can move first, and a
    /// gate can only move after one of the signals it reads has, so the
    /// worklist starts from `e` and follows the readers.  Each signal
    /// moves at most once (definite to Φ), so the result is the same
    /// least fixpoint a Gauss–Seidel sweep reaches, at the cost of the
    /// frozen cone.
    fn frozen_reach(&self, d: &mut DualRail, e: &[u64], frozen: usize) {
        let mut work = std::mem::take(&mut d.work);
        work.clear();
        self.each_gate(e, |h| {
            if h != frozen {
                work.push(h as u32);
            }
            true
        });
        let mut next = 0;
        while let Some(&h) = work.get(next) {
            next += 1;
            let Cell { w, bit, .. } = self.cells[h as usize];
            let w = w as usize;
            if d.is_phi(w, bit) || self.eval_tv(h as usize, d) == d.get(w, bit) {
                continue;
            }
            d.may0[w] |= bit;
            d.may1[w] |= bit;
            for &r in self.readers_of(self.m + h as usize) {
                let c = &self.cells[r as usize];
                if r as usize != frozen && !d.is_phi(c.w as usize, c.bit) {
                    work.push(r);
                }
            }
        }
        d.work = work;
    }

    /// The frozen fixpoint of `s` with gate `frozen` pinned, as a
    /// [`TritVec`] (the ample check's view, exposed for the tests).
    pub(crate) fn frozen_fixpoint(&self, d: &mut DualRail, s: &[u64], frozen: usize) -> TritVec {
        let mut e = vec![0; self.words()];
        self.excitation(s, &mut e);
        d.load(s);
        self.frozen_reach(d, &e, frozen);
        TritVec(
            (0..self.n)
                .map(|i| d.get(i / 64, 1 << (i % 64)).trit())
                .collect(),
        )
    }
}

/// Calls `f` with each signal gate `g`'s evaluation depends on, under
/// the injection: unforced input pins, plus the gate's own output when
/// the function reads it (C-elements hold state).  A forced output reads
/// nothing (the evaluation is constant).  A signal on two pins comes
/// twice; every use tolerates that.
fn deps(ckt: &Circuit, g: GateId, inj: &Injection, mut f: impl FnMut(usize)) {
    if inj.output_force(g).is_some() {
        return;
    }
    let gate = ckt.gate(g);
    for (p, s) in gate.inputs.iter().enumerate() {
        if inj.pin_force(g, p).is_none() {
            f(s.index());
        }
    }
    if matches!(gate.kind, GateKind::C) {
        f(ckt.gate_output(g).index());
    }
}

#[cfg(test)]
mod tests {
    //! The compiled kernel against the scalar reference
    //! (`eval_gate_inj`, `eval_gate_ternary`, `ternary_settle`).
    use super::*;
    use crate::inject::{eval_gate_inj, is_excited_inj, Site};
    use crate::ternary::{eval_gate_ternary, ternary_settle, TernaryOutcome};
    use proptest::prelude::*;
    use satpg_netlist::{families, library, Bits, CircuitBuilder, Cube, Sop};

    /// splitmix64: a tiny deterministic generator for states and walks.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random circuit in the style of `tests/props.rs`, extended with
    /// XNOR, buffers and SOP gates whose cubes take random literal
    /// polarities and may repeat a pin.  `pad` extra inputs no gate
    /// reads push every gate output past the first word.
    fn random_circuit(seed: u64, pad: usize) -> Option<Circuit> {
        let mut r = Rng(seed);
        let (ni, ng) = (1 + r.below(3), 1 + r.below(8));
        let mut b = CircuitBuilder::new("random");
        let mut names: Vec<String> = (0..ni).map(|i| format!("i{i}")).collect();
        for i in 0..ni {
            b.input(format!("I{i}"), format!("i{i}"));
        }
        for z in 0..pad {
            b.input(format!("Z{z}"), format!("z{z}"));
        }
        names.extend((0..ng).map(|g| format!("g{g}")));
        for g in 0..ng {
            let arity = 1 + r.below(4);
            let ins: Vec<_> = (0..arity)
                .map(|_| b.signal(names[r.below(names.len())].clone()))
                .collect();
            let kind = match r.below(10) {
                0 => GateKind::And,
                1 => GateKind::Or,
                2 => GateKind::Nand,
                3 => GateKind::Nor,
                4 => GateKind::Xor,
                5 => GateKind::Xnor,
                6 if arity >= 2 => GateKind::C,
                7 => GateKind::Sop(Sop {
                    cubes: (0..1 + r.below(3))
                        .map(|_| {
                            Cube(
                                (0..1 + r.below(3))
                                    .map(|_| Literal {
                                        pin: r.below(arity),
                                        positive: r.next() & 1 == 1,
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                }),
                8 => GateKind::Buf,
                _ => GateKind::Not,
            };
            let ins = match kind.fixed_arity() {
                Some(a) => ins.into_iter().take(a).collect(),
                None => ins,
            };
            b.gate(format!("g{g}"), kind, ins);
        }
        let last = b.signal(format!("g{}", ng - 1));
        b.output(last);
        b.settle_initial();
        b.finish().ok()
    }

    /// The good machine and every single stuck-at fault.
    fn injections(ckt: &Circuit) -> Vec<Injection> {
        let mut all = vec![Injection::none()];
        for i in 0..ckt.num_gates() {
            let g = GateId(i as u32);
            let sites = (0..ckt.gate(g).inputs.len()).map(Site::Pin);
            for site in sites.chain([Site::Output]) {
                for v in [false, true] {
                    all.push(Injection::single(g, site, v));
                }
            }
        }
        all
    }

    fn random_bits(r: &mut Rng, n: usize) -> Bits {
        Bits::from_fn(n, |_| r.next() & 1 == 1)
    }

    /// A random ternary state (about a third Φ) and its dual-rail form.
    fn random_trits(r: &mut Rng, n: usize) -> (TritVec, DualRail) {
        let mut d = DualRail::new(n.div_ceil(64));
        let tv = TritVec(
            (0..n)
                .map(|i| {
                    let t = [Trit::Zero, Trit::One, Trit::X][r.below(3)];
                    set_trit(&mut d, i, t);
                    t
                })
                .collect(),
        );
        (tv, d)
    }

    fn set_trit(d: &mut DualRail, i: usize, t: Trit) {
        let tv = match t.to_bool() {
            Some(v) => Tv::definite(v),
            None => Tv {
                may0: true,
                may1: true,
            },
        };
        d.set(i / 64, 1 << (i % 64), tv);
    }

    /// Checks (a)–(d) on `ckt` under every single stuck-at injection:
    /// compiled binary and dual-rail evaluation against the scalar
    /// reference on random states, the fast path against
    /// `ternary_settle`, and the incrementally updated excitation masks
    /// against a full rescan after every firing of a random walk.
    fn check_circuit(ckt: &Circuit, seed: u64, states: usize) {
        let mut r = Rng(seed);
        let n = ckt.num_state_bits();
        for inj in injections(ckt) {
            let k = Kernel::new(ckt, &inj);
            let mut d = DualRail::new(k.words());
            for _ in 0..states {
                // (a) binary evaluation.
                let s = random_bits(&mut r, n);
                for i in 0..ckt.num_gates() {
                    let want = eval_gate_inj(ckt, GateId(i as u32), &s, &inj);
                    assert_eq!(k.eval(i, s.words()), want, "{s} gate {i} {inj:?}");
                }
                // (b) dual-rail evaluation.
                let (tv, td) = random_trits(&mut r, n);
                for i in 0..ckt.num_gates() {
                    let want = eval_gate_ternary(ckt, GateId(i as u32), &tv, &inj);
                    assert_eq!(k.eval_trit(i, &td), want, "{tv:?} gate {i} {inj:?}");
                }
                // (c) the fast path, from a random state and from reset.
                let pattern = Pattern::from_fn(ckt.num_inputs(), |_| r.next() & 1 == 1);
                for from in [&s, ckt.initial_state()] {
                    let mut start = from.words().to_vec();
                    k.apply(&mut start, &pattern);
                    k.ternary_settle(&mut d, &start);
                    let want = match ternary_settle(ckt, from, &pattern, &inj) {
                        TernaryOutcome::Definite(b) => Some(b),
                        TernaryOutcome::Uncertain(_) => None,
                    };
                    assert_eq!(
                        d.definite(),
                        want.as_ref().map(|b| b.words()),
                        "{from} {pattern} {inj:?}"
                    );
                }
                // (d) incremental excitation along a random walk.
                let mut t = s.words().to_vec();
                let mut e = vec![0; k.words()];
                k.excitation(&t, &mut e);
                for _ in 0..8 {
                    let b = Bits::from_words(n, &t);
                    for i in 0..ckt.num_gates() {
                        let (w, bit) = k.output(i);
                        let want = is_excited_inj(ckt, GateId(i as u32), &b, &inj);
                        assert_eq!(e[w] & bit != 0, want, "{b} gate {i} {inj:?}");
                    }
                    let mut excited = Vec::new();
                    k.each_gate(&e, |g| {
                        excited.push(g);
                        true
                    });
                    let Some(&g) = excited.get(r.below(excited.len().max(1))) else {
                        break;
                    };
                    let (w, bit) = k.output(g);
                    t[w] ^= bit;
                    k.refire(g, &t, &mut e);
                }
            }
        }
    }

    #[test]
    fn library_and_families_match_reference() {
        for ckt in library::all() {
            check_circuit(&ckt, 1, 4);
        }
        check_circuit(&families::muller_pipeline(4), 2, 3);
        check_circuit(&families::arbiter_tree(5), 3, 3);
        // Multi-word states: 84 signals (2 words) and 131 (3 words).
        check_circuit(&families::muller_pipeline(40), 4, 1);
        check_circuit(&families::arbiter_tree(44), 5, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random blueprints, narrow and padded past 64 signals.
        #[test]
        fn random_circuits_match_reference(seed in any::<u64>(), wide in any::<bool>()) {
            let (pad, states) = if wide { (32, 1) } else { (0, 3) };
            if let Some(ckt) = random_circuit(seed, pad) {
                check_circuit(&ckt, seed, states);
            }
        }
    }

    /// A one-gate circuit over inputs `a` (and `b`) computing `kind`.
    fn one_gate(kind: GateKind, pins: &[&str]) -> Circuit {
        let mut b = CircuitBuilder::new("one");
        b.input("A", "a");
        b.input("B", "b");
        let ins = pins.iter().map(|p| b.signal(*p)).collect();
        let f = b.gate("f", kind, ins);
        b.output(f);
        b.settle_initial();
        b.finish().expect("well-formed")
    }

    /// Every ternary assignment to `a`, `b` and the gate's own output,
    /// compiled against the reference under `inj`.
    fn exhaustive(ckt: &Circuit, inj: &Injection) {
        let k = Kernel::new(ckt, inj);
        let (a, b) = (2, 3);
        let f = ckt.gate_output(GateId(2)).index();
        let trits = [Trit::Zero, Trit::One, Trit::X];
        for ta in trits {
            for tb in trits {
                for tf in trits {
                    let mut tv = TritVec(vec![Trit::Zero; ckt.num_state_bits()]);
                    let mut d = DualRail::new(k.words());
                    for (i, t) in [(a, ta), (b, tb), (f, tf)] {
                        tv.0[i] = t;
                        set_trit(&mut d, i, t);
                    }
                    let want = eval_gate_ternary(ckt, GateId(2), &tv, inj);
                    assert_eq!(k.eval_trit(2, &d), want, "{tv:?} {inj:?}");
                }
            }
        }
    }

    fn trit_of(ckt: &Circuit, t: Trit) -> Trit {
        let k = Kernel::new(ckt, &Injection::none());
        let mut d = DualRail::new(k.words());
        set_trit(&mut d, 2, t);
        k.eval_trit(2, &d)
    }

    /// Φ ∧ ¬Φ = Φ: a cube holding `x` and `¬x` is not folded to 0.
    #[test]
    fn cube_with_both_polarities_is_phi_under_phi() {
        let both = Sop {
            cubes: vec![Cube(vec![Literal::pos(0), Literal::neg(0)])],
        };
        let c = one_gate(GateKind::Sop(both), &["a"]);
        assert_eq!(trit_of(&c, Trit::X), Trit::X);
        assert_eq!(trit_of(&c, Trit::Zero), Trit::Zero);
        assert_eq!(trit_of(&c, Trit::One), Trit::Zero);
        exhaustive(&c, &Injection::none());
    }

    /// `Xor(x, x)` cancels out of the parity mask but is Φ under Φ.
    #[test]
    fn xor_of_repeated_pin() {
        let x = one_gate(GateKind::Xor, &["a", "a"]);
        assert_eq!(trit_of(&x, Trit::X), Trit::X);
        assert_eq!(trit_of(&x, Trit::Zero), Trit::Zero);
        assert_eq!(trit_of(&x, Trit::One), Trit::Zero);
        let xn = one_gate(GateKind::Xnor, &["a", "a"]);
        assert_eq!(trit_of(&xn, Trit::X), Trit::X);
        assert_eq!(trit_of(&xn, Trit::One), Trit::One);
    }

    /// Forced pins fold to constants on a C-element and on an SOP gate.
    #[test]
    fn forced_pins_fold() {
        let sop = Sop {
            cubes: vec![
                Cube(vec![Literal::pos(0), Literal::neg(1)]),
                Cube(vec![Literal::neg(0), Literal::pos(1), Literal::pos(0)]),
            ],
        };
        for c in [
            one_gate(GateKind::C, &["a", "b"]),
            one_gate(GateKind::Sop(sop), &["a", "b"]),
        ] {
            let g = GateId(2);
            exhaustive(&c, &Injection::none());
            for pin in [0, 1] {
                for v in [false, true] {
                    exhaustive(&c, &Injection::single(g, Site::Pin(pin), v));
                }
            }
            for v in [false, true] {
                exhaustive(&c, &Injection::single(g, Site::Output, v));
            }
        }
    }
}
