//! The STG model: a safe Petri net whose transitions are labeled with
//! signal edges (`a+` / `a-`).

use std::collections::HashMap;
use std::fmt;

/// Index of a signal within an [`Stg`].
pub type SignalIdx = usize;

/// Identifies a transition within an [`Stg`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TransitionId(pub u32);

/// Identifies a place or transition when wiring arcs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeId {
    /// A place index.
    Place(u32),
    /// A transition.
    Transition(TransitionId),
}

/// Interface class of a signal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SignalClass {
    /// Driven by the environment.
    Input,
    /// Driven by the circuit and observable.
    Output,
    /// Driven by the circuit, not observable.
    Internal,
}

/// A transition: a rising or falling edge of a signal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transition {
    /// The signal.
    pub signal: SignalIdx,
    /// `true` for `a+`, `false` for `a-`.
    pub rising: bool,
    /// Instance index (`a+/1` is instance 1); purely for labeling.
    pub instance: u32,
}

/// A signal transition graph.
///
/// Places are anonymous capacity-1 buffers; arcs run between places and
/// transitions.  Implicit places of the `.g` format are materialized as
/// ordinary places by the parser.
#[derive(Clone, Debug)]
pub struct Stg {
    name: String,
    signal_names: Vec<String>,
    signal_classes: Vec<SignalClass>,
    transitions: Vec<Transition>,
    /// For each transition, its input places.
    pre: Vec<Vec<u32>>,
    /// For each transition, its output places.
    post: Vec<Vec<u32>>,
    num_places: u32,
    place_names: Vec<String>,
    initial_marking: Vec<u32>,
    /// Explicit initial values (signal, value); missing ones are inferred.
    initial_values: Vec<(SignalIdx, bool)>,
    name_index: HashMap<String, SignalIdx>,
}

impl Stg {
    /// Creates an empty STG.
    pub fn new(name: impl Into<String>) -> Self {
        Stg {
            name: name.into(),
            signal_names: Vec::new(),
            signal_classes: Vec::new(),
            transitions: Vec::new(),
            pre: Vec::new(),
            post: Vec::new(),
            num_places: 0,
            place_names: Vec::new(),
            initial_marking: Vec::new(),
            initial_values: Vec::new(),
            name_index: HashMap::new(),
        }
    }

    /// Specification name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a signal and returns its index.
    pub fn add_signal(&mut self, name: impl Into<String>, class: SignalClass) -> SignalIdx {
        let name = name.into();
        let idx = self.signal_names.len();
        self.name_index.insert(name.clone(), idx);
        self.signal_names.push(name);
        self.signal_classes.push(class);
        idx
    }

    /// Number of signals.
    pub fn num_signals(&self) -> usize {
        self.signal_names.len()
    }

    /// Name of signal `s`.
    pub fn signal_name(&self, s: SignalIdx) -> &str {
        &self.signal_names[s]
    }

    /// Class of signal `s`.
    pub fn signal_class(&self, s: SignalIdx) -> SignalClass {
        self.signal_classes[s]
    }

    /// Looks a signal up by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalIdx> {
        self.name_index.get(name).copied()
    }

    /// Signals of a given class, ascending.
    pub fn signals_of_class(&self, class: SignalClass) -> Vec<SignalIdx> {
        (0..self.num_signals())
            .filter(|&s| self.signal_classes[s] == class)
            .collect()
    }

    /// Non-input signals (the ones synthesis must implement), ascending.
    pub fn non_input_signals(&self) -> Vec<SignalIdx> {
        (0..self.num_signals())
            .filter(|&s| self.signal_classes[s] != SignalClass::Input)
            .collect()
    }

    /// Adds a transition node.
    pub fn add_transition(
        &mut self,
        signal: SignalIdx,
        rising: bool,
        instance: u32,
    ) -> TransitionId {
        let id = TransitionId(self.transitions.len() as u32);
        self.transitions.push(Transition {
            signal,
            rising,
            instance,
        });
        self.pre.push(Vec::new());
        self.post.push(Vec::new());
        id
    }

    /// Adds a place, optionally named, and returns its index.
    pub fn add_place(&mut self, name: Option<String>) -> u32 {
        let p = self.num_places;
        self.num_places += 1;
        self.place_names
            .push(name.unwrap_or_else(|| format!("<p{p}>")));
        p
    }

    /// Number of places.
    pub fn num_places(&self) -> u32 {
        self.num_places
    }

    /// Name of place `p`.
    pub fn place_name(&self, p: u32) -> &str {
        &self.place_names[p as usize]
    }

    /// Adds an arc place → transition.
    pub fn arc_pt(&mut self, p: u32, t: TransitionId) {
        self.pre[t.0 as usize].push(p);
    }

    /// Adds an arc transition → place.
    pub fn arc_tp(&mut self, t: TransitionId, p: u32) {
        self.post[t.0 as usize].push(p);
    }

    /// Marks place `p` initially.
    pub fn mark(&mut self, p: u32) {
        if !self.initial_marking.contains(&p) {
            self.initial_marking.push(p);
        }
    }

    /// Sets an explicit initial signal value (otherwise inferred).
    pub fn set_initial_value(&mut self, s: SignalIdx, v: bool) {
        self.initial_values.push((s, v));
    }

    /// Initially marked places.
    pub fn initial_marking(&self) -> &[u32] {
        &self.initial_marking
    }

    /// Explicit initial values.
    pub fn explicit_initial_values(&self) -> &[(SignalIdx, bool)] {
        &self.initial_values
    }

    /// The transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Input places of `t`.
    pub fn pre(&self, t: TransitionId) -> &[u32] {
        &self.pre[t.0 as usize]
    }

    /// Output places of `t`.
    pub fn post(&self, t: TransitionId) -> &[u32] {
        &self.post[t.0 as usize]
    }

    /// Human-readable transition label (`a+`, `b-/1`, …).
    pub fn transition_label(&self, t: TransitionId) -> String {
        let tr = &self.transitions[t.0 as usize];
        let dir = if tr.rising { '+' } else { '-' };
        if tr.instance == 0 {
            format!("{}{dir}", self.signal_names[tr.signal])
        } else {
            format!("{}{dir}/{}", self.signal_names[tr.signal], tr.instance)
        }
    }
}

impl fmt::Display for Stg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stg {} ({} signals, {} transitions, {} places)",
            self.name,
            self.num_signals(),
            self.transitions.len(),
            self.num_places
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_tiny_net() {
        let mut g = Stg::new("t");
        let a = g.add_signal("a", SignalClass::Input);
        let x = g.add_signal("x", SignalClass::Output);
        let ap = g.add_transition(a, true, 0);
        let xp = g.add_transition(x, true, 0);
        let p = g.add_place(None);
        g.arc_tp(ap, p);
        g.arc_pt(p, xp);
        let q = g.add_place(Some("start".into()));
        g.arc_pt(q, ap);
        g.mark(q);
        assert_eq!(g.num_places(), 2);
        assert_eq!(g.initial_marking(), &[1]);
        assert_eq!(g.transition_label(ap), "a+");
        assert_eq!(g.pre(xp), &[0]);
        assert_eq!(g.signal_by_name("x"), Some(x));
        assert_eq!(g.place_name(1), "start");
        assert_eq!(g.non_input_signals(), vec![x]);
    }

    #[test]
    fn transition_labels_with_instances() {
        let mut g = Stg::new("t");
        let a = g.add_signal("a", SignalClass::Output);
        let t0 = g.add_transition(a, false, 0);
        let t1 = g.add_transition(a, false, 2);
        assert_eq!(g.transition_label(t0), "a-");
        assert_eq!(g.transition_label(t1), "a-/2");
    }
}
