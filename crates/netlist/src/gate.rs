//! Gate functions.

use std::fmt;

/// A literal inside a [`Sop`] cube: a gate input pin, possibly negated.
///
/// `pin` indexes into the owning gate's input list, so the same sum-of-
/// products function can be shared between gates with different fanins.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Literal {
    /// Index into the gate's input list.
    pub pin: usize,
    /// `true` for the positive literal, `false` for the negated one.
    pub positive: bool,
}

impl Literal {
    /// Positive literal on pin `pin`.
    pub fn pos(pin: usize) -> Self {
        Literal {
            pin,
            positive: true,
        }
    }

    /// Negative literal on pin `pin`.
    pub fn neg(pin: usize) -> Self {
        Literal {
            pin,
            positive: false,
        }
    }
}

/// A product term: the conjunction of its literals.
///
/// An empty cube is the constant `1`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Cube(pub Vec<Literal>);

impl Cube {
    /// Evaluates the cube given a pin valuation.
    pub fn eval(&self, mut pin: impl FnMut(usize) -> bool) -> bool {
        self.0.iter().all(|l| pin(l.pin) == l.positive)
    }
}

/// A sum-of-products function over gate input pins.
///
/// An empty SOP is the constant `0`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Sop {
    /// The disjuncts.
    pub cubes: Vec<Cube>,
}

impl Sop {
    /// Evaluates the SOP given a pin valuation.
    pub fn eval(&self, mut pin: impl FnMut(usize) -> bool) -> bool {
        self.cubes.iter().any(|c| c.eval(&mut pin))
    }
}

/// The Boolean function computed by a gate.
///
/// `C` is the Muller C-element: its output rises when all inputs are 1,
/// falls when all inputs are 0, and otherwise holds its previous value —
/// i.e. `f(x, y) = ∧x ∨ (y ∧ ∨x)` where `y` is the gate's own output.
/// State-holding [`Sop`] gates achieve the same by listing their own output
/// signal among their inputs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum GateKind {
    /// Identity buffer attached to a primary input (the paper's model of
    /// input delay).  Its single input is an environment pin.
    Input,
    /// Identity.
    Buf,
    /// Negation (1 input).
    Not,
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Negated conjunction.
    Nand,
    /// Negated disjunction.
    Nor,
    /// Parity.
    Xor,
    /// Negated parity.
    Xnor,
    /// Muller C-element (sequential; uses its own output).
    C,
    /// Arbitrary sum-of-products (complex gate).
    Sop(Sop),
    /// Constant output; used for fault modeling and tie-offs.
    Const(bool),
}

impl GateKind {
    /// Evaluates the gate function.
    ///
    /// `out` is the gate's current output value (used only by sequential
    /// kinds such as [`GateKind::C`]); `pin(i)` is the value of input `i`.
    pub fn eval(&self, out: bool, num_pins: usize, mut pin: impl FnMut(usize) -> bool) -> bool {
        match self {
            GateKind::Input | GateKind::Buf => pin(0),
            GateKind::Not => !pin(0),
            GateKind::And => (0..num_pins).all(&mut pin),
            GateKind::Or => (0..num_pins).any(&mut pin),
            GateKind::Nand => !(0..num_pins).all(&mut pin),
            GateKind::Nor => !(0..num_pins).any(&mut pin),
            GateKind::Xor => (0..num_pins).filter(|&i| pin(i)).count() % 2 == 1,
            GateKind::Xnor => (0..num_pins).filter(|&i| pin(i)).count() % 2 == 0,
            GateKind::C => {
                let all = (0..num_pins).all(&mut pin);
                let any = (0..num_pins).any(&mut pin);
                all || (out && any)
            }
            GateKind::Sop(s) => s.eval(pin),
            GateKind::Const(v) => *v,
        }
    }

    /// The number of inputs this kind requires, if fixed.
    pub fn fixed_arity(&self) -> Option<usize> {
        match self {
            GateKind::Input | GateKind::Buf | GateKind::Not => Some(1),
            GateKind::Const(_) => Some(0),
            _ => None,
        }
    }

    /// Short lowercase name used by the `.ckt` format and DOT export.
    pub fn name(&self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::C => "c",
            GateKind::Sop(_) => "sop",
            GateKind::Const(false) => "zero",
            GateKind::Const(true) => "one",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(v: &[bool]) -> impl FnMut(usize) -> bool + '_ {
        move |i| v[i]
    }

    #[test]
    fn basic_gates_truth_tables() {
        let t = true;
        let f = false;
        assert!(GateKind::And.eval(f, 2, vals(&[t, t])));
        assert!(!GateKind::And.eval(f, 2, vals(&[t, f])));
        assert!(GateKind::Or.eval(f, 2, vals(&[f, t])));
        assert!(!GateKind::Or.eval(f, 2, vals(&[f, f])));
        assert!(GateKind::Nand.eval(f, 2, vals(&[t, f])));
        assert!(!GateKind::Nor.eval(f, 2, vals(&[f, t])));
        assert!(GateKind::Xor.eval(f, 2, vals(&[t, f])));
        assert!(GateKind::Xnor.eval(f, 2, vals(&[t, t])));
        assert!(!GateKind::Not.eval(f, 1, vals(&[t])));
        assert!(GateKind::Buf.eval(f, 1, vals(&[t])));
        assert!(GateKind::Const(true).eval(f, 0, vals(&[])));
    }

    #[test]
    fn c_element_holds_state() {
        // Rises only on all-1, falls only on all-0, otherwise holds.
        assert!(GateKind::C.eval(false, 2, vals(&[true, true])));
        assert!(!GateKind::C.eval(false, 2, vals(&[true, false])));
        assert!(GateKind::C.eval(true, 2, vals(&[true, false])));
        assert!(!GateKind::C.eval(true, 2, vals(&[false, false])));
    }

    #[test]
    fn sop_eval() {
        // f = a·b' + c
        let s = Sop {
            cubes: vec![
                Cube(vec![Literal::pos(0), Literal::neg(1)]),
                Cube(vec![Literal::pos(2)]),
            ],
        };
        assert!(s.eval(|i| [true, false, false][i]));
        assert!(s.eval(|i| [false, true, true][i]));
        assert!(!s.eval(|i| [true, true, false][i]));
    }

    #[test]
    fn empty_cube_and_empty_sop_are_constants() {
        assert!(Cube::default().eval(|_| false));
        assert!(!Sop::default().eval(|_| true));
    }

    #[test]
    fn xor_parity_wide() {
        let v = [true, true, true];
        assert!(GateKind::Xor.eval(false, 3, vals(&v)));
        assert!(!GateKind::Xnor.eval(false, 3, vals(&v)));
    }
}
