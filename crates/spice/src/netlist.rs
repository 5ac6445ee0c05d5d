//! Circuit (netlist) construction: nodes and elements.

use crate::{SpiceError, Waveform};
use ferrocim_device::{Fefet, MosfetModel, MosfetParams};
use ferrocim_units::{Ampere, Farad, Ohm, Second, Volt};
use std::collections::HashMap;

/// An FNV-1a accumulator over a canonical byte encoding, used by
/// [`Circuit::content_hash`]. FNV-1a is chosen for the same reason the
/// Monte-Carlo checkpoint checksums use it: the hash must be identical
/// across runs, processes, and releases (no `RandomState`), and the
/// inputs are short enough that cryptographic strength buys nothing.
struct ContentHasher(u64);

impl ContentHasher {
    fn new() -> Self {
        ContentHasher(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    fn usize(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        // Bit-pattern hashing: +0.0 and -0.0 hash differently, which is
        // fine — canonical construction code never mixes them for the
        // same physical value.
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn mosfet_params(&mut self, p: &MosfetParams) {
        self.f64(p.width);
        self.f64(p.length);
        self.f64(p.vth0.value());
        self.f64(p.ideality);
        self.f64(p.mobility);
        self.f64(p.cox);
        self.f64(p.lambda);
        self.f64(p.dibl);
        self.f64(p.vth_temp_coeff);
        self.f64(p.mobility_exponent);
        self.f64(p.gate_capacitance);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A node handle within one [`Circuit`]. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(0);

    /// The raw index of this node within its circuit.
    pub fn index(self) -> usize {
        self.0
    }

    /// `true` if this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// An ideal switch's open/close schedule: an initial state plus a sorted
/// list of `(time, closed)` transitions.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchSchedule {
    initially_closed: bool,
    events: Vec<(Second, bool)>,
}

impl SwitchSchedule {
    /// A switch that stays open forever.
    pub fn open() -> Self {
        SwitchSchedule {
            initially_closed: false,
            events: Vec::new(),
        }
    }

    /// A switch that stays closed forever.
    pub fn closed() -> Self {
        SwitchSchedule {
            initially_closed: true,
            events: Vec::new(),
        }
    }

    /// Adds a transition to the given state at time `t`. Transitions may
    /// be added in any order; they are kept sorted.
    pub fn then_at(mut self, t: Second, closed: bool) -> Self {
        let pos = self
            .events
            .partition_point(|(et, _)| et.value() <= t.value());
        self.events.insert(pos, (t, closed));
        self
    }

    /// The switch state at time `t`.
    pub fn state_at(&self, t: Second) -> bool {
        let mut state = self.initially_closed;
        for &(et, s) in &self.events {
            if et.value() <= t.value() {
                state = s;
            } else {
                break;
            }
        }
        state
    }

    /// The transition times (transient breakpoints).
    pub fn breakpoints(&self) -> Vec<Second> {
        self.events.iter().map(|&(t, _)| t).collect()
    }
}

/// A circuit element. Construct via the associated functions and add to
/// a [`Circuit`] with [`Circuit::add`].
// The FeFET variant carries its Preisach domain ensemble and dwarfs the
// passive variants; netlists are small and built once, so the memory
// trade is irrelevant and boxing would only add indirection on the hot
// assembly path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Element {
    /// A linear resistor between nodes `a` and `b`.
    Resistor {
        /// Unique element name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance (must be positive).
        resistance: Ohm,
    },
    /// A linear capacitor between `a` and `b`. Open in DC analysis.
    Capacitor {
        /// Unique element name.
        name: String,
        /// Positive terminal (initial condition polarity).
        a: NodeId,
        /// Negative terminal.
        b: NodeId,
        /// Capacitance (must be positive).
        capacitance: Farad,
        /// Initial branch voltage `v(a) − v(b)` at the start of a
        /// transient; `None` takes the DC operating point.
        initial: Option<Volt>,
    },
    /// An independent voltage source from `neg` to `pos`.
    VoltageSource {
        /// Unique element name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// The source waveform.
        waveform: Waveform,
    },
    /// An independent DC current source pushing current *into* `pos`
    /// (out of `neg`).
    CurrentSource {
        /// Unique element name.
        name: String,
        /// Terminal into which positive current flows externally.
        pos: NodeId,
        /// Terminal out of which positive current flows externally.
        neg: NodeId,
        /// The source current.
        current: Ampere,
    },
    /// A time-scheduled ideal switch, modelled as `r_on`/`r_off`.
    Switch {
        /// Unique element name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Closed-state resistance.
        r_on: Ohm,
        /// Open-state resistance.
        r_off: Ohm,
        /// Open/close schedule.
        schedule: SwitchSchedule,
    },
    /// An n-MOSFET (EKV model). Bulk is tied to source.
    Mosfet {
        /// Unique element name.
        name: String,
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal (no DC gate current).
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
        /// The device model.
        model: MosfetModel,
        /// Per-instance threshold variation offset.
        vth_offset: Volt,
    },
    /// A FeFET with its stored polarization state.
    Fefet {
        /// Unique element name.
        name: String,
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal (no DC gate current).
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
        /// The device (owns its polarization state and variation offset).
        device: Fefet,
    },
}

impl Element {
    /// Shorthand constructor for a resistor.
    pub fn resistor(name: impl Into<String>, a: NodeId, b: NodeId, r: Ohm) -> Self {
        Element::Resistor {
            name: name.into(),
            a,
            b,
            resistance: r,
        }
    }

    /// Shorthand constructor for a capacitor with no initial condition.
    pub fn capacitor(name: impl Into<String>, a: NodeId, b: NodeId, c: Farad) -> Self {
        Element::Capacitor {
            name: name.into(),
            a,
            b,
            capacitance: c,
            initial: None,
        }
    }

    /// Shorthand constructor for a DC voltage source.
    pub fn vdc(name: impl Into<String>, pos: NodeId, neg: NodeId, v: Volt) -> Self {
        Element::VoltageSource {
            name: name.into(),
            pos,
            neg,
            waveform: Waveform::dc(v),
        }
    }

    /// Shorthand constructor for a voltage source with a waveform.
    pub fn vsource(name: impl Into<String>, pos: NodeId, neg: NodeId, w: Waveform) -> Self {
        Element::VoltageSource {
            name: name.into(),
            pos,
            neg,
            waveform: w,
        }
    }

    /// Shorthand constructor for a switch with sensible on/off
    /// resistances (1 kΩ / 10 GΩ).
    pub fn switch(name: impl Into<String>, a: NodeId, b: NodeId, schedule: SwitchSchedule) -> Self {
        Element::Switch {
            name: name.into(),
            a,
            b,
            r_on: Ohm(1e3),
            r_off: Ohm(1e10),
            schedule,
        }
    }

    /// Shorthand constructor for an n-MOSFET with zero variation offset.
    pub fn mosfet(
        name: impl Into<String>,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        model: MosfetModel,
    ) -> Self {
        Element::Mosfet {
            name: name.into(),
            drain,
            gate,
            source,
            model,
            vth_offset: Volt::ZERO,
        }
    }

    /// Shorthand constructor for a FeFET element.
    pub fn fefet(
        name: impl Into<String>,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        device: Fefet,
    ) -> Self {
        Element::Fefet {
            name: name.into(),
            drain,
            gate,
            source,
            device,
        }
    }

    /// The element's unique name.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::VoltageSource { name, .. }
            | Element::CurrentSource { name, .. }
            | Element::Switch { name, .. }
            | Element::Mosfet { name, .. }
            | Element::Fefet { name, .. } => name,
        }
    }

    /// All node ids this element touches.
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            Element::Resistor { a, b, .. }
            | Element::Capacitor { a, b, .. }
            | Element::Switch { a, b, .. } => vec![*a, *b],
            Element::VoltageSource { pos, neg, .. } | Element::CurrentSource { pos, neg, .. } => {
                vec![*pos, *neg]
            }
            Element::Mosfet {
                drain,
                gate,
                source,
                ..
            }
            | Element::Fefet {
                drain,
                gate,
                source,
                ..
            } => vec![*drain, *gate, *source],
        }
    }

    fn validate(&self) -> Result<(), SpiceError> {
        let invalid = |name: &str, value: f64, requirement: &'static str| {
            Err(SpiceError::InvalidValue {
                name: name.to_string(),
                value,
                requirement,
            })
        };
        match self {
            Element::Resistor {
                name, resistance, ..
            } => {
                if !(resistance.value().is_finite() && resistance.value() > 0.0) {
                    return invalid(name, resistance.value(), "a positive finite resistance");
                }
            }
            Element::Capacitor {
                name, capacitance, ..
            } => {
                if !(capacitance.value().is_finite() && capacitance.value() > 0.0) {
                    return invalid(name, capacitance.value(), "a positive finite capacitance");
                }
            }
            Element::Switch {
                name, r_on, r_off, ..
            } => {
                if !(r_on.value().is_finite() && r_on.value() > 0.0) {
                    return invalid(name, r_on.value(), "a positive finite on-resistance");
                }
                if !(r_off.value().is_finite() && r_off.value() > 0.0) {
                    return invalid(name, r_off.value(), "a positive finite off-resistance");
                }
            }
            Element::VoltageSource { name, waveform, .. } => {
                waveform.validate(name)?;
            }
            Element::CurrentSource { name, current, .. } => {
                if !current.value().is_finite() {
                    return invalid(name, current.value(), "a finite source current");
                }
            }
            Element::Mosfet {
                name, vth_offset, ..
            } => {
                if !vth_offset.value().is_finite() {
                    return invalid(name, vth_offset.value(), "a finite threshold offset");
                }
            }
            Element::Fefet { name, device, .. } => {
                let offset = device.vth_offset().value();
                if !offset.is_finite() {
                    return invalid(name, offset, "a finite threshold offset");
                }
            }
        }
        Ok(())
    }
}

/// A flat netlist: named nodes plus elements.
///
/// # Examples
///
/// ```
/// use ferrocim_spice::{Circuit, Element, NodeId};
/// use ferrocim_units::{Ohm, Volt};
///
/// # fn main() -> Result<(), ferrocim_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.add(Element::vdc("V1", vin, NodeId::GROUND, Volt(1.0)))?;
/// ckt.add(Element::resistor("R1", vin, out, Ohm(1e3)))?;
/// ckt.add(Element::resistor("R2", out, NodeId::GROUND, Ohm(1e3)))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, NodeId>,
    elements: Vec<Element>,
    element_index: HashMap<String, usize>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node `"0"`.
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: vec!["0".to_string()],
            node_index: HashMap::new(),
            elements: Vec::new(),
            element_index: HashMap::new(),
        };
        c.node_index.insert("0".to_string(), NodeId::GROUND);
        c
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_index.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.node_index.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_index.get(name).copied()
    }

    /// The name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id does not belong to this circuit.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Adds an element after validating its parameters, node references,
    /// and name uniqueness.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::DuplicateElement`] if the name is taken.
    /// * [`SpiceError::UnknownNode`] if a node id is out of range.
    /// * [`SpiceError::InvalidValue`] for non-physical parameters.
    pub fn add(&mut self, element: Element) -> Result<(), SpiceError> {
        element.validate()?;
        if self.element_index.contains_key(element.name()) {
            return Err(SpiceError::DuplicateElement {
                name: element.name().to_string(),
            });
        }
        for node in element.nodes() {
            if node.0 >= self.node_names.len() {
                return Err(SpiceError::UnknownNode {
                    element: element.name().to_string(),
                    node: node.0,
                });
            }
        }
        self.element_index
            .insert(element.name().to_string(), self.elements.len());
        self.elements.push(element);
        Ok(())
    }

    /// The elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Looks up an element by name.
    pub fn element(&self, name: &str) -> Option<&Element> {
        self.element_index.get(name).map(|&i| &self.elements[i])
    }

    /// Mutable access to an element by name (e.g. to reprogram a FeFET
    /// or change a waveform between analyses).
    pub fn element_mut(&mut self, name: &str) -> Option<&mut Element> {
        let idx = *self.element_index.get(name)?;
        Some(&mut self.elements[idx])
    }

    /// Mutable access to a FeFET device by element name, for programming
    /// its polarization state between analyses.
    pub fn fefet_mut(&mut self, name: &str) -> Option<&mut Fefet> {
        match self.element_mut(name)? {
            Element::Fefet { device, .. } => Some(device),
            _ => None,
        }
    }

    /// A stable 64-bit content hash of the netlist topology: element
    /// kinds, names, node connectivity, and every reachable scalar
    /// parameter (resistances, capacitances, waveform shapes, switch
    /// schedules, device model parameters, programmed FeFET
    /// polarization, and per-instance threshold offsets).
    ///
    /// Two circuits built the same way hash identically across runs and
    /// processes (FNV-1a over a canonical byte encoding — no
    /// `RandomState`), and any change to a parameter or connection
    /// changes the hash with overwhelming probability. This is the
    /// netlist component of the `ferrocim-surrogate` content-address
    /// key; it deliberately hashes elements in insertion order, because
    /// element order is part of how callers construct a given topology.
    pub fn content_hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.usize(self.node_names.len());
        for name in &self.node_names {
            h.str(name);
        }
        h.usize(self.elements.len());
        for e in &self.elements {
            match e {
                Element::Resistor {
                    name,
                    a,
                    b,
                    resistance,
                } => {
                    h.tag(1);
                    h.str(name);
                    h.usize(a.0);
                    h.usize(b.0);
                    h.f64(resistance.value());
                }
                Element::Capacitor {
                    name,
                    a,
                    b,
                    capacitance,
                    initial,
                } => {
                    h.tag(2);
                    h.str(name);
                    h.usize(a.0);
                    h.usize(b.0);
                    h.f64(capacitance.value());
                    match initial {
                        Some(v) => {
                            h.tag(1);
                            h.f64(v.value());
                        }
                        None => h.tag(0),
                    }
                }
                Element::VoltageSource {
                    name,
                    pos,
                    neg,
                    waveform,
                } => {
                    h.tag(3);
                    h.str(name);
                    h.usize(pos.0);
                    h.usize(neg.0);
                    // A waveform is fully characterized by its value at
                    // t = 0, its breakpoints, and its value just after
                    // each breakpoint (every supported waveform is
                    // piecewise-linear between breakpoints).
                    h.f64(waveform.at(Second(0.0)).value());
                    let points = waveform.breakpoints();
                    h.usize(points.len());
                    for t in points {
                        h.f64(t.value());
                        h.f64(waveform.at(t).value());
                        h.f64(waveform.at(Second(t.value() + 1e-15)).value());
                    }
                }
                Element::CurrentSource {
                    name,
                    pos,
                    neg,
                    current,
                } => {
                    h.tag(4);
                    h.str(name);
                    h.usize(pos.0);
                    h.usize(neg.0);
                    h.f64(current.value());
                }
                Element::Switch {
                    name,
                    a,
                    b,
                    r_on,
                    r_off,
                    schedule,
                } => {
                    h.tag(5);
                    h.str(name);
                    h.usize(a.0);
                    h.usize(b.0);
                    h.f64(r_on.value());
                    h.f64(r_off.value());
                    h.tag(u8::from(schedule.initially_closed));
                    h.usize(schedule.events.len());
                    for &(t, closed) in &schedule.events {
                        h.f64(t.value());
                        h.tag(u8::from(closed));
                    }
                }
                Element::Mosfet {
                    name,
                    drain,
                    gate,
                    source,
                    model,
                    vth_offset,
                } => {
                    h.tag(6);
                    h.str(name);
                    h.usize(drain.0);
                    h.usize(gate.0);
                    h.usize(source.0);
                    h.mosfet_params(model.params());
                    h.f64(vth_offset.value());
                }
                Element::Fefet {
                    name,
                    drain,
                    gate,
                    source,
                    device,
                } => {
                    h.tag(7);
                    h.str(name);
                    h.usize(drain.0);
                    h.usize(gate.0);
                    h.usize(source.0);
                    let p = device.params();
                    h.mosfet_params(&p.channel);
                    h.f64(p.low_vt.value());
                    h.f64(p.high_vt.value());
                    h.f64(p.low_vt_temp_coeff);
                    h.f64(p.high_vt_temp_coeff);
                    h.usize(p.preisach.domains);
                    h.f64(p.preisach.coercive.value());
                    h.f64(p.preisach.sigma.value());
                    h.f64(p.preisach.attempt_time.value());
                    h.f64(p.preisach.activation.value());
                    h.f64(p.preisach.erase_slowdown);
                    // The programmed state and variation offset are part
                    // of the content: a reprogrammed cell is a
                    // different operating point.
                    h.f64(device.polarization());
                    h.f64(device.vth_offset().value());
                }
            }
        }
        h.finish()
    }

    /// All transient breakpoints contributed by waveforms and switch
    /// schedules.
    pub fn breakpoints(&self) -> Vec<Second> {
        let mut points: Vec<Second> = Vec::new();
        for e in &self.elements {
            match e {
                Element::VoltageSource { waveform, .. } => points.extend(waveform.breakpoints()),
                Element::Switch { schedule, .. } => points.extend(schedule.breakpoints()),
                _ => {}
            }
        }
        points.sort_by(|a, b| a.value().total_cmp(&b.value()));
        points.dedup_by(|a, b| (a.value() - b.value()).abs() < 1e-18);
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_interned_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.node_count(), 3); // ground + a + b
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("b"), Some(b));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn duplicate_element_names_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1.0)))
            .unwrap();
        let err = c
            .add(Element::resistor("R1", a, NodeId::GROUND, Ohm(2.0)))
            .unwrap_err();
        assert!(matches!(err, SpiceError::DuplicateElement { .. }));
    }

    #[test]
    fn invalid_resistance_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let err = c
            .add(Element::resistor("R1", a, NodeId::GROUND, Ohm(0.0)))
            .unwrap_err();
        assert!(matches!(err, SpiceError::InvalidValue { .. }));
        let err = c
            .add(Element::resistor("R2", a, NodeId::GROUND, Ohm(f64::NAN)))
            .unwrap_err();
        assert!(matches!(err, SpiceError::InvalidValue { .. }));
    }

    #[test]
    fn non_finite_fefet_offset_rejected() {
        use ferrocim_device::{Fefet, FefetParams};
        let mut c = Circuit::new();
        let d = c.node("d");
        let mut dev = Fefet::new(FefetParams::paper_default());
        dev.set_vth_offset(Volt(f64::NAN));
        let err = c
            .add(Element::fefet("F1", d, d, NodeId::GROUND, dev))
            .unwrap_err();
        assert!(matches!(err, SpiceError::InvalidValue { ref name, .. } if name == "F1"));
        assert!(c.elements().is_empty());
    }

    #[test]
    fn foreign_node_rejected() {
        let mut c = Circuit::new();
        let err = c
            .add(Element::resistor(
                "R1",
                NodeId(57),
                NodeId::GROUND,
                Ohm(1.0),
            ))
            .unwrap_err();
        assert!(matches!(err, SpiceError::UnknownNode { .. }));
    }

    #[test]
    fn switch_schedule_ordering() {
        let s = SwitchSchedule::open()
            .then_at(Second(3e-9), false)
            .then_at(Second(1e-9), true);
        assert!(!s.state_at(Second(0.5e-9)));
        assert!(s.state_at(Second(2e-9)));
        assert!(!s.state_at(Second(4e-9)));
        assert_eq!(s.breakpoints().len(), 2);
        assert!(s.breakpoints()[0] < s.breakpoints()[1]);
    }

    #[test]
    fn fefet_lookup_and_mutation() {
        use ferrocim_device::{Fefet, FefetParams, PolarizationState};
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.add(Element::fefet(
            "F1",
            d,
            g,
            NodeId::GROUND,
            Fefet::new(FefetParams::paper_default()),
        ))
        .unwrap();
        assert!(c.fefet_mut("missing").is_none());
        let f = c.fefet_mut("F1").unwrap();
        f.force_state(PolarizationState::LowVt);
        assert_eq!(
            c.fefet_mut("F1").unwrap().stored_state(),
            Some(PolarizationState::LowVt)
        );
    }

    fn divider(r2: Ohm) -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(Element::vdc("V1", vin, NodeId::GROUND, Volt(1.0)))
            .unwrap();
        c.add(Element::resistor("R1", vin, out, Ohm(1e3))).unwrap();
        c.add(Element::resistor("R2", out, NodeId::GROUND, r2))
            .unwrap();
        c
    }

    #[test]
    fn content_hash_is_stable_and_parameter_sensitive() {
        // Identical construction → identical hash (and rebuilding from
        // scratch, not cloning, so interning order is exercised too).
        assert_eq!(
            divider(Ohm(1e3)).content_hash(),
            divider(Ohm(1e3)).content_hash()
        );
        // A parameter change far below any display precision changes it.
        assert_ne!(
            divider(Ohm(1e3)).content_hash(),
            divider(Ohm(1e3 + 1e-9)).content_hash()
        );
        // So does renaming an element or rewiring a node.
        let mut renamed = Circuit::new();
        let vin = renamed.node("in");
        let out = renamed.node("out");
        renamed
            .add(Element::vdc("V1", vin, NodeId::GROUND, Volt(1.0)))
            .unwrap();
        renamed
            .add(Element::resistor("Rx", vin, out, Ohm(1e3)))
            .unwrap();
        renamed
            .add(Element::resistor("R2", out, NodeId::GROUND, Ohm(1e3)))
            .unwrap();
        assert_ne!(divider(Ohm(1e3)).content_hash(), renamed.content_hash());
    }

    #[test]
    fn content_hash_sees_waveforms_devices_and_programmed_state() {
        use ferrocim_device::{Fefet, FefetParams, PolarizationState};
        let build = |state: PolarizationState, t_step: Second| {
            let mut c = Circuit::new();
            let d = c.node("d");
            let g = c.node("g");
            c.add(Element::vsource(
                "VG",
                g,
                NodeId::GROUND,
                Waveform::step(Volt(0.0), Volt(0.8), t_step),
            ))
            .unwrap();
            let mut dev = Fefet::new(FefetParams::paper_default());
            dev.force_state(state);
            c.add(Element::fefet("F1", d, g, NodeId::GROUND, dev))
                .unwrap();
            c
        };
        let a = build(PolarizationState::LowVt, Second(1e-9));
        assert_eq!(
            a.content_hash(),
            build(PolarizationState::LowVt, Second(1e-9)).content_hash()
        );
        // Reprogramming the FeFET is a different operating point.
        assert_ne!(
            a.content_hash(),
            build(PolarizationState::HighVt, Second(1e-9)).content_hash()
        );
        // Moving a waveform breakpoint changes the drive.
        assert_ne!(
            a.content_hash(),
            build(PolarizationState::LowVt, Second(2e-9)).content_hash()
        );
    }

    #[test]
    fn breakpoints_are_sorted_and_deduped() {
        use crate::Waveform;
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Element::vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::step(Volt(0.0), Volt(1.0), Second(2e-9)),
        ))
        .unwrap();
        c.add(Element::switch(
            "S1",
            a,
            NodeId::GROUND,
            SwitchSchedule::open().then_at(Second(1e-9), true),
        ))
        .unwrap();
        let bp = c.breakpoints();
        assert!(!bp.is_empty());
        assert!(bp.windows(2).all(|w| w[0].value() <= w[1].value()));
    }
}
