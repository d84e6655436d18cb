//! Module generators: device sizes → block dimensions.
//!
//! During synthesis "the proposed device sizes [are translated] into widths
//! and heights of the modules using module generator functions" (§2.1)
//! before the multi-placement structure is queried. The paper relies on
//! procedural generators in the BALLISTIC/MSL tradition backed by a real
//! process kit; this module provides the closest synthetic equivalent —
//! analytic generators for the module classes that occur in the benchmark
//! circuits (folded MOSFETs, matched differential pairs, MOS/MIM capacitors,
//! serpentine resistors). Each maps a single scalar *sizing parameter*
//! (gate width, capacitance, resistance) to an integer `(w, h)` footprint
//! on the layout grid. The multi-placement structure only ever sees the
//! `(w, h)` outputs, so any monotone parametric map exercises exactly the
//! same code paths as a PDK-backed generator (see DESIGN.md §3).
//!
//! # Example
//!
//! ```
//! use mps_netlist::modgen::{Generator, MosfetGenerator};
//!
//! let gen = Generator::Mosfet(MosfetGenerator::default());
//! let (lo, hi) = gen.param_range();
//! let small = gen.dims_for(lo);
//! let large = gen.dims_for(hi);
//! assert!(large.0 * large.1 > small.0 * small.1);
//! ```

use mps_geom::Coord;

use crate::Block;

/// A MOSFET module generator with gate folding.
///
/// The sizing parameter is the total gate width in grid units. The
/// generator folds the gate into `f ≈ sqrt(W · pitch / W_max_finger)`
/// fingers to keep the footprint near-square, then adds the surrounding
/// guard ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetGenerator {
    /// Horizontal pitch of one finger (poly + contact + spacing).
    pub finger_pitch: Coord,
    /// Guard-ring / well margin added on every side.
    pub guard: Coord,
    /// Smallest total gate width the sizer may request (grid units).
    pub min_total_width: f64,
    /// Largest total gate width the sizer may request (grid units).
    pub max_total_width: f64,
}

impl Default for MosfetGenerator {
    fn default() -> Self {
        Self {
            finger_pitch: 4,
            guard: 3,
            min_total_width: 40.0,
            max_total_width: 1_200.0,
        }
    }
}

impl MosfetGenerator {
    fn dims(&self, total_width: f64) -> (Coord, Coord) {
        let w_total = total_width.clamp(self.min_total_width, self.max_total_width);
        // Choose a finger count that balances the aspect ratio:
        // footprint ≈ (f · pitch) × (W/f), square when f = sqrt(W / pitch).
        let fingers = (w_total / self.finger_pitch as f64).sqrt().round().max(1.0);
        let w = (fingers * self.finger_pitch as f64).ceil() as Coord + 2 * self.guard;
        let h = (w_total / fingers).ceil() as Coord + 2 * self.guard;
        (w.max(1), h.max(1))
    }
}

/// A matched differential pair: two interdigitated MOSFETs in a
/// common-centroid arrangement — twice the device area of a single MOSFET
/// plus matching overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffPairGenerator {
    /// The underlying per-device generator.
    pub mosfet: MosfetGenerator,
    /// Extra spacing between the interdigitated halves.
    pub matching_margin: Coord,
}

impl Default for DiffPairGenerator {
    fn default() -> Self {
        Self {
            mosfet: MosfetGenerator::default(),
            matching_margin: 2,
        }
    }
}

impl DiffPairGenerator {
    fn dims(&self, total_width_per_device: f64) -> (Coord, Coord) {
        let (w, h) = self.mosfet.dims(total_width_per_device);
        // Side-by-side interdigitation: double width plus margin.
        (2 * w + self.matching_margin, h)
    }
}

/// A capacitor generator (MOS or MIM): area-driven, near-square.
///
/// The sizing parameter is the capacitance in femtofarads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitorGenerator {
    /// Capacitance per unit area (fF per grid-unit²).
    pub density: f64,
    /// Terminal ring width added on every side.
    pub ring: Coord,
    /// Smallest capacitance the sizer may request (fF).
    pub min_cap: f64,
    /// Largest capacitance the sizer may request (fF).
    pub max_cap: f64,
    /// Width/height aspect (1.0 = square).
    pub aspect: f64,
}

impl Default for CapacitorGenerator {
    fn default() -> Self {
        Self {
            density: 1.0,
            ring: 2,
            min_cap: 100.0,
            max_cap: 4_000.0,
            aspect: 1.0,
        }
    }
}

impl CapacitorGenerator {
    fn dims(&self, cap: f64) -> (Coord, Coord) {
        let cap = cap.clamp(self.min_cap, self.max_cap);
        let area = cap / self.density;
        let w = (area * self.aspect).sqrt().ceil() as Coord + 2 * self.ring;
        let h = (area / self.aspect).sqrt().ceil() as Coord + 2 * self.ring;
        (w.max(1), h.max(1))
    }
}

/// A serpentine poly resistor generator.
///
/// The sizing parameter is the resistance in units of the sheet resistance
/// (i.e. the number of squares).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResistorGenerator {
    /// Width of one resistor strip.
    pub strip_width: Coord,
    /// Gap between adjacent strips.
    pub strip_gap: Coord,
    /// Maximum strip length before the serpentine folds.
    pub max_strip_len: Coord,
    /// Smallest square count the sizer may request.
    pub min_squares: f64,
    /// Largest square count the sizer may request.
    pub max_squares: f64,
}

impl Default for ResistorGenerator {
    fn default() -> Self {
        Self {
            strip_width: 2,
            strip_gap: 2,
            max_strip_len: 60,
            min_squares: 20.0,
            max_squares: 600.0,
        }
    }
}

impl ResistorGenerator {
    fn dims(&self, squares: f64) -> (Coord, Coord) {
        let squares = squares.clamp(self.min_squares, self.max_squares);
        let total_len = squares * self.strip_width as f64;
        let strips = (total_len / self.max_strip_len as f64).ceil().max(1.0);
        let w = (strips * (self.strip_width + self.strip_gap) as f64).ceil() as Coord;
        let h = (total_len / strips).ceil() as Coord;
        (w.max(1), h.max(1))
    }
}

/// The module generator for one block: a closed enum so sizing models are
/// serializable and cheaply cloneable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Generator {
    /// Single folded MOSFET.
    Mosfet(MosfetGenerator),
    /// Matched differential pair.
    DiffPair(DiffPairGenerator),
    /// MOS/MIM capacitor.
    Capacitor(CapacitorGenerator),
    /// Serpentine resistor.
    Resistor(ResistorGenerator),
}

impl Generator {
    /// The `(min, max)` range of the scalar sizing parameter.
    #[must_use]
    pub fn param_range(&self) -> (f64, f64) {
        match self {
            Generator::Mosfet(g) => (g.min_total_width, g.max_total_width),
            Generator::DiffPair(g) => (g.mosfet.min_total_width, g.mosfet.max_total_width),
            Generator::Capacitor(g) => (g.min_cap, g.max_cap),
            Generator::Resistor(g) => (g.min_squares, g.max_squares),
        }
    }

    /// Footprint for the given sizing parameter (clamped into range).
    #[must_use]
    pub fn dims_for(&self, param: f64) -> (Coord, Coord) {
        match self {
            Generator::Mosfet(g) => g.dims(param),
            Generator::DiffPair(g) => g.dims(param),
            Generator::Capacitor(g) => g.dims(param),
            Generator::Resistor(g) => g.dims(param),
        }
    }

    /// Parameter values at which the generator's footprint is
    /// discontinuous (finger-count / strip-count fold boundaries). The
    /// generators are piecewise monotone between consecutive critical
    /// points, so sampling critical points and range endpoints yields
    /// *exact* dimension bounds.
    fn critical_params(&self) -> Vec<f64> {
        const EPS: f64 = 1e-6;
        let (lo, hi) = self.param_range();
        let mut out = vec![lo, hi];
        let mut push_boundary = |p: f64| {
            if p > lo && p < hi {
                out.push((p - EPS).max(lo));
                out.push((p + EPS).min(hi));
            }
        };
        match self {
            Generator::Mosfet(g) | Generator::DiffPair(DiffPairGenerator { mosfet: g, .. }) => {
                // fingers = round(sqrt(W / pitch)) changes at
                // W = pitch * (f + 0.5)^2.
                let pitch = g.finger_pitch as f64;
                let f_max = (hi / pitch).sqrt().round() as u64 + 1;
                for f in 1..=f_max {
                    push_boundary(pitch * (f as f64 + 0.5).powi(2));
                }
            }
            Generator::Resistor(g) => {
                // strips = ceil(squares * strip_width / max_strip_len)
                // changes at squares = k * max_strip_len / strip_width.
                let per_strip = g.max_strip_len as f64 / g.strip_width as f64;
                let k_max = (hi / per_strip).ceil() as u64 + 1;
                for k in 1..=k_max {
                    push_boundary(k as f64 * per_strip);
                }
            }
            Generator::Capacitor(_) => {} // monotone; endpoints suffice
        }
        out
    }

    /// `(w_min, w_max, h_min, h_max)` bounds covering every footprint this
    /// generator can produce; used to derive a [`Block`]'s designer-set
    /// dimension limits.
    ///
    /// The bounds are exact: in addition to `samples` uniform points, the
    /// fold boundaries where the footprint jumps are sampled explicitly.
    #[must_use]
    pub fn dim_bounds(&self, samples: usize) -> (Coord, Coord, Coord, Coord) {
        let (lo, hi) = self.param_range();
        let samples = samples.max(2);
        let mut w_min = Coord::MAX;
        let mut w_max = Coord::MIN;
        let mut h_min = Coord::MAX;
        let mut h_max = Coord::MIN;
        let mut visit = |p: f64| {
            let (w, h) = self.dims_for(p);
            w_min = w_min.min(w);
            w_max = w_max.max(w);
            h_min = h_min.min(h);
            h_max = h_max.max(h);
        };
        for k in 0..samples {
            let t = k as f64 / (samples - 1) as f64;
            visit(lo + (hi - lo) * t);
        }
        for p in self.critical_params() {
            visit(p);
        }
        (w_min, w_max, h_min, h_max)
    }

    /// Derives a [`Block`] whose dimension bounds cover everything this
    /// generator can produce.
    #[must_use]
    pub fn derive_block(&self, name: impl Into<String>) -> Block {
        let (w_min, w_max, h_min, h_max) = self.dim_bounds(64);
        Block::new(name, w_min, w_max, h_min, h_max)
    }
}

/// A per-circuit sizing model: one generator per block, translating the
/// sizer's parameter vector into the dimension vector fed to the
/// multi-placement structure.
#[derive(Debug, Clone, PartialEq)]
pub struct SizingModel {
    generators: Vec<Generator>,
}

impl SizingModel {
    /// Creates a model from per-block generators (block order).
    #[must_use]
    pub fn new(generators: Vec<Generator>) -> Self {
        Self { generators }
    }

    /// Per-block generators.
    #[must_use]
    pub fn generators(&self) -> &[Generator] {
        &self.generators
    }

    /// Number of blocks covered.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.generators.len()
    }

    /// Translates a parameter vector into block dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.block_count()`.
    #[must_use]
    pub fn dims(&self, params: &[f64]) -> Vec<(Coord, Coord)> {
        assert_eq!(
            params.len(),
            self.generators.len(),
            "parameter vector length mismatch"
        );
        self.generators
            .iter()
            .zip(params)
            .map(|(g, &p)| g.dims_for(p))
            .collect()
    }

    /// Derives the block list (names `X0..`) implied by the generators.
    #[must_use]
    pub fn derive_blocks(&self) -> Vec<Block> {
        self.generators
            .iter()
            .enumerate()
            .map(|(i, g)| g.derive_block(format!("X{i}")))
            .collect()
    }

    /// Per-block `(min, max)` parameter ranges for the sizer.
    #[must_use]
    pub fn param_ranges(&self) -> Vec<(f64, f64)> {
        self.generators.iter().map(Generator::param_range).collect()
    }
}

// ---------------------------------------------------------------------------
// Parametric corpus circuits.
//
// The Table-1 benchmarks top out at 24 blocks; proving serving-cost
// asymptotics (the v2 compiled index's flat-scaling gate) needs circuits
// an order of magnitude past that. These two generators manufacture
// regular analog fabrics — an RC ladder and a device array — at any
// size, with the same generator-backed sizing model the benchmarks use,
// so scaled corpora are one function call instead of nine hand-built
// netlists.
// ---------------------------------------------------------------------------

/// An RC ladder filter: `rungs` series resistors, each with a shunt
/// capacitor hanging off its output node. `2 * rungs` blocks — at 120
/// rungs that is 10x the largest Table-1 benchmark.
///
/// `scale` multiplies every sizing range, exactly like the benchmark
/// suite's internal helpers (1.0 reproduces benchmark-typical module
/// sizes).
///
/// # Panics
///
/// Panics if `rungs == 0` (a ladder needs at least one rung).
#[must_use]
pub fn ladder_circuit(rungs: usize, scale: f64) -> (crate::Circuit, SizingModel) {
    assert!(rungs > 0, "a ladder needs at least one rung");
    let mut names = Vec::with_capacity(2 * rungs);
    let mut generators = Vec::with_capacity(2 * rungs);
    for i in 0..rungs {
        names.push(format!("R{i}"));
        generators.push(Generator::Resistor(ResistorGenerator {
            min_squares: 20.0 * scale,
            max_squares: 400.0 * scale,
            ..ResistorGenerator::default()
        }));
        names.push(format!("C{i}"));
        generators.push(Generator::Capacitor(CapacitorGenerator {
            min_cap: 100.0 * scale,
            max_cap: 2_500.0 * scale,
            ..CapacitorGenerator::default()
        }));
    }
    let blocks: Vec<Block> = names
        .iter()
        .zip(&generators)
        .map(|(n, g)| g.derive_block(n.clone()))
        .collect();
    // Node i joins rung i's resistor and capacitor with the next rung's
    // resistor (the last node is just the R/C pair).
    let r = |i: usize| 2 * i;
    let c = |i: usize| 2 * i + 1;
    let nets: Vec<crate::Net> = (0..rungs)
        .map(|i| {
            let mut members = vec![crate::BlockId(r(i)), crate::BlockId(c(i))];
            if i + 1 < rungs {
                members.push(crate::BlockId(r(i + 1)));
            }
            crate::Net::connecting(format!("node{i}"), &members)
        })
        .collect();
    let circuit =
        crate::Circuit::new("ladder", blocks, nets).expect("ladder circuit must validate");
    (circuit, SizingModel::new(generators))
}

/// A `rows x cols` MOSFET array (a current-mirror / DAC bank): one
/// device per cell, a shared rail net per row and a shared gate net per
/// column. `rows * cols` blocks.
///
/// `scale` multiplies the sizing range, like [`ladder_circuit`].
///
/// # Panics
///
/// Panics if `rows < 2` or `cols < 2` (every net needs two pins).
#[must_use]
pub fn array_circuit(rows: usize, cols: usize, scale: f64) -> (crate::Circuit, SizingModel) {
    assert!(rows >= 2 && cols >= 2, "array nets need two pins per net");
    let cell = |r: usize, k: usize| r * cols + k;
    let mut names = Vec::with_capacity(rows * cols);
    let mut generators = Vec::with_capacity(rows * cols);
    for row in 0..rows {
        for col in 0..cols {
            names.push(format!("M{row}_{col}"));
            generators.push(Generator::Mosfet(MosfetGenerator {
                min_total_width: 40.0 * scale,
                max_total_width: 900.0 * scale,
                ..MosfetGenerator::default()
            }));
        }
    }
    let blocks: Vec<Block> = names
        .iter()
        .zip(&generators)
        .map(|(n, g)| g.derive_block(n.clone()))
        .collect();
    let mut nets = Vec::with_capacity(rows + cols);
    for row in 0..rows {
        let members: Vec<crate::BlockId> =
            (0..cols).map(|k| crate::BlockId(cell(row, k))).collect();
        nets.push(crate::Net::connecting(format!("rail{row}"), &members));
    }
    for col in 0..cols {
        let members: Vec<crate::BlockId> =
            (0..rows).map(|r| crate::BlockId(cell(r, col))).collect();
        nets.push(crate::Net::connecting(format!("gate{col}"), &members));
    }
    let circuit = crate::Circuit::new("array", blocks, nets).expect("array circuit must validate");
    (circuit, SizingModel::new(generators))
}

#[cfg(feature = "serde")]
serde::impl_serde_struct!(MosfetGenerator {
    finger_pitch,
    guard,
    min_total_width,
    max_total_width,
});

#[cfg(feature = "serde")]
serde::impl_serde_struct!(DiffPairGenerator {
    mosfet,
    matching_margin,
});

#[cfg(feature = "serde")]
serde::impl_serde_struct!(CapacitorGenerator {
    density,
    ring,
    min_cap,
    max_cap,
    aspect,
});

#[cfg(feature = "serde")]
serde::impl_serde_struct!(ResistorGenerator {
    strip_width,
    strip_gap,
    max_strip_len,
    min_squares,
    max_squares,
});

#[cfg(feature = "serde")]
serde::impl_serde_struct!(SizingModel { generators });

#[cfg(feature = "serde")]
mod serde_impls {
    use super::*;
    use serde::{read_deferred, Deserialize, Error, Kind, Map, Reader, Serialize, Value};

    // Externally tagged, matching serde's default enum representation:
    // {"Mosfet": {...}} etc.
    impl Serialize for Generator {
        fn to_value(&self) -> Value {
            let (tag, config) = match self {
                Generator::Mosfet(g) => ("Mosfet", g.to_value()),
                Generator::DiffPair(g) => ("DiffPair", g.to_value()),
                Generator::Capacitor(g) => ("Capacitor", g.to_value()),
                Generator::Resistor(g) => ("Resistor", g.to_value()),
            };
            let mut map = Map::new();
            map.insert(tag, config);
            Value::Object(map)
        }
    }

    impl Deserialize for Generator {
        fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
            let found = r.peek()?;
            if found != Kind::Object {
                return Err(Error::expected("Generator object", found));
            }
            // Every distinct key with the last decode of its value: the
            // single-variant check counts keys, as an object map would.
            let mut members: Vec<(String, Result<Generator, Error>)> = Vec::new();
            serde::read_object(r, |key, r| {
                let value = match key {
                    "Mosfet" => read_deferred::<MosfetGenerator>(r)?.map(Generator::Mosfet),
                    "DiffPair" => read_deferred::<DiffPairGenerator>(r)?.map(Generator::DiffPair),
                    "Capacitor" => {
                        read_deferred::<CapacitorGenerator>(r)?.map(Generator::Capacitor)
                    }
                    "Resistor" => read_deferred::<ResistorGenerator>(r)?.map(Generator::Resistor),
                    other => {
                        r.skip_value()?;
                        Err(Error::custom(format!(
                            "unknown Generator variant `{other}`"
                        )))
                    }
                };
                match members.iter_mut().find(|(k, _)| k == key) {
                    Some(member) => member.1 = value,
                    None => members.push((key.to_owned(), value)),
                }
                Ok(())
            })?;
            match members.len() {
                1 => members.swap_remove(0).1,
                keys => Err(Error::custom(format!(
                    "expected single-variant Generator object, found {keys} keys"
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mosfet_grows_with_width() {
        let g = MosfetGenerator::default();
        let (w1, h1) = g.dims(50.0);
        let (w2, h2) = g.dims(800.0);
        assert!((w2 as u64 * h2 as u64) > (w1 as u64 * h1 as u64));
    }

    #[test]
    fn mosfet_folding_keeps_aspect_reasonable() {
        let g = MosfetGenerator::default();
        for width in [40.0, 100.0, 400.0, 1200.0] {
            let (w, h) = g.dims(width);
            let aspect = w as f64 / h as f64;
            assert!(
                (0.2..=5.0).contains(&aspect),
                "width {width}: footprint {w}x{h} too elongated"
            );
        }
    }

    #[test]
    fn mosfet_clamps_parameter() {
        let g = MosfetGenerator::default();
        assert_eq!(g.dims(-100.0), g.dims(g.min_total_width));
        assert_eq!(g.dims(1e9), g.dims(g.max_total_width));
    }

    #[test]
    fn diff_pair_is_wider_than_single() {
        let m = MosfetGenerator::default();
        let d = DiffPairGenerator {
            mosfet: m,
            matching_margin: 2,
        };
        let (wm, hm) = m.dims(200.0);
        let (wd, hd) = d.dims(200.0);
        assert_eq!(hd, hm);
        assert_eq!(wd, 2 * wm + 2);
    }

    #[test]
    fn capacitor_area_tracks_capacitance() {
        let g = CapacitorGenerator::default();
        let (w1, h1) = g.dims(100.0);
        let (w2, h2) = g.dims(400.0);
        let a1 = w1 as f64 * h1 as f64;
        let a2 = w2 as f64 * h2 as f64;
        assert!(a2 > 2.5 * a1, "a1={a1} a2={a2}");
    }

    #[test]
    fn capacitor_aspect_skews_footprint() {
        let wide = CapacitorGenerator {
            aspect: 4.0,
            ..CapacitorGenerator::default()
        };
        let (w, h) = wide.dims(1_000.0);
        assert!(w > h);
    }

    #[test]
    fn resistor_folds_into_strips() {
        let g = ResistorGenerator::default();
        let (w_short, _) = g.dims(20.0);
        let (w_long, h_long) = g.dims(600.0);
        assert!(w_long > w_short, "long resistor must use more strips");
        assert!(h_long <= g.max_strip_len + 1);
    }

    #[test]
    fn generator_enum_dispatches() {
        let g = Generator::Capacitor(CapacitorGenerator::default());
        let (lo, hi) = g.param_range();
        assert!(lo < hi);
        let d = g.dims_for(lo);
        assert!(d.0 > 0 && d.1 > 0);
    }

    #[test]
    fn derive_block_covers_all_outputs() {
        for g in [
            Generator::Mosfet(MosfetGenerator::default()),
            Generator::DiffPair(DiffPairGenerator::default()),
            Generator::Capacitor(CapacitorGenerator::default()),
            Generator::Resistor(ResistorGenerator::default()),
        ] {
            let block = g.derive_block("t");
            let (lo, hi) = g.param_range();
            for k in 0..=40 {
                let p = lo + (hi - lo) * (k as f64 / 40.0);
                let (w, h) = g.dims_for(p);
                // A sampled bound may in principle miss a non-monotonic
                // extremum, but the generators are piecewise monotone at
                // this resolution.
                assert!(
                    block.admits(w, h),
                    "{g:?} at p={p}: ({w},{h}) outside derived bounds"
                );
            }
        }
    }

    #[test]
    fn sizing_model_translates_vectors() {
        let model = SizingModel::new(vec![
            Generator::Mosfet(MosfetGenerator::default()),
            Generator::Capacitor(CapacitorGenerator::default()),
        ]);
        let dims = model.dims(&[100.0, 500.0]);
        assert_eq!(dims.len(), 2);
        let blocks = model.derive_blocks();
        assert_eq!(blocks.len(), 2);
        assert!(blocks[0].admits(dims[0].0, dims[0].1));
        assert!(blocks[1].admits(dims[1].0, dims[1].1));
        assert_eq!(model.param_ranges().len(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sizing_model_rejects_wrong_arity() {
        let model = SizingModel::new(vec![Generator::Mosfet(MosfetGenerator::default())]);
        let _ = model.dims(&[1.0, 2.0]);
    }

    #[test]
    fn ladder_scales_to_ten_times_the_benchmark_suite() {
        // The largest Table-1 benchmark has 24 blocks; the corpus
        // generator must reach an order of magnitude past it.
        let (small, model) = ladder_circuit(3, 1.0);
        assert_eq!(small.block_count(), 6);
        assert_eq!(model.block_count(), 6);
        let (big, big_model) = ladder_circuit(120, 1.0);
        assert_eq!(big.block_count(), 240);
        assert_eq!(big.net_count(), 120);
        assert_eq!(big_model.block_count(), 240);
        // Deterministic: same parameters, same circuit.
        let (again, _) = ladder_circuit(120, 1.0);
        assert_eq!(big.block_count(), again.block_count());
        assert_eq!(big.terminal_count(), again.terminal_count());
    }

    #[test]
    fn array_wires_rows_and_columns() {
        let (circuit, model) = array_circuit(6, 5, 1.0);
        assert_eq!(circuit.block_count(), 30);
        assert_eq!(circuit.net_count(), 11); // 6 rails + 5 gate columns
        assert_eq!(model.block_count(), 30);
        // Every block sits on exactly one rail and one gate net.
        assert_eq!(circuit.terminal_count(), 2 * 30);
    }

    #[test]
    fn corpus_models_drive_their_circuits() {
        let (circuit, model) = ladder_circuit(4, 1.0);
        let params: Vec<f64> = model.param_ranges().iter().map(|&(lo, _)| lo).collect();
        let dims = model.dims(&params);
        assert_eq!(dims.len(), circuit.block_count());
        for (block, &(w, h)) in circuit.blocks().iter().zip(&dims) {
            assert!(block.admits(w, h));
        }
    }
}
