//! The placement cost calculator (§3.2.2).
//!
//! "The cost calculator has a fixed placement along with fixed widths and
//! heights of the blocks present in the circuit as its input. It calculates
//! a cost for the proposed circuit based on the wire-lengths and area of
//! that proposed design. This cost function is customizable."

use crate::placement::{escape_area, pairwise_overlap_area};
use crate::{Placement, SymmetryConstraints};
use mps_geom::{Coord, DimsBox, Point, Rect};
use mps_netlist::{BlockId, Circuit, Net, Pad, PinOffset};
use std::sync::OnceLock;

/// Weights of the customizable cost function.
///
/// The two paper terms are `wirelength` (weighted half-perimeter wirelength
/// over all nets) and `area` (half-perimeter of the floorplan bounding box,
/// so both terms share length units). `overlap` and `out_of_bounds` are
/// penalty terms used only by optimization-based placers whose intermediate
/// states may be illegal; `symmetry` activates the analog symmetry
/// extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the total half-perimeter wirelength.
    pub wirelength: f64,
    /// Weight of the bounding-box half-perimeter.
    pub area: f64,
    /// Weight of the pairwise overlap area (penalty; 0 for legal states).
    pub overlap: f64,
    /// Weight of the area escaping the floorplan (penalty).
    pub out_of_bounds: f64,
    /// Weight of the symmetry-group deviation (extension).
    pub symmetry: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            wirelength: 1.0,
            area: 1.0,
            overlap: 50.0,
            out_of_bounds: 50.0,
            symmetry: 0.0,
        }
    }
}

/// The individual cost terms before weighting; useful for reporting and for
/// the Fig.-6 experiment, which plots raw costs per stored placement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Σ over nets of `weight · HPWL(net)`.
    pub wirelength: f64,
    /// `w + h` of the bounding box.
    pub area_half_perimeter: f64,
    /// Σ pairwise overlap areas.
    pub overlap_area: f64,
    /// Σ block area outside the floorplan.
    pub out_of_bounds_area: f64,
    /// Symmetry-group deviation (0 when no constraints installed).
    pub symmetry: f64,
}

impl CostBreakdown {
    /// The weighted total.
    #[must_use]
    pub fn total(&self, w: &CostWeights) -> f64 {
        w.wirelength * self.wirelength
            + w.area * self.area_half_perimeter
            + w.overlap * self.overlap_area
            + w.out_of_bounds * self.out_of_bounds_area
            + w.symmetry * self.symmetry
    }

    /// Whether the state is legal (no overlap, no boundary escape).
    #[must_use]
    pub fn is_legal(&self) -> bool {
        self.overlap_area == 0.0 && self.out_of_bounds_area == 0.0
    }
}

/// Computes placement costs for one circuit.
///
/// # Example
///
/// ```
/// use mps_geom::Point;
/// use mps_netlist::benchmarks;
/// use mps_placer::{CostCalculator, Placement};
///
/// let circuit = benchmarks::circ01();
/// let dims = circuit.min_dims();
/// let n = circuit.block_count();
/// // A crude row placement.
/// let mut x = 0;
/// let coords: Vec<Point> = dims.iter().map(|&(w, _)| {
///     let p = Point::new(x, 0);
///     x += w;
///     p
/// }).collect();
/// let cost = CostCalculator::new(&circuit).cost(&Placement::new(coords), &dims);
/// assert!(cost > 0.0);
/// # let _ = n;
/// ```
#[derive(Debug, Clone)]
pub struct CostCalculator<'a> {
    circuit: &'a Circuit,
    weights: CostWeights,
    floorplan: Option<Rect>,
    symmetry: Option<&'a SymmetryConstraints>,
    /// Built by the first [`CostCalculator::incremental`] call.
    adjacency: OnceLock<NetAdjacency>,
}

/// Which nets and pins a move must recost.
#[derive(Debug, Clone)]
struct NetAdjacency {
    /// Per block, the nets with a pin on it (ascending).
    block_nets: Vec<Vec<usize>>,
    /// Per block, those of its nets without a pad.
    block_padless_nets: Vec<Vec<usize>>,
    /// The nets with an external pad, which follow the bounding box.
    pad_nets: Vec<usize>,
    /// Net `k`'s pins are `net_pins[k]..net_pins[k + 1]` in the flat pin
    /// order: nets in order, each net's pins in order.
    net_pins: Vec<usize>,
    /// Per block, the flat index and offset of each pin on it.
    block_pins: Vec<Vec<(usize, PinOffset)>>,
}

impl NetAdjacency {
    fn of(circuit: &Circuit) -> Self {
        let nets = circuit.nets();
        let block_nets: Vec<Vec<usize>> = (0..circuit.block_count())
            .map(|b| circuit.nets_of_block(BlockId(b)))
            .collect();
        let mut net_pins = Vec::with_capacity(nets.len() + 1);
        let mut block_pins = vec![Vec::new(); circuit.block_count()];
        let mut flat = 0;
        for net in nets {
            net_pins.push(flat);
            for pin in net.pins() {
                block_pins[pin.block.index()].push((flat, pin.offset));
                flat += 1;
            }
        }
        net_pins.push(flat);
        Self {
            block_padless_nets: block_nets
                .iter()
                .map(|own| {
                    own.iter()
                        .copied()
                        .filter(|&k| nets[k].pad().is_none())
                        .collect()
                })
                .collect(),
            block_nets,
            pad_nets: (0..nets.len())
                .filter(|&k| nets[k].pad().is_some())
                .collect(),
            net_pins,
            block_pins,
        }
    }
}

/// Half-perimeter wirelength of a net's pin `points` plus its `pad` on
/// the bounding box `bb`, or `None` for a net with nothing to measure.
/// The one HPWL definition, shared by [`CostCalculator::wirelength`] and
/// [`IncrementalCost`].
fn hpwl(
    points: impl Iterator<Item = Point>,
    pad: Option<&Pad>,
    bb: Option<&Rect>,
) -> Option<Coord> {
    let mut min_x = Coord::MAX;
    let mut max_x = Coord::MIN;
    let mut min_y = Coord::MAX;
    let mut max_y = Coord::MIN;
    let mut visit = |p: Point| {
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    };
    points.for_each(&mut visit);
    if let (Some(pad), Some(bb)) = (pad, bb) {
        visit(pad.locate(bb));
    }
    (max_x >= min_x).then(|| (max_x - min_x) + (max_y - min_y))
}

/// [`hpwl`] of `net` with its pins located on `rects`.
fn net_hpwl(net: &Net, rects: &[Rect], bb: Option<&Rect>) -> Option<Coord> {
    let points = net
        .pins()
        .iter()
        .map(|pin| pin.offset.locate(&rects[pin.block.index()]));
    hpwl(points, net.pad(), bb)
}

/// Σ `weight · hpwl` over the nets, in net order. Every wirelength goes
/// through this one sum, so fresh and cached per-net values give the same
/// bits.
fn weighted_wirelength(nets: &[Net], hpwl: impl Iterator<Item = Option<Coord>>) -> f64 {
    nets.iter().zip(hpwl).fold(0.0, |total, (net, h)| match h {
        Some(h) => total + net.weight() * h as f64,
        None => total,
    })
}

impl<'a> CostCalculator<'a> {
    /// A calculator with default weights, no floorplan bound and no
    /// symmetry constraints.
    #[must_use]
    pub fn new(circuit: &'a Circuit) -> Self {
        Self {
            circuit,
            weights: CostWeights::default(),
            floorplan: None,
            symmetry: None,
            adjacency: OnceLock::new(),
        }
    }

    /// Replaces the weights (builder style).
    #[must_use]
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Installs a floorplan bound; states escaping it pay the
    /// `out_of_bounds` penalty.
    #[must_use]
    pub fn with_floorplan(mut self, floorplan: Rect) -> Self {
        self.floorplan = Some(floorplan);
        self
    }

    /// Installs analog symmetry constraints (remember to give
    /// [`CostWeights::symmetry`] a positive weight).
    #[must_use]
    pub fn with_symmetry(mut self, symmetry: &'a SymmetryConstraints) -> Self {
        self.symmetry = Some(symmetry);
        self
    }

    /// The circuit this calculator serves.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The active weights.
    #[must_use]
    pub fn weights(&self) -> &CostWeights {
        &self.weights
    }

    /// Total weighted half-perimeter wirelength.
    ///
    /// Pin locations scale with block dimensions; nets with an external pad
    /// include the pad located on the current bounding box.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from the circuit's block count.
    #[must_use]
    pub fn wirelength(&self, placement: &Placement, dims: &[(Coord, Coord)]) -> f64 {
        let rects = placement.rects(dims);
        self.wirelength_of(&rects, Rect::bounding_box_of(&rects).as_ref())
    }

    fn wirelength_of(&self, rects: &[Rect], bb: Option<&Rect>) -> f64 {
        let nets = self.circuit.nets();
        weighted_wirelength(nets, nets.iter().map(|net| net_hpwl(net, rects, bb)))
    }

    /// Computes all raw cost terms.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from the circuit's block count.
    #[must_use]
    pub fn breakdown(&self, placement: &Placement, dims: &[(Coord, Coord)]) -> CostBreakdown {
        let rects = placement.rects(dims);
        let bb = Rect::bounding_box_of(&rects);
        let escape = self
            .floorplan
            .map_or(0, |fp| rects.iter().map(|r| escape_area(r, &fp)).sum());
        self.assemble(
            self.wirelength_of(&rects, bb.as_ref()),
            bb,
            pairwise_overlap_area(&rects),
            escape,
            placement,
            dims,
        )
    }

    /// The breakdown from its integer terms; the symmetry term is always
    /// computed afresh.
    fn assemble(
        &self,
        wirelength: f64,
        bb: Option<Rect>,
        overlap_area: u64,
        out_of_bounds_area: u64,
        placement: &Placement,
        dims: &[(Coord, Coord)],
    ) -> CostBreakdown {
        CostBreakdown {
            wirelength,
            area_half_perimeter: bb.map_or(0.0, |b| (b.width() + b.height()) as f64),
            overlap_area: overlap_area as f64,
            out_of_bounds_area: out_of_bounds_area as f64,
            symmetry: self.symmetry.map_or(0.0, |s| s.deviation(placement, dims)),
        }
    }

    /// The weighted total cost — what both annealing levels minimize.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from the circuit's block count.
    #[must_use]
    pub fn cost(&self, placement: &Placement, dims: &[(Coord, Coord)]) -> f64 {
        self.breakdown(placement, dims).total(&self.weights)
    }

    /// An evaluator of this calculator's cost for `placement` with block
    /// dimensions inside `dims_box`, starting at `dims`, that recosts
    /// one-block moves incrementally.
    ///
    /// `placement` must be legal at the box's upper corner, as it is for
    /// every box from [`crate::expand_placement`]. Blocks are anchored at
    /// their lower-left corner, so a block below its box's upper corner
    /// lies inside its rectangle at that corner: overlap and escape are 0
    /// in every state of the box, and the evaluator keeps neither term.
    ///
    /// # Panics
    ///
    /// Panics if `placement` overlaps, or escapes the floorplan, at the
    /// upper corner of `dims_box`, if `dims` is not inside `dims_box`, if
    /// the arities differ from the circuit's block count, and at
    /// [`IncrementalCost::propose`] if a move leaves the box.
    #[must_use]
    pub fn incremental<'s>(
        &'s self,
        placement: &'s Placement,
        dims: &[(Coord, Coord)],
        dims_box: &'s DimsBox,
    ) -> IncrementalCost<'s> {
        IncrementalCost::new(self, placement, dims, dims_box)
    }
}

/// [`CostCalculator::cost`] of one placement whose block dimensions move
/// one block at a time inside a box legal at its upper corner — the BDIO's
/// inner anneal (§3.2).
///
/// Every state of such a box is legal, so the evaluator caches only the
/// wirelength and area terms: the block rects, each pin's absolute point,
/// the integer HPWL of each net and the bounding box. A proposal that
/// resizes block `i` re-locates only `i`'s pins and recomputes `i`'s nets
/// from the cached points (plus the pad nets when the bounding box
/// changes), and the bounding box. [`IncrementalCost::commit`] keeps the
/// proposal; the next [`IncrementalCost::propose`] drops an uncommitted
/// one.
///
/// Every energy equals [`CostCalculator::cost`] bit for bit. Points and
/// HPWL are integers, so their updates are exact. No f64 delta is added to
/// a running total: the wirelength is re-summed from the cached per-net
/// values in net order, the symmetry term is recomputed in full, and the
/// total goes through the same [`CostBreakdown::total`].
///
/// # Example
///
/// ```
/// use mps_netlist::benchmarks;
/// use mps_placer::{CostCalculator, Template};
///
/// let circuit = benchmarks::circ01();
/// let mut dims = circuit.min_dims().into_vec();
/// let placement = Template::expert_default(&circuit, 2).instantiate(&circuit.max_dims());
/// let bounds = circuit.full_space();
/// let calc = CostCalculator::new(&circuit);
/// let mut eval = calc.incremental(&placement, &dims, &bounds);
/// dims[1].0 += 3;
/// let proposed = eval.propose(1, dims[1]);
/// assert_eq!(proposed.to_bits(), calc.cost(&placement, &dims).to_bits());
/// eval.commit();
/// assert_eq!(eval.energy().to_bits(), proposed.to_bits());
/// ```
#[derive(Debug)]
pub struct IncrementalCost<'a> {
    calc: &'a CostCalculator<'a>,
    adjacency: &'a NetAdjacency,
    placement: &'a Placement,
    /// The box every state stays in.
    dims_box: &'a DimsBox,
    dims: Vec<(Coord, Coord)>,
    rects: Vec<Rect>,
    bb: Option<Rect>,
    /// Each pin's absolute point, in the flat pin order of
    /// [`NetAdjacency::net_pins`].
    points: Vec<Point>,
    hpwl: Vec<Option<Coord>>,
    energy: f64,
    pending: Option<Pending>,
    /// Net values the pending proposal overwrote, in overwrite order.
    saved_hpwl: Vec<(usize, Option<Coord>)>,
    /// The moved block's pin points before the pending proposal, in
    /// [`NetAdjacency::block_pins`] order.
    saved_points: Vec<Point>,
}

/// What a pending proposal overwrote, and the energy it proposed.
#[derive(Debug, Clone, Copy)]
struct Pending {
    block: usize,
    dims: (Coord, Coord),
    rect: Rect,
    bb: Option<Rect>,
    energy: f64,
}

impl<'a> IncrementalCost<'a> {
    fn new(
        calc: &'a CostCalculator<'a>,
        placement: &'a Placement,
        dims: &[(Coord, Coord)],
        dims_box: &'a DimsBox,
    ) -> Self {
        assert!(dims_box.contains(dims), "starting state outside the box");
        let upper: Vec<(Coord, Coord)> = dims_box
            .ranges()
            .iter()
            .map(|r| (r.w.hi(), r.h.hi()))
            .collect();
        assert!(
            placement.is_legal(&upper, calc.floorplan.as_ref()),
            "placement overlaps or escapes the floorplan at the box's upper corner"
        );
        let rects = placement.rects(dims);
        let bb = Rect::bounding_box_of(&rects);
        let adjacency = calc
            .adjacency
            .get_or_init(|| NetAdjacency::of(calc.circuit));
        let nets = calc.circuit.nets();
        let points: Vec<Point> = nets
            .iter()
            .flat_map(|net| net.pins())
            .map(|pin| pin.offset.locate(&rects[pin.block.index()]))
            .collect();
        let hpwl = nets
            .iter()
            .zip(adjacency.net_pins.windows(2))
            .map(|(net, pins)| {
                hpwl(
                    points[pins[0]..pins[1]].iter().copied(),
                    net.pad(),
                    bb.as_ref(),
                )
            })
            .collect();
        let mut eval = Self {
            calc,
            adjacency,
            placement,
            dims_box,
            dims: dims.to_vec(),
            saved_points: Vec::with_capacity(points.len()),
            points,
            hpwl,
            rects,
            bb,
            energy: 0.0,
            pending: None,
            saved_hpwl: Vec::new(),
        };
        eval.energy = eval.total();
        eval
    }

    /// Energy of the current (last committed) state.
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Energy of the current state with block `block` resized to `dims`.
    /// Drops any uncommitted earlier proposal first.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range or `dims` is outside the block's
    /// ranges in the box.
    pub fn propose(&mut self, block: usize, dims: (Coord, Coord)) -> f64 {
        self.discard();
        assert!(
            self.dims_box.ranges()[block].contains(dims.0, dims.1),
            "block {block} resized to {dims:?}, outside the box"
        );
        if dims == self.dims[block] {
            return self.energy;
        }
        let adjacency = self.adjacency;
        let old_rect = self.rects[block];
        let rect = Rect::new(self.placement.coords()[block], dims.0, dims.1);
        let mut pending = Pending {
            block,
            dims: self.dims[block],
            rect: old_rect,
            bb: self.bb,
            energy: 0.0,
        };
        self.dims[block] = dims;
        self.rects[block] = rect;

        // Dropping the old rect can only shrink the box if it reached an
        // edge and the new rect does not cover it.
        self.bb = match self.bb {
            Some(bb) if !touches_edge(&old_rect, &bb) || old_rect.fits_inside(&rect) => {
                Some(bb.bounding_union(&rect))
            }
            _ => Rect::bounding_box_of(&self.rects),
        };

        self.saved_points.clear();
        for &(p, offset) in &adjacency.block_pins[block] {
            self.saved_points.push(self.points[p]);
            self.points[p] = offset.locate(&rect);
        }
        if self.bb == pending.bb {
            for &k in &adjacency.block_nets[block] {
                self.recost_net(k);
            }
        } else {
            for &k in adjacency.block_padless_nets[block]
                .iter()
                .chain(&adjacency.pad_nets)
            {
                self.recost_net(k);
            }
        }

        pending.energy = self.total();
        self.pending = Some(pending);
        pending.energy
    }

    /// Makes the last proposal the current state. Does nothing when there
    /// is none or it changed nothing.
    pub fn commit(&mut self) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        self.saved_hpwl.clear();
        self.energy = pending.energy;
    }

    /// Recomputes net `k` from the cached pin points and bounding box,
    /// saving its old value.
    fn recost_net(&mut self, k: usize) {
        let net = &self.calc.circuit.nets()[k];
        let pins = &self.points[self.adjacency.net_pins[k]..self.adjacency.net_pins[k + 1]];
        self.saved_hpwl.push((k, self.hpwl[k]));
        self.hpwl[k] = hpwl(pins.iter().copied(), net.pad(), self.bb.as_ref());
    }

    /// Restores the state the pending proposal (if any) overwrote.
    fn discard(&mut self) {
        let Some(p) = self.pending.take() else {
            return;
        };
        let i = p.block;
        for (k, h) in self.saved_hpwl.drain(..).rev() {
            self.hpwl[k] = h;
        }
        for (&(q, _), &point) in self.adjacency.block_pins[i].iter().zip(&self.saved_points) {
            self.points[q] = point;
        }
        self.dims[i] = p.dims;
        self.rects[i] = p.rect;
        self.bb = p.bb;
    }

    /// The weighted total of the cached terms.
    fn total(&self) -> f64 {
        let wirelength = weighted_wirelength(self.calc.circuit.nets(), self.hpwl.iter().copied());
        self.calc
            .assemble(wirelength, self.bb, 0, 0, self.placement, &self.dims)
            .total(&self.calc.weights)
    }
}

/// Whether `rect` reaches an edge of the bounding box `bb` it lies in.
fn touches_edge(rect: &Rect, bb: &Rect) -> bool {
    rect.left() == bb.left()
        || rect.right() == bb.right()
        || rect.bottom() == bb.bottom()
        || rect.top() == bb.top()
}

#[cfg(feature = "serde")]
serde::impl_serde_struct!(CostWeights {
    wirelength,
    area,
    overlap,
    out_of_bounds,
    symmetry,
});

#[cfg(test)]
mod tests {
    use super::*;
    use mps_geom::{BlockRanges, Interval};
    use mps_netlist::{benchmarks, Block, Circuit, Net, Pad, PadSide, Pin};

    fn pair_circuit() -> Circuit {
        Circuit::builder("pair")
            .block(Block::new("A", 10, 10, 10, 10))
            .block(Block::new("B", 10, 10, 10, 10))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn wirelength_is_center_to_center_hpwl() {
        let c = pair_circuit();
        let dims = vec![(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(0, 0), Point::new(20, 0)]);
        // Centers at (5,5) and (25,5): HPWL = 20 + 0.
        let wl = CostCalculator::new(&c).wirelength(&p, &dims);
        assert_eq!(wl, 20.0);
    }

    #[test]
    fn closer_blocks_cost_less() {
        let c = pair_circuit();
        let dims = vec![(10, 10), (10, 10)];
        let calc = CostCalculator::new(&c);
        let near = Placement::new(vec![Point::new(0, 0), Point::new(10, 0)]);
        let far = Placement::new(vec![Point::new(0, 0), Point::new(60, 0)]);
        assert!(calc.cost(&near, &dims) < calc.cost(&far, &dims));
    }

    #[test]
    fn weights_scale_terms() {
        let c = pair_circuit();
        let dims = vec![(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(0, 0), Point::new(10, 0)]);
        let wl_only = CostCalculator::new(&c).with_weights(CostWeights {
            wirelength: 1.0,
            area: 0.0,
            overlap: 0.0,
            out_of_bounds: 0.0,
            symmetry: 0.0,
        });
        assert_eq!(wl_only.cost(&p, &dims), wl_only.wirelength(&p, &dims));
    }

    #[test]
    fn overlap_penalty_applies() {
        let c = pair_circuit();
        let dims = vec![(10, 10), (10, 10)];
        let overlapping = Placement::new(vec![Point::new(0, 0), Point::new(5, 0)]);
        let bd = CostCalculator::new(&c).breakdown(&overlapping, &dims);
        assert_eq!(bd.overlap_area, 50.0);
        assert!(!bd.is_legal());
    }

    #[test]
    fn out_of_bounds_penalty_requires_floorplan() {
        let c = pair_circuit();
        let dims = vec![(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(-5, 0), Point::new(20, 0)]);
        let without = CostCalculator::new(&c).breakdown(&p, &dims);
        assert_eq!(without.out_of_bounds_area, 0.0);
        let with = CostCalculator::new(&c)
            .with_floorplan(Rect::from_xywh(0, 0, 100, 100))
            .breakdown(&p, &dims);
        assert_eq!(with.out_of_bounds_area, 50.0);
    }

    #[test]
    fn pad_nets_pull_toward_boundary() {
        let c = Circuit::builder("pad")
            .block(Block::new("A", 10, 10, 10, 10))
            .block(Block::new("B", 10, 10, 10, 10))
            .net(
                Net::new("io", vec![Pin::center_of(0.into())])
                    .with_pad(Pad::new(PadSide::Right, 0.5)),
            )
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap();
        let dims = vec![(10, 10), (10, 10)];
        let calc = CostCalculator::new(&c);
        // Block A on the left: the pad net spans the whole bounding box.
        let a_left = Placement::new(vec![Point::new(0, 0), Point::new(40, 0)]);
        // Block A on the right: pad net short.
        let a_right = Placement::new(vec![Point::new(40, 0), Point::new(0, 0)]);
        assert!(calc.wirelength(&a_right, &dims) < calc.wirelength(&a_left, &dims));
    }

    #[test]
    fn net_weight_multiplies() {
        let c = Circuit::builder("w")
            .block(Block::new("A", 10, 10, 10, 10))
            .block(Block::new("B", 10, 10, 10, 10))
            .net(Net::connecting("n", &[0.into(), 1.into()]).with_weight(3.0))
            .build()
            .unwrap();
        let dims = vec![(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(0, 0), Point::new(20, 0)]);
        assert_eq!(CostCalculator::new(&c).wirelength(&p, &dims), 60.0);
    }

    #[test]
    fn breakdown_total_matches_cost() {
        let c = benchmarks::circ01();
        let dims = c.min_dims();
        let mut x = 0;
        let coords: Vec<Point> = dims
            .iter()
            .map(|&(w, _)| {
                let p = Point::new(x, 0);
                x += w + 1;
                p
            })
            .collect();
        let p = Placement::new(coords);
        let calc = CostCalculator::new(&c);
        let bd = calc.breakdown(&p, &dims);
        assert!((bd.total(calc.weights()) - calc.cost(&p, &dims)).abs() < 1e-9);
        assert!(bd.is_legal());
    }

    /// Blocks A at (0, 0) and B at (10, 0), both 10 × 10 at the box's
    /// lower corner, with A's width ranging up to `a_w` and B's up to
    /// `b_w`.
    fn side_by_side(a_w: Coord, b_w: Coord) -> (Placement, DimsBox) {
        let p = Placement::new(vec![Point::new(0, 0), Point::new(10, 0)]);
        let range = |w| BlockRanges::new(Interval::new(10, w), Interval::new(10, 10));
        (p, DimsBox::new(vec![range(a_w), range(b_w)]))
    }

    #[test]
    #[should_panic(expected = "at the box's upper corner")]
    fn incremental_rejects_a_box_overlapping_at_its_upper_corner() {
        let c = pair_circuit();
        // A at width 11 reaches into B.
        let (p, dims_box) = side_by_side(11, 10);
        let _ = CostCalculator::new(&c).incremental(&p, &[(10, 10), (10, 10)], &dims_box);
    }

    #[test]
    #[should_panic(expected = "at the box's upper corner")]
    fn incremental_rejects_a_box_escaping_the_floorplan_at_its_upper_corner() {
        let c = pair_circuit();
        // B at width 13 ends at x = 23, past the floorplan's right edge.
        let (p, dims_box) = side_by_side(10, 13);
        let calc = CostCalculator::new(&c).with_floorplan(Rect::from_xywh(0, 0, 22, 10));
        let _ = calc.incremental(&p, &[(10, 10), (10, 10)], &dims_box);
    }
}
