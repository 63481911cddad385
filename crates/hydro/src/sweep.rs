//! Dimensionally split 1D sweeps (`sweepx`, `sweepy`, `sweepz`).
//!
//! VH1's main loop advances the solution with one 1D sweep per axis per
//! cycle; the paper's Fig. 7 shows exactly that structure with the RICSA
//! hooks inserted around it.  A sweep updates every pencil of cells along
//! its axis: HLL interface fluxes with outflow boundary conditions, then a
//! first-order conservative update.
//!
//! A pencil's update reads only its own cells, so pencils are updated in
//! place, in any order, and the result is the same to the bit.  The sweep
//! walks the conserved arrays as rows of `nx` cells (row `r = z·ny + y`).
//! A `sweepx` pencil is one row.  The pencils of `sweepy` and `sweepz`
//! cross the rows, `nx` of them side by side, so one row is one step along
//! `nx` pencils at once.  Either way every step — each cell's wave speeds
//! and flux, each face's HLL flux, each cell's update — is a loop over a
//! contiguous run of lanes in reused buffers.

use crate::eos::IdealGas;
use crate::riemann::{hll_between, Cons1D, Wave};
use crate::state::HydroState;

/// The axis of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Sweep along x.
    X,
    /// Sweep along y.
    Y,
    /// Sweep along z.
    Z,
}

impl Axis {
    fn component(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }
}

/// The five swept arrays in `Cons1D` field order: density, normal
/// momentum, the two transverse momenta, energy.
type Arrays<'a> = [&'a mut [f64]; 5];

/// Perform one conservative sweep along `axis` with time step `dt`.
pub fn sweep(state: &mut HydroState, axis: Axis, dt: f64) {
    let dims = state.dims;
    let n = [dims.nx, dims.ny, dims.nz][axis.component()];
    if n < 2 || dims.count() == 0 {
        return;
    }
    let lambda = dt / state.dx[axis.component()];
    let eos = state.eos;
    let [m0, m1, m2] = &mut state.momentum;
    let (mn, mt1, mt2) = match axis {
        Axis::X => (m0, m1, m2),
        Axis::Y => (m1, m0, m2),
        Axis::Z => (m2, m0, m1),
    };
    let mut q = [&mut state.rho, mn, mt1, mt2, &mut state.energy].map(|a| &mut a[..]);
    let mut lanes = Lanes::default();
    let nx = dims.nx;
    if axis == Axis::X {
        for r in 0..dims.ny * dims.nz {
            let cells = row(&q, nx, r);
            lanes.prev.compute(&eos, cells);
            // Interface fluxes with outflow (zero-gradient) boundaries.
            let faces = &mut lanes.lo;
            resize(faces, n + 1);
            let run = |start: usize| lanes.prev.run(cells, start, 1);
            hll_lanes(faces, 0, run(0), run(0));
            let body = |start: usize| lanes.prev.run(cells, start, n - 1);
            hll_lanes(faces, 1, body(0), body(1));
            hll_lanes(faces, n, run(n - 1), run(n - 1));
            update_lanes(
                row_mut(&mut q, nx, r),
                [&lanes.lo, &lanes.lo],
                [0, 1],
                lambda,
            );
        }
        return;
    }
    // Cell c of pencil group p: row p·ny + c of z-slab p (y), or row
    // c·ny + p, the same y in every slab (z).
    let (groups, row_at): (usize, fn(usize, usize, usize) -> usize) = match axis {
        Axis::Y => (dims.nz, |p, c, ny| p * ny + c),
        _ => (dims.ny, |p, c, ny| c * ny + p),
    };
    let at = |p: usize, c: usize| row_at(p, c, dims.ny);
    resize(&mut lanes.lo, nx);
    resize(&mut lanes.hi, nx);
    for p in 0..groups {
        // Face 0 mirrors the first row.  Face c joins rows c - 1 and c and
        // completes row c - 1, which is then updated in place.
        let first = row(&q, nx, at(p, 0));
        lanes.prev.compute(&eos, first);
        let edge = lanes.prev.run(first, 0, nx);
        hll_lanes(&mut lanes.lo, 0, edge, edge);
        for c in 1..=n {
            let below = row(&q, nx, at(p, c - 1));
            if c < n {
                let above = row(&q, nx, at(p, c));
                lanes.cur.compute(&eos, above);
                let (l, r) = (lanes.prev.run(below, 0, nx), lanes.cur.run(above, 0, nx));
                hll_lanes(&mut lanes.hi, 0, l, r);
            } else {
                let edge = lanes.prev.run(below, 0, nx);
                hll_lanes(&mut lanes.hi, 0, edge, edge);
            }
            let cells = row_mut(&mut q, nx, at(p, c - 1));
            update_lanes(cells, [&lanes.lo, &lanes.hi], [0, 0], lambda);
            std::mem::swap(&mut lanes.prev, &mut lanes.cur);
            std::mem::swap(&mut lanes.lo, &mut lanes.hi);
        }
    }
}

/// Row `r` of every array.
fn row<'a>(q: &'a Arrays, nx: usize, r: usize) -> [&'a [f64]; 5] {
    q.each_ref().map(|a| &a[r * nx..(r + 1) * nx])
}

fn row_mut<'a>(q: &'a mut Arrays, nx: usize, r: usize) -> [&'a mut [f64]; 5] {
    q.each_mut().map(|a| &mut a[r * nx..(r + 1) * nx])
}

fn resize(v: &mut [Vec<f64>; 5], n: usize) {
    for v in v {
        v.resize(n, 0.0);
    }
}

/// The sweep's reused buffers: the prepared cells of the row below and the
/// row above, and the faces below and above the row being updated.
#[derive(Default)]
struct Lanes {
    prev: Waves,
    cur: Waves,
    lo: [Vec<f64>; 5],
    hi: [Vec<f64>; 5],
}

/// The [`Wave`]s of a run of cells, component by component; the states
/// stay in the arrays.
#[derive(Default)]
struct Waves {
    un: Vec<f64>,
    c: Vec<f64>,
    flux: [Vec<f64>; 5],
}

impl Waves {
    fn compute(&mut self, eos: &IdealGas, q: [&[f64]; 5]) {
        let n = q[0].len();
        let q = q.map(|a| &a[..n]);
        self.un.resize(n, 0.0);
        self.c.resize(n, 0.0);
        resize(&mut self.flux, n);
        let (un, c) = (&mut self.un[..n], &mut self.c[..n]);
        let mut flux = self.flux.each_mut().map(|f| &mut f[..n]);
        for i in 0..n {
            let w = Wave::new(eos, cell(q, i));
            un[i] = w.un;
            c[i] = w.c;
            let f = [w.flux.rho, w.flux.mn, w.flux.mt1, w.flux.mt2, w.flux.energy];
            for (out, f) in flux.iter_mut().zip(f) {
                out[i] = f;
            }
        }
    }

    /// Lanes `start..start + len` of these waves over the states `q`.
    fn run<'a>(&'a self, q: [&'a [f64]; 5], start: usize, len: usize) -> Run<'a> {
        let lanes = start..start + len;
        Run {
            q: q.map(|a| &a[lanes.clone()]),
            un: &self.un[lanes.clone()],
            c: &self.c[lanes.clone()],
            flux: self.flux.each_ref().map(|f| &f[lanes.clone()]),
        }
    }
}

/// A run of prepared cells: their states and waves, lane by lane.
#[derive(Clone, Copy)]
struct Run<'a> {
    q: [&'a [f64]; 5],
    un: &'a [f64],
    c: &'a [f64],
    flux: [&'a [f64]; 5],
}

impl Run<'_> {
    /// The first `len` lanes, every component cut to exactly that length.
    fn take(self, len: usize) -> Self {
        Run {
            q: self.q.map(|a| &a[..len]),
            un: &self.un[..len],
            c: &self.c[..len],
            flux: self.flux.map(|f| &f[..len]),
        }
    }

    #[inline(always)]
    fn wave(&self, i: usize) -> Wave {
        let f = |k: usize| self.flux[k][i];
        Wave {
            state: cell(self.q, i),
            un: self.un[i],
            c: self.c[i],
            flux: Cons1D {
                rho: f(0),
                mn: f(1),
                mt1: f(2),
                mt2: f(3),
                energy: f(4),
            },
        }
    }
}

#[inline(always)]
fn cell(q: [&[f64]; 5], i: usize) -> Cons1D {
    Cons1D {
        rho: q[0][i],
        mn: q[1][i],
        mt1: q[2][i],
        mt2: q[3][i],
        energy: q[4][i],
    }
}

/// Faces `at..` of `out`, one per lane of `left`: lane `i` is the HLL flux
/// between lane `i` of `left` and lane `i` of `right`.
fn hll_lanes(out: &mut [Vec<f64>; 5], at: usize, left: Run, right: Run) {
    let len = left.un.len();
    let (left, right) = (left.take(len), right.take(len));
    let mut out = out.each_mut().map(|o| &mut o[at..at + len]);
    for i in 0..len {
        let h = hll_between(&left.wave(i), &right.wave(i));
        let h = [h.rho, h.mn, h.mt1, h.mt2, h.energy];
        for (out, h) in out.iter_mut().zip(h) {
            out[i] = h;
        }
    }
}

/// The conservative update of a run of cells: cell `i` lies between face
/// `lo[i + at[0]]` and face `hi[i + at[1]]`.  Density and energy keep the
/// `1e-12` floor.
fn update_lanes(q: [&mut [f64]; 5], [lo, hi]: [&[Vec<f64>; 5]; 2], at: [usize; 2], lambda: f64) {
    for (k, q) in q.into_iter().enumerate() {
        let floor = k == 0 || k == 4;
        let faces = lo[k][at[0]..].iter().zip(&hi[k][at[1]..]);
        for (q, (&lo, &hi)) in q.iter_mut().zip(faces) {
            let div = hi - lo;
            let u = *q + -lambda * div;
            *q = if floor { u.max(1e-12) } else { u };
        }
    }
}

/// `sweepx` from the VH1 main loop.
pub fn sweepx(state: &mut HydroState, dt: f64) {
    sweep(state, Axis::X, dt);
}

/// `sweepy` from the VH1 main loop.
pub fn sweepy(state: &mut HydroState, dt: f64) {
    sweep(state, Axis::Y, dt);
}

/// `sweepz` from the VH1 main loop.
pub fn sweepz(state: &mut HydroState, dt: f64) {
    sweep(state, Axis::Z, dt);
}

/// The sweep as it was before pencils were updated in place: one gathered
/// pencil and update list per pencil, scattered back afterwards.  Kept as
/// the reference the in-place sweep is held equal to.
#[cfg(test)]
pub(crate) fn reference_sweep(state: &mut HydroState, axis: Axis, dt: f64) {
    use crate::riemann::hll_flux;
    let dims = state.dims;
    let (n_axis, n_other) = match axis {
        Axis::X => (dims.nx, dims.ny * dims.nz),
        Axis::Y => (dims.ny, dims.nx * dims.nz),
        Axis::Z => (dims.nz, dims.nx * dims.ny),
    };
    if n_axis < 2 {
        return;
    }
    let dx = state.dx[axis.component()];
    let eos = state.eos;
    let pencil_indices = |pencil: usize| -> Vec<usize> {
        match axis {
            Axis::X => {
                let y = pencil % dims.ny;
                let z = pencil / dims.ny;
                (0..dims.nx).map(|x| dims.index(x, y, z)).collect()
            }
            Axis::Y => {
                let x = pencil % dims.nx;
                let z = pencil / dims.nx;
                (0..dims.ny).map(|y| dims.index(x, y, z)).collect()
            }
            Axis::Z => {
                let x = pencil % dims.nx;
                let y = pencil / dims.nx;
                (0..dims.nz).map(|z| dims.index(x, y, z)).collect()
            }
        }
    };
    let axis_k = axis.component();
    let (t1, t2) = match axis {
        Axis::X => (1, 2),
        Axis::Y => (0, 2),
        Axis::Z => (0, 1),
    };
    let updates: Vec<(Vec<usize>, Vec<Cons1D>)> = (0..n_other)
        .map(|pencil| {
            let idx = pencil_indices(pencil);
            let cells: Vec<Cons1D> = idx
                .iter()
                .map(|&i| Cons1D {
                    rho: state.rho[i],
                    mn: state.momentum[axis_k][i],
                    mt1: state.momentum[t1][i],
                    mt2: state.momentum[t2][i],
                    energy: state.energy[i],
                })
                .collect();
            let n = cells.len();
            let mut fluxes = Vec::with_capacity(n + 1);
            for face in 0..=n {
                let left = if face == 0 {
                    &cells[0]
                } else {
                    &cells[face - 1]
                };
                let right = if face == n {
                    &cells[n - 1]
                } else {
                    &cells[face]
                };
                fluxes.push(hll_flux(&eos, left, right));
            }
            let lambda = dt / dx;
            let updated: Vec<Cons1D> = (0..n)
                .map(|c| {
                    let div = fluxes[c + 1].add_scaled(&fluxes[c], -1.0);
                    cells[c].add_scaled(&div, -lambda)
                })
                .collect();
            (idx, updated)
        })
        .collect();
    for (idx, updated) in updates {
        for (i, u) in idx.into_iter().zip(updated) {
            state.rho[i] = u.rho.max(1e-12);
            state.momentum[axis_k][i] = u.mn;
            state.momentum[t1][i] = u.mt1;
            state.momentum[t2][i] = u.mt2;
            state.energy[i] = u.energy.max(1e-12);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::IdealGas;
    use crate::state::testing::{bits, random_state};
    use ricsa_vizdata::field::Dims;

    #[test]
    fn in_place_sweeps_equal_the_reference_on_any_grid() {
        let grids = [
            Dims::new(1, 1, 1),
            Dims::new(2, 1, 1),
            Dims::new(1, 2, 1),
            Dims::new(1, 1, 2),
            Dims::new(7, 5, 3),
            Dims::new(3, 7, 5),
            Dims::new(5, 3, 7),
            Dims::new(16, 9, 4),
        ];
        for (g, dims) in grids.into_iter().enumerate() {
            for seed in 0..3 {
                let start = random_state(dims, 0x5EED + 31 * g as u64 + seed);
                for axis in [Axis::X, Axis::Y, Axis::Z] {
                    let mut expected = start.clone();
                    reference_sweep(&mut expected, axis, 2e-3);
                    let mut got = start.clone();
                    sweep(&mut got, axis, 2e-3);
                    assert_eq!(bits(&got), bits(&expected), "{dims:?} seed {seed} {axis:?}");
                }
            }
        }
    }

    #[test]
    fn a_zero_length_axis_changes_nothing() {
        for dims in [Dims::new(0, 4, 4), Dims::new(4, 0, 4), Dims::new(4, 4, 0)] {
            let start = HydroState::uniform(dims, IdealGas::default());
            for axis in [Axis::X, Axis::Y, Axis::Z] {
                let mut s = start.clone();
                sweep(&mut s, axis, 1e-3);
                assert_eq!(s, start);
            }
        }
    }

    #[test]
    fn uniform_state_is_a_fixed_point() {
        let mut s = HydroState::uniform(Dims::new(16, 4, 4), IdealGas::default());
        let before = s.clone();
        sweepx(&mut s, 1e-3);
        sweepy(&mut s, 1e-3);
        sweepz(&mut s, 1e-3);
        for i in 0..s.rho.len() {
            assert!((s.rho[i] - before.rho[i]).abs() < 1e-12);
            assert!((s.energy[i] - before.energy[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn sweep_conserves_mass_with_closed_interior() {
        // A density bump in the middle of the domain: with outflow
        // boundaries nothing leaves in one small step, so mass is conserved
        // to machine precision.
        let mut s = HydroState::uniform(Dims::new(32, 1, 1), IdealGas::default());
        for x in 12..20 {
            let i = s.index(x, 0, 0);
            s.set_primitive(i, 2.0, [0.0; 3], 1.0);
        }
        let mass_before = s.total_mass();
        sweepx(&mut s, 1e-3);
        let mass_after = s.total_mass();
        assert!((mass_before - mass_after).abs() < 1e-10);
        assert!(s.is_physical());
    }

    #[test]
    fn pressure_jump_drives_flow_toward_low_pressure() {
        let mut s = HydroState::uniform(Dims::new(32, 1, 1), IdealGas::default());
        for x in 0..16 {
            let i = s.index(x, 0, 0);
            s.set_primitive(i, 1.0, [0.0; 3], 10.0);
        }
        for _ in 0..5 {
            sweepx(&mut s, 5e-4);
        }
        // Cells just right of the interface acquire positive x velocity.
        let (_, v, _) = s.primitive(s.index(17, 0, 0));
        assert!(v[0] > 0.0, "velocity {v:?}");
        assert!(s.is_physical());
    }

    #[test]
    fn degenerate_axis_is_a_no_op() {
        let mut s = HydroState::uniform(Dims::new(8, 1, 1), IdealGas::default());
        let before = s.clone();
        sweepy(&mut s, 1e-3);
        sweepz(&mut s, 1e-3);
        assert_eq!(s, before);
    }

    #[test]
    fn sweeps_along_different_axes_are_symmetric() {
        // A bump along x swept in x should match a bump along y swept in y.
        let mut sx = HydroState::uniform(Dims::new(16, 16, 1), IdealGas::default());
        let mut sy = HydroState::uniform(Dims::new(16, 16, 1), IdealGas::default());
        for k in 6..10 {
            for j in 0..16 {
                sx.set_primitive(sx.index(k, j, 0), 2.0, [0.0; 3], 2.0);
                sy.set_primitive(sy.index(j, k, 0), 2.0, [0.0; 3], 2.0);
            }
        }
        sweepx(&mut sx, 1e-3);
        sweepy(&mut sy, 1e-3);
        for a in 0..16 {
            for b in 0..16 {
                let ix = sx.index(a, b, 0);
                let iy = sy.index(b, a, 0);
                assert!((sx.rho[ix] - sy.rho[iy]).abs() < 1e-12);
            }
        }
    }
}
