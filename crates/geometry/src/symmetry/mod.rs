//! Symmetry analysis of robot configurations.
//!
//! This module implements the paper's full symmetry toolbox:
//!
//! * [`views`] — local views `Z_r`, the view order, equivalence classes and
//!   maximal-view robots;
//! * [`rho`] — the symmetricity `ρ(P)` (rotational symmetry factor) and axes
//!   of symmetry;
//! * [`regular`] — `m`-regular (equiangular) and bi-angled (biangular) sets
//!   (Definition 1), center finding, and the regular set `reg(P)` of a
//!   configuration (Definition 2);
//! * [`shifted`] — ε-shifted regular sets (Definition 3) and the shifted
//!   robot recovery that powers the symmetry-breaking phase;
//! * [`consts`] — the classifiers' shared tolerance bands and slack
//!   factors, exposed so the geometry fuzzer can target their boundaries.

pub mod consts;
pub mod regular;
pub mod rho;
pub mod shifted;
pub mod views;

pub use regular::{
    check_regular_around, find_regular_center, regular_set_of, RegularKind, RegularSet,
};
pub use rho::{axes_of_symmetry, has_axis_of_symmetry, symmetricity};
pub use shifted::{find_shifted_regular, ShiftedRegularSet};
pub use views::{LazyViews, View, ViewAnalysis};
