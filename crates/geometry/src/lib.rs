//! Robust 2-D computational geometry and symmetry analysis for mobile-robot
//! pattern formation.
//!
//! This crate is the geometric substrate of the APF (arbitrary pattern
//! formation) workspace. It provides everything the Bramas–Tixeuil algorithm
//! needs to *look* at a configuration of robots and reason about it:
//!
//! * primitive types: [`Point`], [`Vector`], [`angle`] helpers, [`Circle`],
//!   polyline-with-arcs [`Path`]s, and similarity [`Frame`]s (local coordinate
//!   systems including mirrored ones — chirality is *not* assumed anywhere);
//! * the smallest enclosing circle ([`smallest_enclosing_circle`], Welzl's
//!   algorithm);
//! * the Weber point / geometric median ([`weber_point`], Weiszfeld
//!   iteration), which is the invariant center of (bi)angular configurations;
//! * the symmetry engine ([`symmetry`]): local views and the view order,
//!   symmetricity `ρ(P)`, axes of symmetry, `m`-regular and bi-angled set
//!   detection, the regular set `reg(P)` of a configuration (Definition 2 of
//!   the paper) and ε-shifted regular sets (Definition 3);
//! * pattern similarity testing up to translation, scaling, rotation and
//!   reflection ([`similarity`]).
//!
//! All predicates are tolerance-parameterized through [`Tol`]; the crate never
//! compares floating point values for exact equality when a geometric decision
//! is being made.
//!
//! # Example
//!
//! ```
//! use apf_geometry::{Point, Tol, smallest_enclosing_circle};
//!
//! let pts = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(2.0, 0.0),
//!     Point::new(1.0, 1.0),
//! ];
//! let sec = smallest_enclosing_circle(&pts);
//! let tol = Tol::default();
//! assert!(tol.eq(sec.center.x, 1.0));
//! assert!(tol.eq(sec.center.y, 0.0));
//! assert!(tol.eq(sec.radius, 1.0));
//! ```

#![forbid(unsafe_code)]

pub mod angle;
pub mod circle;
pub mod config;
pub mod frame;
pub mod path;
pub mod point;
pub mod polar;
pub mod similarity;
pub mod symmetry;
pub mod tol;
pub mod weber;

pub use angle::{ang, ang_min, normalize_angle, Orientation};
pub use circle::{smallest_enclosing_circle, Circle};
pub use config::Configuration;
pub use frame::Frame;
pub use path::{Path, PathSegment};
pub use point::{Point, Vector};
pub use polar::PolarPoint;
pub use similarity::{are_similar, match_up_to_similarity, SimilarityTarget};
pub use tol::Tol;
pub use weber::weber_point;
