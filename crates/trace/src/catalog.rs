//! The one way a metric catalog is declared. `catalog!` turns a table of
//! `Variant = "name",` lines, each with its doc comment, into a fieldless
//! enum whose discriminants index per-entry arrays, and gives it
//!
//! - `COUNT` and `ALL` (declaration order, which is export order);
//! - `name()`, the stable exported name, and `from_name()`, its inverse;
//! - `Index`/`IndexMut` on `[T; COUNT]`, so a fold is an array read by the
//!   catalog's own type.
//!
//! Each table sits next to the plane that writes it:
//! [`crate::telemetry::Metric`] (the counters),
//! [`crate::telemetry::Phase`] (the phase profiler) and
//! [`crate::telemetry::LatencyPath`] (the latency histograms). Every
//! exporter, dashboard and check reads the names from there.

macro_rules! catalog {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $( $(#[$doc:meta])* $variant:ident = $name:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(usize)]
        pub enum $ty {
            $( $(#[$doc])* $variant, )*
        }

        impl $ty {
            pub const COUNT: usize = [$($name),*].len();

            /// Every entry, in declaration (and export) order.
            pub const ALL: [$ty; $ty::COUNT] = [$($ty::$variant),*];

            /// The stable exported name.
            pub fn name(self) -> &'static str {
                match self {
                    $( $ty::$variant => $name, )*
                }
            }

            /// The entry exported as `name`, if this build has one.
            pub fn from_name(name: &str) -> Option<$ty> {
                $ty::ALL.into_iter().find(|e| e.name() == name)
            }
        }

        impl<T> std::ops::Index<$ty> for [T; $ty::COUNT] {
            type Output = T;

            fn index(&self, e: $ty) -> &T {
                &self[e as usize]
            }
        }

        impl<T> std::ops::IndexMut<$ty> for [T; $ty::COUNT] {
            fn index_mut(&mut self, e: $ty) -> &mut T {
                &mut self[e as usize]
            }
        }
    };
}
