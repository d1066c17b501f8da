//! The one way a serialized record is declared. `record!` turns a table of
//! fields — one line each, with its doc comment — into the type itself and
//! its [`Record`] impl: the JSON writer (fields in declared order, over
//! [`JsonObj`]) and the reader (over [`JsonValue`]), plus `to_json` and
//! `from_json` for a record standing alone on a line or in a document.
//!
//! - `pub struct T { pub f: Ty, pub g: Ty = "key", }` is one flat object;
//!   `= "key"` names a field's JSON key where it is not the field's name.
//!   An `args { f, .. }` list after the struct declares its Chrome trace
//!   `args` view (`write_args`/`read_args`): the listed fields under their
//!   own names, the rest read back as their defaults.
//! - `pub enum E { V = "kind" { f: Ty, }, }` is one object per variant, led
//!   by the `"type"` discriminator that `kind()` returns.
//!
//! A field's type decides how it is written and read ([`Field`]). Integers
//! narrower than `u64` are range-checked on read: a value that does not fit
//! rejects the record rather than wrapping.
//!
//! The tables sit next to the code that fills them: [`crate::TraceEvent`]
//! and [`CostBreakdownEv`], [`crate::SpanTree`], [`crate::SpanRecord`],
//! [`crate::SpanEvent`], [`crate::HotQuery`], [`crate::QErrorSketch`],
//! [`crate::HealRecord`].

use crate::event::{CostBreakdownEv, TraceEvent};
use crate::hist::Histogram;
use crate::json::JsonObj;
use crate::read::JsonValue;
use crate::telemetry::SpanName;

/// A type declared by a `record!` table.
pub trait Record: Sized {
    /// Append the record's fields to `o`, in declared order.
    fn write_fields(&self, o: JsonObj) -> JsonObj;

    /// Read the record back from an object holding its fields: `None` when
    /// one is missing, mistyped or out of range.
    fn read_fields(v: &JsonValue) -> Option<Self>;
}

/// How a record field of this type is written under its key and read back.
pub trait Field: Sized {
    fn write_field(&self, o: JsonObj, key: &str) -> JsonObj;

    fn read_field(v: &JsonValue, key: &str) -> Option<Self>;
}

impl Field for u64 {
    fn write_field(&self, o: JsonObj, key: &str) -> JsonObj {
        o.u64(key, *self)
    }

    fn read_field(v: &JsonValue, key: &str) -> Option<Self> {
        v.get(key)?.as_u64()
    }
}

impl Field for u32 {
    fn write_field(&self, o: JsonObj, key: &str) -> JsonObj {
        o.u64(key, u64::from(*self))
    }

    fn read_field(v: &JsonValue, key: &str) -> Option<Self> {
        u32::try_from(u64::read_field(v, key)?).ok()
    }
}

impl Field for usize {
    fn write_field(&self, o: JsonObj, key: &str) -> JsonObj {
        o.u64(key, *self as u64)
    }

    fn read_field(v: &JsonValue, key: &str) -> Option<Self> {
        usize::try_from(u64::read_field(v, key)?).ok()
    }
}

impl Field for f64 {
    fn write_field(&self, o: JsonObj, key: &str) -> JsonObj {
        o.f64(key, *self)
    }

    fn read_field(v: &JsonValue, key: &str) -> Option<Self> {
        v.get(key)?.as_f64()
    }
}

impl Field for bool {
    fn write_field(&self, o: JsonObj, key: &str) -> JsonObj {
        o.bool(key, *self)
    }

    fn read_field(v: &JsonValue, key: &str) -> Option<Self> {
        v.get(key)?.as_bool()
    }
}

impl Field for String {
    fn write_field(&self, o: JsonObj, key: &str) -> JsonObj {
        o.str(key, self)
    }

    fn read_field(v: &JsonValue, key: &str) -> Option<Self> {
        v.get(key)?.as_str().map(str::to_string)
    }
}

impl Field for SpanName {
    fn write_field(&self, o: JsonObj, key: &str) -> JsonObj {
        o.str(key, self)
    }

    fn read_field(v: &JsonValue, key: &str) -> Option<Self> {
        String::read_field(v, key).map(SpanName::from)
    }
}

/// The full form, buckets included, so every quantile survives the trip.
impl Field for Histogram {
    fn write_field(&self, o: JsonObj, key: &str) -> JsonObj {
        o.raw(key, &self.to_json_full())
    }

    fn read_field(v: &JsonValue, key: &str) -> Option<Self> {
        Histogram::from_json_value(v.get(key)?)
    }
}

/// Flattened: the four components sit beside the record's own fields.
impl Field for CostBreakdownEv {
    fn write_field(&self, o: JsonObj, _key: &str) -> JsonObj {
        self.write_fields(o)
    }

    fn read_field(v: &JsonValue, _key: &str) -> Option<Self> {
        CostBreakdownEv::read_fields(v)
    }
}

/// Flattened: the event's `"type"` and fields sit beside the record's own.
impl Field for TraceEvent {
    fn write_field(&self, o: JsonObj, _key: &str) -> JsonObj {
        self.write_fields(o)
    }

    fn read_field(v: &JsonValue, _key: &str) -> Option<Self> {
        TraceEvent::read_fields(v)
    }
}

/// An array of records, one object each.
impl<R: Record> Field for Vec<R> {
    fn write_field(&self, o: JsonObj, key: &str) -> JsonObj {
        let items: Vec<String> = self
            .iter()
            .map(|r| r.write_fields(JsonObj::new()).finish())
            .collect();
        o.raw(key, &format!("[{}]", items.join(",")))
    }

    fn read_field(v: &JsonValue, key: &str) -> Option<Self> {
        match v.get(key)? {
            JsonValue::Arr(items) => items.iter().map(R::read_fields).collect(),
            _ => None,
        }
    }
}

/// Declares a record type and its JSON form; see the module docs.
macro_rules! record {
    (@key $field:ident) => {
        stringify!($field)
    };
    (@key $field:ident $key:literal) => {
        $key
    };
    (@json $ty:ident) => {
        impl $ty {
            /// One-line JSON object (no trailing newline).
            pub fn to_json(&self) -> String {
                let o = $crate::json::JsonObj::new();
                $crate::record::Record::write_fields(self, o).finish()
            }

            /// Parse [`Self::to_json`]'s form back: `None` for malformed
            /// text or a field missing, mistyped or out of range, so readers
            /// skip what they cannot load.
            pub fn from_json(text: &str) -> Option<$ty> {
                let v = $crate::read::parse_json(text.trim()).ok()?;
                $crate::record::Record::read_fields(&v)
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $ty:ident {
            $( $(#[$doc:meta])* pub $field:ident: $fty:ty $(= $key:literal)?, )*
        }
        $( args { $($arg:ident),* $(,)? } )?
    ) => {
        $(#[$meta])*
        pub struct $ty {
            $( $(#[$doc])* pub $field: $fty, )*
        }

        impl $crate::record::Record for $ty {
            fn write_fields(&self, o: $crate::json::JsonObj) -> $crate::json::JsonObj {
                o $(.field(record!(@key $field $($key)?), &self.$field))*
            }

            fn read_fields(v: &$crate::read::JsonValue) -> Option<$ty> {
                Some($ty {
                    $($field: $crate::record::Field::read_field(v, record!(@key $field $($key)?))?,)*
                })
            }
        }

        record!(@json $ty);

        $(impl $ty {
            /// The Chrome trace `args` view: the listed fields, under their
            /// own names.
            pub(crate) fn write_args(&self, o: $crate::json::JsonObj) -> $crate::json::JsonObj {
                o $(.field(stringify!($arg), &self.$arg))*
            }

            /// Read [`Self::write_args`]' view back; the fields it leaves
            /// out take their defaults.
            pub(crate) fn read_args(v: &$crate::read::JsonValue) -> Option<$ty> {
                Some($ty {
                    $($arg: $crate::record::Field::read_field(v, stringify!($arg))?,)*
                    ..Default::default()
                })
            }
        })?
    };
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $(
                $(#[$vdoc:meta])*
                $variant:ident = $kind:literal { $( $field:ident: $fty:ty, )* },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $ty {
            $( $(#[$vdoc])* $variant { $( $field: $fty, )* }, )*
        }

        impl $ty {
            /// The `"type"` discriminator of the JSON form.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $ty::$variant { .. } => $kind, )*
                }
            }
        }

        impl $crate::record::Record for $ty {
            fn write_fields(&self, o: $crate::json::JsonObj) -> $crate::json::JsonObj {
                let o = o.str("type", self.kind());
                match self {
                    $( $ty::$variant { $($field),* } => o $(.field(stringify!($field), $field))*, )*
                }
            }

            fn read_fields(v: &$crate::read::JsonValue) -> Option<$ty> {
                Some(match v.get("type")?.as_str()? {
                    $( $kind => $ty::$variant {
                        $($field: $crate::record::Field::read_field(v, stringify!($field))?,)*
                    }, )*
                    _ => return None,
                })
            }
        }

        record!(@json $ty);
    };
}
